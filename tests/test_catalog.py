from __future__ import annotations

import json
import re

import pytest

from towerbounds.catalog import (
    bundled_curve_path,
    load_bundled,
    load_curve_file,
    parse_entry,
)
from towerbounds.errors import (
    DuplicateLabel,
    MalformedCurveEntry,
    SingularCurve,
    UnknownCurveKey,
)

GOOD = {"label": "x1", "ainvs": [0, -1, 1, 0, 0]}


class TestParseEntry:
    def test_minimal_entry(self):
        e = parse_entry(dict(GOOD))
        assert e.label == "x1"
        assert e.curve.disc == -11
        assert e.lambda0 is None and e.mu0 is None

    def test_full_entry(self):
        e = parse_entry({**GOOD, "lambda0": 1, "mu0": 0, "selmer_zero": False,
                         "provenance": "somewhere"})
        assert (e.lambda0, e.mu0, e.selmer_zero) == (1, 0, False)

    def test_unknown_key_rejected(self):
        with pytest.raises(UnknownCurveKey):
            parse_entry({**GOOD, "conductor": 11})

    def test_required_keys(self):
        with pytest.raises(MalformedCurveEntry):
            parse_entry({"label": "x"})
        with pytest.raises(MalformedCurveEntry):
            parse_entry({"ainvs": [0, -1, 1, 0, 0]})

    def test_ainvs_shape(self):
        with pytest.raises(MalformedCurveEntry):
            parse_entry({"label": "x", "ainvs": [0, 1, 2]})
        with pytest.raises(MalformedCurveEntry):
            parse_entry({"label": "x", "ainvs": [0, -1, 1, 0, True]})
        with pytest.raises(MalformedCurveEntry):
            parse_entry({"label": "x", "ainvs": [0, -1, 1, 0, 0.5]})

    def test_metadata_types(self):
        with pytest.raises(MalformedCurveEntry):
            parse_entry({**GOOD, "lambda0": -1})
        with pytest.raises(MalformedCurveEntry):
            parse_entry({**GOOD, "mu0": "2"})
        with pytest.raises(MalformedCurveEntry):
            parse_entry({**GOOD, "selmer_zero": 1})
        with pytest.raises(MalformedCurveEntry):
            parse_entry({**GOOD, "provenance": ""})

    def test_non_object(self):
        with pytest.raises(MalformedCurveEntry):
            parse_entry([1, 2, 3])

    def test_singular_curve_propagates(self):
        with pytest.raises(SingularCurve):
            parse_entry({"label": "x", "ainvs": [0, 0, 0, 0, 0]})


class TestLoadCurveFile:
    def test_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "c.jsonl"
        f.write_text(json.dumps(GOOD) + "\n\n\n", encoding="utf-8")
        assert list(load_curve_file(f)) == ["x1"]

    def test_bad_json_line(self, tmp_path):
        f = tmp_path / "c.jsonl"
        f.write_text("{not json}\n", encoding="utf-8")
        with pytest.raises(MalformedCurveEntry) as ei:
            load_curve_file(f)
        assert ":1" in str(ei.value)  # line number in the message

    def test_duplicate_label(self, tmp_path):
        f = tmp_path / "c.jsonl"
        f.write_text(json.dumps(GOOD) + "\n" + json.dumps(GOOD) + "\n",
                     encoding="utf-8")
        with pytest.raises(DuplicateLabel):
            load_curve_file(f)

    @pytest.mark.parametrize("name", ["absent.jsonl", ".", "latin1.jsonl"])
    def test_unreadable_path_is_value_error(self, tmp_path, name):
        # a missing file, a directory or a file that is not UTF-8: the CLI
        # reports it as a usage error
        path = tmp_path / name
        if name == "latin1.jsonl":
            path.write_bytes(b"\xff\n")
        with pytest.raises(ValueError, match=re.escape(f"cannot read curve file {path}: ")):
            load_curve_file(path)

    def test_preserves_order(self, tmp_path):
        f = tmp_path / "c.jsonl"
        rows = [{"label": "b", "ainvs": [0, -1, 1, 0, 0]},
                {"label": "a", "ainvs": [0, 0, 1, -1, 0]}]
        f.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
        assert list(load_curve_file(f)) == ["b", "a"]


class TestBundledCorpus:
    def test_path_exists(self):
        assert bundled_curve_path().is_file()

    def test_expected_labels(self, corpus):
        assert set(corpus) == {"11a1", "11a2", "11a3", "15a1", "37a1",
                               "389a1", "5077a1", "cm432"}

    def test_pinned_discriminants(self, corpus):
        expected = {
            "11a1": -161051,     # -11^5
            "11a2": -11,
            "11a3": -11,
            "15a1": 50625,       # 3^4 * 5^4
            "37a1": 37,
            "389a1": 389,
            "5077a1": 5077,
            "cm432": -432,
        }
        for label, disc in expected.items():
            assert corpus[label].curve.disc == disc, label

    def test_all_models_validate(self, corpus):
        for entry in corpus.values():
            entry.curve.validate()

    def test_base_data_on_11a2(self, corpus):
        e = corpus["11a2"]
        assert (e.mu0, e.lambda0) == (2, 0)
        assert e.provenance and "p=5" in e.provenance
