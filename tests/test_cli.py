from __future__ import annotations

import json
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from towerbounds.cli import (
    _parse_tower,
    _tower_text,
    build_parser,
    main,
    validate_report_json,
)
from towerbounds.tower import TowerKind, TowerSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# one call per report kind that --json emits
JSON_CALLS = {
    "invariants": ["invariants", "11a2"],
    "count": ["count", "11a3", "--ell", "7"],
    "splitting": ["splitting", "--ell", "11", "--p", "7"],
    "splitting_finite": ["splitting", "--ell", "11", "--p", "7", "--level", "2"],
    "qsets": ["qsets", "11a2", "--tower", "generic:2:11,13", "--p", "7"],
    "bounds": ["bounds", "11a2", "--tower", "falsetate:11", "--p", "7", "--lambda0", "0",
               "--mu0", "0", "--assume-mhg", "--nmax", "2"],
    "density": ["density", "11a2", "--p", "7", "--limit", "1000", "--mode", "torsion"],
}


class TestJsonReports:
    @pytest.mark.parametrize("kind", sorted(JSON_CALLS))
    def test_every_kind_validates(self, capsys, kind):
        code, out, _ = run_cli(capsys, *JSON_CALLS[kind], "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["kind"] == kind
        validate_report_json(obj)

    def test_calls_cover_every_json_subcommand(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        with_json = {name for name, p in sub.choices.items()
                     if any("--json" in a.option_strings for a in p._actions)}
        assert with_json == {argv[0] for argv in JSON_CALLS.values()}

    def test_splitting_finite_count_checked(self, capsys):
        _, out, _ = run_cli(capsys, *JSON_CALLS["splitting_finite"], "--json")
        obj = json.loads(out)
        obj["count"] += 1
        with pytest.raises(ValueError):
            validate_report_json(obj)


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@st.composite
def tower_specs(draw):
    p = draw(st.sampled_from(_PRIMES[2:]))
    mhg = draw(st.booleans())
    others = [q for q in _PRIMES if q != p]
    kind = draw(st.sampled_from(list(TowerKind)))
    if kind is TowerKind.ZPD_COMPOSITE:
        return TowerSpec.zpd_composite(p, draw(st.integers(2, 6)), assume_mhg=mhg)
    if kind is TowerKind.FALSE_TATE:
        return TowerSpec.false_tate(p, draw(st.sampled_from(others)), assume_mhg=mhg)
    if kind is TowerKind.TORSION_FIELD:
        return TowerSpec.torsion_field(p, assume_mhg=mhg)
    return TowerSpec.generic(p, draw(st.integers(2, 6)),
                             draw(st.lists(st.sampled_from(others), unique=True, max_size=5)),
                             assume_mhg=mhg)


class TestTowerText:
    @given(tower_specs())
    def test_parse_inverts_render(self, spec):
        assert _parse_tower(_tower_text(spec), spec.p, spec.assume_mhg) == spec

    def test_generic_needs_dimension(self, capsys):
        code, _, err = run_cli(capsys, "qsets", "11a2", "--tower", "generic:11,13", "--p", "7")
        assert code == 2
        assert err.startswith("usage error:")

    def test_generic_matches_false_tate(self, capsys):
        _, generic, _ = run_cli(capsys, "qsets", "11a2", "--tower", "generic:2:11", "--p", "7")
        _, false_tate, _ = run_cli(capsys, "qsets", "11a2", "--tower", "falsetate:11", "--p", "7")
        assert generic == false_tate


class TestQsets:
    def test_documented_example(self, capsys):
        code, out, _ = run_cli(capsys, "qsets", "11a2", "--tower", "falsetate:11",
                               "--p", "7")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "q1=2 q2=0"
        assert lines[1] == "q1_witnesses: 11:2"
        assert lines[2] == "q2_witnesses: (none)"

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "qsets", "11a2", "--tower", "falsetate:11",
                               "--p", "7", "--json")
        assert code == 0
        obj = json.loads(out)
        assert (obj["q1"], obj["q2"]) == (2, 0)
        assert obj["schema"] == 1
        validate_report_json(obj)

    def test_unknown_tower(self, capsys):
        code, _, err = run_cli(capsys, "qsets", "11a2", "--tower", "weird:3",
                               "--p", "7")
        assert code == 2
        assert err.startswith("usage error:")

    def test_unknown_label(self, capsys):
        code, _, err = run_cli(capsys, "qsets", "nope", "--tower", "torsion",
                               "--p", "7")
        assert code == 2
        assert "nope" in err

    def test_domain_error_exit_code(self, capsys):
        # cm432 is supersingular at 5
        code, _, err = run_cli(capsys, "qsets", "cm432", "--tower", "torsion",
                               "--p", "5")
        assert code == 1
        assert err.startswith("error: NotGoodOrdinary:")


class TestSplitting:
    def test_stable_data(self, capsys):
        code, out, _ = run_cli(capsys, "splitting", "--ell", "11", "--p", "7")
        assert code == 0
        assert out.strip() == "ell=11 p=7 f=3 m=1 g_inf=2"

    def test_finite_level(self, capsys):
        code, out, _ = run_cli(capsys, "splitting", "--ell", "11", "--p", "7",
                               "--level", "2")
        assert code == 0
        assert out.strip() == "ell=11 p=7 level=2 count=2"

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "splitting", "--ell", "11", "--p", "7",
                               "--json")
        assert code == 0
        validate_report_json(json.loads(out))

    def test_equal_primes(self, capsys):
        code, _, err = run_cli(capsys, "splitting", "--ell", "7", "--p", "7")
        assert code == 1
        assert "EqualPrimes" in err


class TestCount:
    def test_plain(self, capsys):
        code, out, _ = run_cli(capsys, "count", "11a3", "--ell", "7")
        assert code == 0
        assert out.strip() == "ell=7 k=1 count=10 trace=-2"

    def test_extension(self, capsys):
        code, out, _ = run_cli(capsys, "count", "11a3", "--ell", "3", "--ext", "6")
        assert code == 0
        assert "count=720" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "count", "11a3", "--ell", "7", "--json")
        assert code == 0
        validate_report_json(json.loads(out))

    def test_bad_reduction(self, capsys):
        code, _, err = run_cli(capsys, "count", "11a3", "--ell", "11")
        assert code == 1
        assert "BadReduction" in err


class TestReductionAndInvariants:
    def test_reduction(self, capsys):
        code, out, _ = run_cli(capsys, "reduction", "11a2", "--ell", "11")
        assert code == 0
        assert out.strip() == "ell=11 type=split_multiplicative"

    def test_reduction_small_prime(self, capsys):
        code, _, err = run_cli(capsys, "reduction", "11a2", "--ell", "3")
        assert code == 1
        assert "SmallPrime" in err

    def test_invariants_json(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "11a2", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["disc"] == -11 and obj["c4"] == 375376
        validate_report_json(obj)


class TestBounds:
    def test_documented_example(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "11a2", "--tower", "falsetate:11",
                               "--p", "7", "--lambda0", "0", "--mu0", "0",
                               "--assume-mhg", "--nmax", "1")
        assert code == 0
        rows = [line.split() for line in out.splitlines()
                if line.strip() and line.split()[0] in ("0", "1")]
        assert rows[1][0] == "1"
        assert rows[1][-1] == "12"  # rank_max at n=1

    def test_hypothesis_gate(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "11a2", "--tower", "falsetate:11",
                               "--p", "7", "--lambda0", "0", "--mu0", "0",
                               "--nmax", "1")
        assert code == 1
        assert "HypothesisNotDeclared" in err

    def test_selmer_zero_unconditional(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "37a1", "--tower", "zpd:2",
                               "--p", "5", "--selmer-zero", "--nmax", "3")
        assert code == 0
        assert "verdict=all_levels_zero" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "11a2", "--tower", "torsion",
                               "--p", "7", "--lambda0", "1", "--mu0", "0",
                               "--assume-mhg", "--nmax", "2", "--json")
        assert code == 0
        obj = json.loads(out)
        validate_report_json(obj)
        assert obj["rows"][1]["hung_lim_upper"] == 694

    def test_base_from_curve_file(self, capsys):
        # 11a2 carries mu0=2/lambda0=0 in the bundled file
        code, out, _ = run_cli(capsys, "bounds", "11a2", "--tower", "zpd:2",
                               "--p", "5", "--assume-mhg", "--nmax", "1", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["base"]["mu0"] == 2
        assert obj["rows"][1]["mu"] == 10

    def test_flag_overrides_curve_file(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "11a2", "--tower", "zpd:2",
                               "--p", "5", "--mu0", "0", "--lambda0", "0",
                               "--assume-mhg", "--nmax", "1", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["base"]["mu0"] == 0

    def test_missing_base_data(self, capsys):
        # 11a3 carries no base invariants; flags are required
        code, _, err = run_cli(capsys, "bounds", "11a3", "--tower", "zpd:2",
                               "--p", "5", "--assume-mhg", "--nmax", "1")
        assert code == 2
        assert "usage error:" in err


class TestKida:
    def test_split_mult_example(self, capsys):
        code, out, _ = run_cli(capsys, "kida", "--tower", "falsetate:11",
                               "--p", "7", "--n", "1", "--lambda0", "0",
                               "--assume-mhg", "--ram", "P1:7^2")
        assert code == 0
        assert out.strip() == "level=1 lambda=12"

    def test_good_torsion_example(self, capsys):
        code, out, _ = run_cli(capsys, "kida", "--tower", "falsetate:31",
                               "--p", "5", "--n", "1", "--lambda0", "1",
                               "--assume-mhg", "--ram", "P2:5^1")
        assert code == 0
        assert out.strip() == "level=1 lambda=13"

    def test_invalid_ramification(self, capsys):
        code, _, err = run_cli(capsys, "kida", "--tower", "falsetate:11",
                               "--p", "7", "--n", "1", "--lambda0", "0",
                               "--assume-mhg", "--ram", "P1:6^1")
        assert code == 1
        assert "InvalidRamification" in err

    def test_malformed_ram_text(self, capsys):
        code, _, err = run_cli(capsys, "kida", "--tower", "falsetate:11",
                               "--p", "7", "--n", "1", "--lambda0", "0",
                               "--assume-mhg", "--ram", "P3:7^1")
        assert code == 2
        assert "usage error:" in err


class TestWprep:
    def test_documented_example(self, capsys):
        code, out, _ = run_cli(capsys, "wprep", "--series", "5 3 4 : 5 10 1 0")
        assert code == 0
        assert out.strip() == "mu=0 lambda=2"

    def test_precision_error(self, capsys):
        code, _, err = run_cli(capsys, "wprep", "--series", "5 2 3 : 0 0 0")
        assert code == 1
        assert "InsufficientCoeffPrecision" in err

    def test_malformed_series(self, capsys):
        code, _, err = run_cli(capsys, "wprep", "--series", "5 2 : 1")
        assert code == 2


class TestDensity:
    def test_plain(self, capsys):
        code, out, _ = run_cli(capsys, "density", "11a3", "--p", "5",
                               "--limit", "500", "--mode", "torsion")
        assert code == 0
        assert "fraction=" in out
        # rational 5-torsion forces every eligible prime to hit
        total = int(out.split("total=")[1].split()[0])
        hits = int(out.split("hits=")[1].split()[0])
        assert total == hits > 0

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "density", "11a2", "--p", "7",
                               "--limit", "1000", "--mode", "qvanish", "--json")
        assert code == 0
        validate_report_json(json.loads(out))

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "density", "11a2", "--p", "7",
                               "--limit", "300", "--mode", "torsion", "--csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ell,count_mod_p,hit"
        assert all(len(line.split(",")) == 3 for line in lines[1:])

    def test_empty_scan(self, capsys):
        code, _, err = run_cli(capsys, "density", "11a3", "--p", "97",
                               "--limit", "100", "--mode", "qvanish")
        assert code == 1
        assert "EmptyScan" in err


class TestCurveFileOption:
    def test_custom_file(self, capsys, tmp_path):
        f = tmp_path / "mine.jsonl"
        f.write_text('{"label": "w", "ainvs": [0, -1, 1, 0, 0]}\n',
                     encoding="utf-8")
        code, out, _ = run_cli(capsys, "count", "w", "--curves", str(f),
                               "--ell", "7")
        assert code == 0
        assert "count=10" in out

    def test_broken_file_is_domain_error(self, capsys, tmp_path):
        f = tmp_path / "mine.jsonl"
        f.write_text('{"label": "w", "ainvs": [0, -1, 1, 0, 0], "x": 1}\n',
                     encoding="utf-8")
        code, _, err = run_cli(capsys, "count", "w", "--curves", str(f),
                               "--ell", "7")
        assert code == 1
        assert "UnknownCurveKey" in err


class TestByteStability:
    def test_identical_bytes_across_runs(self):
        cmd = [sys.executable, "-m", "towerbounds", "qsets", "11a2",
               "--tower", "falsetate:11", "--p", "7", "--json"]
        a = subprocess.run(cmd, capture_output=True, check=True)
        b = subprocess.run(cmd, capture_output=True, check=True)
        assert a.stdout == b.stdout
        assert a.stdout.endswith(b"}\n")
