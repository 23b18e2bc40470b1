from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import brute_multiplicative_order
import towerbounds
from towerbounds.bounds import BaseInvariants, assemble_report
from towerbounds.cli import build_parser, main, validate_report_json
from towerbounds.cyclotomic import splitting_infinite
from towerbounds.errors import DomainError, HypothesisNotDeclared
from towerbounds.report import bounds_json
from towerbounds.report import parse_tower as _parse_tower
from towerbounds.report import tower_text as _tower_text
from towerbounds.tower import QSets, TowerKind, TowerSpec


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

# reports for the tamper tests: every kind above, plus a torsion-tower report
# (it has a comparison column) and one with an all_levels_zero verdict
TAMPER_CALLS = {
    **JSON_CALLS,
    "bounds_torsion": ["bounds", "11a2", "--tower", "torsion", "--p", "7", "--lambda0", "1",
                       "--mu0", "0", "--assume-mhg", "--nmax", "2"],
    "bounds_zero": ["bounds", "37a1", "--tower", "zpd:2", "--p", "5", "--selmer-zero",
                    "--nmax", "3"],
}


def _row(i, **changes):
    def tamper(obj):
        row = obj["rows"][i]
        for key, delta in changes.items():
            row[key] += delta
    return tamper


# name -> (report from TAMPER_CALLS, in-place change that makes it false)
TAMPERS = {
    "unknown_schema": ("count", lambda o: o.update(schema=2)),
    "unknown_kind": ("count", lambda o: o.update(kind="nope")),
    "witness_prime_equals_p": ("qsets", lambda o: o.update(witnesses_q1=[[7, 2]])),
    "wrong_layer_degree": ("bounds", _row(1, cyc_degree=1)),
    "wrong_mu": ("bounds", _row(1, mu=1)),
    "inconsistent_lambda_rank": ("bounds", _row(1, rank_upper=1)),
    "all_levels_zero_with_nonzero_rows": ("bounds_zero",
                                          _row(1, lambda_upper=1, rank_upper=1)),
    "hits_out_of_range": ("density", lambda o: o.update(hits=o["total"] + 1)),
    "wrong_fraction": ("density",
                       lambda o: o.update(fraction=f"{o['hits'] + 1}/{o['total']}")),
    "inconsistent_splitting": ("splitting", lambda o: o.update(g_inf=o["g_inf"] + 1)),
    "wrong_finite_count": ("splitting_finite", lambda o: o.update(count=o["count"] + 1)),
    "count_trace_mismatch": ("count", lambda o: o.update(count=o["count"] + 1)),
    # fields that only a rebuild from the inputs checks
    "invariants_b2": ("invariants", lambda o: o.update(b2=o["b2"] + 1)),
    "invariants_disc": ("invariants", lambda o: o.update(disc=o["disc"] + 1)),
    "splitting_ell": ("splitting", lambda o: o.update(ell=13)),
    "qsets_d": ("qsets", lambda o: o.update(d=3)),
    "qsets_tower": ("qsets", lambda o: o.update(tower="torsion")),
    "qsets_tower_unparsable": ("qsets", lambda o: o.update(tower="weird:3")),
    "bounds_assume_mhg": ("bounds", lambda o: o.update(assume_mhg=False)),
    "bounds_lambda_lower": ("bounds", _row(1, lambda_lower=1)),
    "bounds_hung_lim_upper": ("bounds_torsion", _row(1, hung_lim_upper=1)),
    "density_decimal": ("density", lambda o: o.update(decimal="0.0001")),
    # JSON types: 2401.0 == 2401 in Python, but not in the report
    "count_float_ell": ("count", lambda o: o.update(ell=float(o["ell"]))),
    "splitting_float_g_inf": ("splitting", lambda o: o.update(g_inf=float(o["g_inf"]))),
    "bounds_float_cyc_degree": ("bounds", lambda o: o["rows"][2].update(
        cyc_degree=float(o["rows"][2]["cyc_degree"]))),
    "density_float_p": ("density", lambda o: o.update(p=float(o["p"]))),
    "density_float_limit": ("density", lambda o: o.update(limit=float(o["limit"]))),
    # 9^1 + 1 - 0 = 10 holds, but 9 is no prime
    "count_composite_ell": ("count", lambda o: o.update(ell=9, count=10, trace=0)),
    # refused from the sizes alone: 7^(10^9) is never built
    "count_huge_k": ("count", lambda o: o.update(k=10**9)),
    "density_mode": ("density", lambda o: o.update(mode="both")),
    # flags are bools: 1 == True in Python, but a report's flag is true or false
    "bounds_int_assume_mhg": ("bounds", lambda o: o.update(assume_mhg=1)),
    "bounds_int_selmer_zero": ("bounds_zero", lambda o: o["base"].update(selmer_zero=1)),
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

    def test_missing_key_is_malformed(self):
        with pytest.raises(ValueError, match="malformed 'splitting' report"):
            validate_report_json({"schema": 1, "kind": "splitting", "ell": 11})

    def test_splitting_finite_count_checked(self, capsys):
        _, out, _ = run_cli(capsys, *JSON_CALLS["splitting_finite"], "--json")
        obj = json.loads(out)
        obj["count"] += 1
        with pytest.raises(ValueError):
            validate_report_json(obj)

    @pytest.mark.parametrize("kind", ["qsets", "bounds"])
    @pytest.mark.parametrize("tower,forged", [
        ("zpd:3", {"q1": 5, "witnesses_q1": [[11, 5]]}),  # nothing ramifies
        ("falsetate:11", {"q1": 1, "witnesses_q1": [[13, 1]]}),  # 13 is not ramified
        ("torsion", {"q2": 3, "witnesses_q2": [[13, 3]]}),  # a torsion q2 is 0
    ])
    def test_forged_qsets_refused(self, capsys, kind, tower, forged):
        # forgeries of genuine 11a1 reports at p = 7; a bounds report gets the
        # rows its forged q-sets give, so only the witnesses are false
        argv = [kind, "11a1", "--tower", tower, "--p", "7", "--json"]
        if kind == "bounds":
            argv += ["--lambda0", "0", "--mu0", "0", "--assume-mhg", "--nmax", "2"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        obj = json.loads(out)
        validate_report_json(obj)
        obj.update(forged)
        if kind == "bounds":
            q = QSets(obj["q1"], obj["q2"], *(tuple(map(tuple, obj[f"witnesses_q{i}"]))
                                              for i in (1, 2)))
            rep = assemble_report("11a1", _parse_tower(tower, 7, True),
                                  BaseInvariants(0, 0, False, obj["base"]["provenance"]), q, 2)
            obj["rows"] = json.loads(json.dumps(bounds_json(rep)))["rows"]
        with pytest.raises(ValueError, match="is not ramified|torsion tower has q2 = 0"):
            validate_report_json(obj)

    @pytest.mark.parametrize("name", sorted(TAMPERS))
    def test_tampered_report_refused(self, capsys, name):
        call, tamper = TAMPERS[name]
        code, out, _ = run_cli(capsys, *TAMPER_CALLS[call], "--json")
        assert code == 0
        obj = json.loads(out)
        validate_report_json(obj)
        tamper(obj)
        with pytest.raises((ValueError, DomainError)):
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


@st.composite
def qsets(draw, spec):
    """Q-sets whose witnesses the tower admits.  Which of q1, q2 or neither a
    prime falls into needs a curve, so it is drawn."""
    if spec.kind is TowerKind.TORSION_FIELD:
        ells = draw(st.lists(st.sampled_from([q for q in _PRIMES[2:] if q != spec.p]),
                             unique=True, max_size=4))
        return QSets(len(ells), 0, tuple((ell, 1) for ell in sorted(ells)))
    w = ([], [], [])
    for ell in (spec.ell,) if spec.kind is TowerKind.FALSE_TATE else spec.ramified_primes:
        w[draw(st.integers(0, 2))].append((ell, splitting_infinite(ell, spec.p).num_primes))
    return QSets(sum(c for _, c in w[0]), sum(c for _, c in w[1]), tuple(w[0]), tuple(w[1]))


@st.composite
def bases(draw):
    if draw(st.booleans()):
        return BaseInvariants(0, 0, True, "test input")
    return BaseInvariants(draw(st.integers(0, 5)), draw(st.integers(0, 5)), False, "test input")


class TestBoundsReportRebuild:
    @given(tower_specs(), bases(), st.integers(0, 12), st.data())
    def test_validates_and_refuses_any_changed_row_int(self, spec, base, n_max, data):
        q = data.draw(qsets(spec))
        try:
            rep = assemble_report("t", spec, base, q, n_max)
        except HypothesisNotDeclared:
            assert not spec.assume_mhg
            return
        obj = json.loads(json.dumps(bounds_json(rep)))
        validate_report_json(obj)
        row = data.draw(st.sampled_from(obj["rows"]))
        key = data.draw(st.sampled_from(sorted(k for k, v in row.items() if v is not None)))
        row[key] += data.draw(st.sampled_from((-2, -1, 1, 2)))
        with pytest.raises((ValueError, DomainError)):
            validate_report_json(obj)


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


@pytest.fixture
def big_disc_file(tmp_path):
    """A user curve whose discriminant has 63 digits and a cofactor past the
    certified primality bound."""
    f = tmp_path / "big.jsonl"
    f.write_text('{"label": "big", "ainvs": [0, 0, 0, %d, %d]}\n' % (10**20 + 3, 10**30 + 7),
                 encoding="utf-8")
    return str(f)


class TestQsets:
    def test_documented_example(self, capsys):
        code, out, _ = run_cli(capsys, "qsets", "11a2", "--tower", "falsetate:11",
                               "--p", "7")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "q1=2 q2=0"
        assert lines[1] == "q1_witnesses: 11:2"
        assert lines[2] == "q2_witnesses: (none)"

    def test_large_residue_degree(self, capsys):
        # 13 has order f = 500,001 mod p = 1,000,003: the q2 test works on
        # residues mod p, never on #E(F_{13^f}), which has about 557,000 digits
        code, out, _ = run_cli(capsys, "qsets", "11a1", "--tower", "falsetate:13",
                               "--p", "1000003")
        assert code == 0
        assert out.splitlines()[0] == "q1=0 q2=0"

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

    def test_uncertified_discriminant_is_domain_error(self, capsys, big_disc_file):
        code, _, err = run_cli(capsys, "qsets", "big", "--curves", big_disc_file,
                               "--tower", "torsion", "--p", "7")
        assert code == 1
        assert err.startswith("error: UncertifiedPrimality:")


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

    def test_large_tower_prime(self, capsys):
        # f = p - 1 has 13 digits: m comes from residues mod p^(m + 1), not 3^f
        code, out, _ = run_cli(capsys, "splitting", "--ell", "3", "--p", "1000000000039")
        assert code == 0
        assert out.strip() == "ell=3 p=1000000000039 f=1000000000038 m=1 g_inf=1"

    def test_equal_primes(self, capsys):
        code, _, err = run_cli(capsys, "splitting", "--ell", "7", "--p", "7")
        assert code == 1
        assert "EqualPrimes" in err

    # (ell, p, f, m, g): 7^4 - 1 = 2400 = 5^2 * 96 gives m = 2
    STABLE = ((11, 7, 3, 1, 2), (7, 5, 4, 2, 5), (2, 7, 3, 1, 2))

    @pytest.mark.parametrize("ell,p,f,m,g", STABLE)
    def test_levels_up_to_stable_plus_one(self, capsys, ell, p, f, m, g):
        _, out, _ = run_cli(capsys, "splitting", "--ell", str(ell), "--p", str(p))
        assert out.strip() == f"ell={ell} p={p} f={f} m={m} g_inf={g}"
        for level in range(1, m + 4):
            code, out, _ = run_cli(capsys, "splitting", "--ell", str(ell), "--p", str(p),
                                   "--level", str(level))
            want = (p - 1) * p ** (level - 1) // brute_multiplicative_order(ell, p**level)
            assert code == 0
            assert out.strip() == f"ell={ell} p={p} level={level} count={want}"

    @pytest.mark.parametrize("ell,p,f,m,g", STABLE)
    def test_high_level_answers_with_stable_count(self, capsys, ell, p, f, m, g):
        # ord_{p^n}(ell) = f p^(n - m) above m; the direct order would work
        # modulo p^100000, a number of tens of thousands of digits
        code, out, _ = run_cli(capsys, "splitting", "--ell", str(ell), "--p", str(p),
                               "--level", "100000")
        assert code == 0
        assert out.strip() == f"ell={ell} p={p} level=100000 count={g}"


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

    def test_extension_past_bit_budget(self, capsys):
        # 100000 * bitlen(13) bits; the count would pass the int-to-str limit
        code, out, err = run_cli(capsys, "count", "11a1", "--ell", "13", "--ext", "100000")
        assert code == 1
        assert out == ""
        assert err.startswith("error: LimitTooLarge:")

    def test_extension_at_bit_budget(self, capsys):
        # 2500 * bitlen(13) = 10,000 bits is the largest accepted
        code, out, _ = run_cli(capsys, "count", "11a1", "--ell", "13", "--ext", "2500")
        assert code == 0
        assert out.startswith("ell=13 k=2500 count=")
        code, out, err = run_cli(capsys, "count", "11a1", "--ell", "13", "--ext", "2501")
        assert (code, out) == (1, "")
        assert err == ("error: LimitTooLarge: k * bitlen(ell) for a count over F_13^2501 "
                       "is 10004, past BIT_BUDGET = 10000\n")


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

    def test_error_leaves_no_partial_report(self, capsys):
        # under an int-to-str limit of 640 digits, lambda0 = 10^635 renders at
        # level 0, but 7^12 * lambda0 does not; nothing is written before the
        # whole report has rendered
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run_cli(capsys, "bounds", "11a1", "--tower", "zpd:2",
                                     "--p", "7", "--nmax", "12", "--lambda0", str(10**635),
                                     "--mu0", "0", "--assume-mhg")
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")

    def test_base_data_past_bit_budget(self, capsys):
        # 10^4290 has 14,252 bits: refused before q-sets or rows, where
        # 7^12 * 10^4290 would pass the int-to-str limit of 4,300 digits
        code, out, err = run_cli(capsys, "bounds", "11a1", "--tower", "zpd:2",
                                 "--p", "7", "--nmax", "12", "--lambda0", str(10**4290),
                                 "--mu0", "0", "--assume-mhg")
        assert (code, out) == (1, "")
        assert err == ("error: LimitTooLarge: bitlen(lambda0) is 14252, "
                       "past BASE_BIT_BUDGET = 4000\n")

    @pytest.mark.parametrize("key", ["--lambda0", "--mu0"])
    def test_base_data_at_bit_budget(self, capsys, key):
        # 2^4000 - 1 at the largest layer degree the layer budget admits,
        # 17^2000, prints in text and in a report that validates; 2^4000 is
        # refused
        argv = ["bounds", "11a1", "--tower", "zpd:201", "--p", "17", "--nmax", "10",
                "--lambda0", "0", "--mu0", "0", "--assume-mhg"]
        at = argv + [key, str(2**4000 - 1)]
        code, out, _ = run_cli(capsys, *at)
        assert code == 0
        assert out.splitlines()[-1].split()[0] == "10"
        code, out, _ = run_cli(capsys, *at, "--json")
        assert code == 0
        validate_report_json(json.loads(out))
        code, out, err = run_cli(capsys, *argv, key, str(2**4000))
        assert (code, out) == (1, "")
        assert f"bitlen({key[2:]}) is 4001, past BASE_BIT_BUDGET = 4000" in err

    @pytest.mark.parametrize("tower", ["zpd:2000", "zpd:1000000"])
    def test_layer_degree_past_bit_budget(self, capsys, tower):
        # 1999 * 12 * bitlen(7) bits and more: refused before any power is built
        code, out, err = run_cli(capsys, "bounds", "11a1", "--tower", tower,
                                 "--p", "7", "--nmax", "12", "--lambda0", "0",
                                 "--mu0", "0", "--assume-mhg")
        assert code == 1
        assert out == ""
        d = int(tower[4:])
        assert err.startswith(f"error: LimitTooLarge: e * bitlen(p) for the layer degree "
                              f"7^{(d - 1) * 12} is {(d - 1) * 36}, past BIT_BUDGET = 10000")

    def test_layer_degree_at_bit_budget(self, capsys):
        # (d - 1) * 12 * bitlen(7) is 9,972 bits at d = 278, accepted, and
        # 10,008 at d = 279, refused
        argv = ["--p", "7", "--nmax", "12", "--lambda0", "0", "--mu0", "0", "--assume-mhg"]
        code, out, _ = run_cli(capsys, "bounds", "11a1", "--tower", "zpd:278", *argv)
        assert code == 0
        assert out.splitlines()[-1].split()[0] == "12"
        code, _, err = run_cli(capsys, "bounds", "11a1", "--tower", "zpd:279", *argv)
        assert code == 1
        assert "is 10008, past BIT_BUDGET = 10000" in err

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

    def test_level_cap(self, capsys):
        # the same check, error type and exit code as bounds --nmax
        code, out, err = run_cli(capsys, "kida", "--tower", "falsetate:11",
                                 "--p", "7", "--n", "1000000000", "--lambda0", "0",
                                 "--assume-mhg", "--ram", "P1:7^1")
        assert code == 2
        assert out == ""
        assert err.strip() == "usage error: level is 1000000000, past LEVEL_CAP = 12"
        code, _, err = run_cli(capsys, "bounds", "11a2", "--tower", "falsetate:11",
                               "--p", "7", "--lambda0", "0", "--mu0", "0",
                               "--assume-mhg", "--nmax", "13")
        assert code == 2
        assert err.strip() == "usage error: n_max is 13, past LEVEL_CAP = 12"

    def test_layer_degree_past_bit_budget(self, capsys):
        code, out, err = run_cli(capsys, "kida", "--tower", "zpd:1000000000",
                                 "--p", "7", "--n", "12", "--lambda0", "0",
                                 "--assume-mhg", "--ram", "P1:7^1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: LimitTooLarge:")

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

    def test_empty_ram_items_are_skipped(self, capsys):
        code, out, _ = run_cli(capsys, "kida", "--tower", "zpd:2", "--p", "5", "--n", "1",
                               "--lambda0", "0", "--assume-mhg", "--ram", "P1:5^1,,")
        assert (code, out.strip()) == (0, "level=1 lambda=4")

    def test_ramification_index_zero(self, capsys):
        code, out, err = run_cli(capsys, "kida", "--tower", "zpd:2", "--p", "5", "--n", "1",
                                 "--lambda0", "0", "--assume-mhg", "--ram", "P1:0^1")
        assert (code, out) == (1, "")
        assert err.startswith("error: InvalidRamification: split_mult index 0")

    @pytest.mark.parametrize("over", ["lambda0", "count"])
    def test_base_data_bit_budget(self, capsys, over):
        # lambda0 and each count: 2^4000 - 1 is taken, 2^4000 refused
        for value, code in ((2**4000 - 1, 0), (2**4000, 1)):
            lam, count = (value, 1) if over == "lambda0" else (0, value)
            got, out, err = run_cli(capsys, "kida", "--tower", "zpd:2", "--p", "5", "--n", "1",
                                    "--lambda0", str(lam), "--assume-mhg",
                                    "--ram", f"P2:5^{count}")
            assert (got, out == "") == (code, code == 1)
            what = "lambda0" if over == "lambda0" else "good_torsion count"
            assert (f"bitlen({what}) is 4001, past BASE_BIT_BUDGET = 4000" in err) == (code == 1)


_KIDA = ("kida", "--tower", "falsetate:11", "--p", "7", "--n", "1", "--lambda0", "0",
         "--assume-mhg", "--ram")


@pytest.mark.parametrize("argv,message", [
    ((*_KIDA, "P1:7"), "must look like e^count"),
    ((*_KIDA, "P1:x^1"), "non-integer in ramification item"),
    (("qsets", "11a2", "--tower", "zpd:", "--p", "7"), "zpd tower needs a dimension"),
    (("qsets", "11a2", "--tower", "falsetate:", "--p", "7"), "falsetate tower needs a prime"),
    (("qsets", "11a2", "--tower", "torsion:x", "--p", "7"), "torsion tower takes no parameter"),
])
def test_malformed_ram_or_tower_text(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error:") and message in err


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

    def test_large_declared_precision(self, capsys):
        # the residue check must not build 5^(10^9)
        code, out, _ = run_cli(capsys, "wprep", "--series", "5 1000000000 1 : 1")
        assert code == 0
        assert out.strip() == "mu=0 lambda=0"
        code, _, err = run_cli(capsys, "wprep", "--series", "5 1000000000 1 : 0")
        assert code == 1
        assert err.startswith("error: InsufficientCoeffPrecision:")


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

    def test_large_discriminant(self, capsys, big_disc_file):
        # the scan tests disc % ell per prime and never factors disc
        code, out, _ = run_cli(capsys, "density", "big", "--curves", big_disc_file,
                               "--p", "7", "--limit", "1000", "--mode", "torsion")
        assert code == 0
        assert "total=165 hits=30" in out

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

    def test_empty_label_is_domain_error(self, capsys, tmp_path):
        f = tmp_path / "mine.jsonl"
        f.write_text('{"label": "", "ainvs": [0, -1, 1, 0, 0]}\n', encoding="utf-8")
        code, out, err = run_cli(capsys, "count", "w", "--curves", str(f), "--ell", "7")
        assert (code, out) == (1, "")
        assert err.startswith("error: MalformedCurveEntry:")
        assert "label must be a non-empty string" in err


_POOL = {"concurrent.futures", "multiprocessing"}
_DENSITY_BOUNDS = {"towerbounds.density", "towerbounds.bounds"} | _POOL

# one call per subcommand, and the modules it must not import
IMPORT_CALLS = {
    "invariants": (["invariants", "11a2"], _POOL),
    "reduction": (["reduction", "11a2", "--ell", "13"], _POOL),
    "count": (["count", "11a3", "--ell", "7"], _POOL),
    "splitting": (["splitting", "--ell", "11", "--p", "7"], _DENSITY_BOUNDS),
    "qsets": (["qsets", "11a2", "--tower", "generic:2:11,13", "--p", "7"], _POOL),
    "bounds": (JSON_CALLS["bounds"], _POOL),
    "kida": ([*_KIDA, "P1:7^2"], _POOL),
    "wprep": (["wprep", "--series", "5 3 4 : 5 10 1 0"], _DENSITY_BOUNDS),
    # 1,225 primes: forks a worker wherever there are two CPUs
    "density": (["density", "11a2", "--p", "7", "--limit", "10000", "--mode", "torsion",
                 "--jobs", "2"],
                {"towerbounds.report", "towerbounds.bounds", "towerbounds.tower",
                 "towerbounds.series"} | _POOL),
}

_MODULES_AFTER_MAIN = (
    "import contextlib, io, json, sys\n"
    "from towerbounds import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(sys.modules)]))\n")


class TestImportCost:
    @pytest.mark.parametrize("sub", sorted(IMPORT_CALLS))
    def test_subcommand_imports_only_what_it_uses(self, sub):
        # a fresh process per call: each subcommand pays only for its modules
        argv, forbidden = IMPORT_CALLS[sub]
        src = str(Path(towerbounds.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", _MODULES_AFTER_MAIN, *argv],
                             capture_output=True, text=True, check=True, timeout=60,
                             env=dict(os.environ, PYTHONPATH=src)).stdout
        code, modules = json.loads(out)
        assert code == 0
        assert sorted(forbidden & set(modules)) == []

    def test_package_import_skips_cli_and_report(self):
        # the package import is what every library user pays for
        code = ("import sys, towerbounds; "
                "print(sorted(m for m in ('towerbounds.cli', 'towerbounds.report') "
                "if m in sys.modules))")
        src = str(Path(towerbounds.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
        assert out.strip() == "[]"


class TestByteStability:
    def test_identical_bytes_across_runs(self):
        cmd = [sys.executable, "-m", "towerbounds", "qsets", "11a2",
               "--tower", "falsetate:11", "--p", "7", "--json"]
        a = subprocess.run(cmd, capture_output=True, check=True)
        b = subprocess.run(cmd, capture_output=True, check=True)
        assert a.stdout == b.stdout
        assert a.stdout.endswith(b"}\n")
