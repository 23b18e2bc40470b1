from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from towerbounds.bounds import (
    BaseInvariants,
    GrowthRow,
    RamificationData,
    SelmerVerdict,
    assemble_report,
    growth_report,
    hung_lim_bound,
    kida_lambda,
    lambda_bounds,
    mu_growth,
    rank_bound,
    selmer_zero_propagation,
)
from towerbounds.errors import (
    HypothesisNotDeclared,
    InvalidRamification,
    LimitTooLarge,
    WrongTowerKind,
)
from towerbounds.tower import QSets, TowerKind, TowerSpec, cyc_layer_degree


def base(mu0=0, lambda0=0, selmer_zero=False):
    return BaseInvariants(mu0=mu0, lambda0=lambda0, selmer_zero=selmer_zero,
                          provenance="test fixture")


def make_ram(rng: random.Random, p: int, d: int, n: int, q1: int, q2: int,
             ) -> RamificationData:
    """Random valid level-n ramification: q1 (resp. q2) base primes, each
    decomposing into count primes of index e with count * e dividing the
    relative degree p^((d-1)n)."""
    D = p ** ((d - 1) * n)

    def draw(q):
        out = []
        for _ in range(q):
            e = p ** rng.randint(0, n)
            out.append((e, rng.randint(1, max(1, D // e))))
        return tuple(out)

    return RamificationData(level=n, split_mult=draw(q1), good_torsion=draw(q2))


class TestBaseInvariants:
    def test_validation(self):
        with pytest.raises(ValueError):
            BaseInvariants(mu0=-1, lambda0=0, selmer_zero=False, provenance="x")
        with pytest.raises(ValueError):
            BaseInvariants(mu0=0, lambda0=-1, selmer_zero=False, provenance="x")
        with pytest.raises(ValueError):
            BaseInvariants(mu0=0, lambda0=0, selmer_zero=False, provenance=" ")

    def test_selmer_zero_forces_zero_invariants(self):
        with pytest.raises(ValueError):
            BaseInvariants(mu0=1, lambda0=0, selmer_zero=True, provenance="x")
        with pytest.raises(ValueError):
            BaseInvariants(mu0=0, lambda0=2, selmer_zero=True, provenance="x")
        b = BaseInvariants(mu0=0, lambda0=0, selmer_zero=True, provenance="x")
        assert b.selmer_zero

    @pytest.mark.parametrize("flag", [0, 1, None, "true"])
    def test_selmer_zero_is_a_bool(self, flag):
        with pytest.raises(ValueError, match="selmer_zero must be a bool"):
            BaseInvariants(mu0=0, lambda0=0, selmer_zero=flag, provenance="x")


class TestMuGrowth:
    def test_documented_progression(self):
        spec = TowerSpec.generic(5, 2, [], assume_mhg=True)
        b = base(mu0=2)
        assert [mu_growth(b, spec, n) for n in (1, 2, 3, 4)] == [10, 50, 250, 1250]

    def test_level_zero_echoes_base(self):
        spec = TowerSpec.torsion_field(7, assume_mhg=True)
        assert mu_growth(base(mu0=3), spec, 0) == 3

    def test_requires_hypothesis(self):
        spec = TowerSpec.zpd_composite(5, 2)
        with pytest.raises(HypothesisNotDeclared):
            mu_growth(base(mu0=1), spec, 1)


class TestLambdaBounds:
    def test_false_tate_window(self):
        spec = TowerSpec.false_tate(7, 11, assume_mhg=True)
        q = QSets(q1=2, q2=0, witnesses_q1=((11, 2),))
        for n, expected in ((1, 12), (2, 96), (3, 684)):
            lo, hi = lambda_bounds(base(), spec, q, n)
            assert lo == 0
            assert hi == expected == 2 * (7**n - 1)
            assert rank_bound(base(), spec, q, n) == hi

    def test_level_zero_echoes_base(self):
        spec = TowerSpec.false_tate(7, 11, assume_mhg=True)
        q = QSets(q1=2, q2=0, witnesses_q1=((11, 2),))
        assert lambda_bounds(base(lambda0=3), spec, q, 0) == (3, 3)

    def test_q2_counts_double(self):
        spec = TowerSpec.false_tate(5, 31, assume_mhg=True)
        q = QSets(q1=0, q2=4, witnesses_q2=((31, 4),))
        lo, hi = lambda_bounds(base(), spec, q, 1)
        assert (lo, hi) == (0, (5 - 1) * 8)

    def test_empty_qsets_pin_lambda(self):
        spec = TowerSpec.torsion_field(5, assume_mhg=True)
        lo, hi = lambda_bounds(base(lambda0=1), spec, QSets(0, 0), 2)
        assert lo == hi == 5**6

    def test_monotone_in_level_and_inputs(self):
        spec = TowerSpec.torsion_field(5, assume_mhg=True)
        prev = -1
        for n in range(5):
            r = rank_bound(base(lambda0=1), spec, QSets(q1=1, q2=0,
                                                        witnesses_q1=((11, 1),)), n)
            assert r > prev
            prev = r
        r0 = rank_bound(base(lambda0=1), spec, QSets(0, 0), 2)
        r1 = rank_bound(base(lambda0=2), spec, QSets(0, 0), 2)
        assert r1 > r0

    def test_requires_hypothesis(self):
        spec = TowerSpec.false_tate(7, 11)
        with pytest.raises(HypothesisNotDeclared):
            lambda_bounds(base(), spec, QSets(0, 0), 1)


class TestKidaLambda:
    def test_split_mult_example(self):
        spec = TowerSpec.false_tate(7, 11, assume_mhg=True)
        ram = RamificationData(level=1, split_mult=((7, 2),))
        assert kida_lambda(base(lambda0=0), spec, ram) == 12

    def test_good_torsion_example(self):
        spec = TowerSpec.false_tate(5, 31, assume_mhg=True)
        ram = RamificationData(level=1, good_torsion=((5, 1),))
        assert kida_lambda(base(lambda0=1), spec, ram) == 13

    def test_unramified(self):
        spec = TowerSpec.torsion_field(5, assume_mhg=True)
        ram = RamificationData(level=2)
        assert kida_lambda(base(lambda0=3), spec, ram) == 3 * 5**6

    def test_rejects_non_p_power_index(self):
        spec = TowerSpec.false_tate(7, 11, assume_mhg=True)
        with pytest.raises(InvalidRamification):
            kida_lambda(base(), spec, RamificationData(level=1, split_mult=((6, 1),)))
        with pytest.raises(InvalidRamification):
            kida_lambda(base(), spec, RamificationData(level=1, split_mult=((14, 1),)))

    def test_rejects_index_beyond_level(self):
        spec = TowerSpec.false_tate(7, 11, assume_mhg=True)
        with pytest.raises(InvalidRamification):
            kida_lambda(base(), spec, RamificationData(level=1, split_mult=((49, 1),)))

    def test_rejects_bad_count(self):
        spec = TowerSpec.false_tate(7, 11, assume_mhg=True)
        with pytest.raises(InvalidRamification):
            kida_lambda(base(), spec, RamificationData(level=1, split_mult=((7, 0),)))

    def test_requires_hypothesis(self):
        spec = TowerSpec.false_tate(7, 11)
        with pytest.raises(HypothesisNotDeclared):
            kida_lambda(base(), spec, RamificationData(level=1))


class TestSandwich:
    def test_kida_value_within_window(self):
        rng = random.Random(1318)
        for _ in range(300):
            p = rng.choice((5, 7))
            d = rng.choice((2, 3, 4))
            n = rng.randint(0, 3)
            lambda0 = rng.randint(0, 5)
            q1, q2 = rng.randint(0, 2), rng.randint(0, 2)
            spec = TowerSpec.generic(p, d, [], assume_mhg=True)
            ram = make_ram(rng, p, d, n, q1, q2)
            q = QSets(
                q1=sum(c for _, c in ram.split_mult),
                q2=sum(c for _, c in ram.good_torsion),
                witnesses_q1=tuple((11 + 2 * i, c) for i, (_, c) in
                                   enumerate(ram.split_mult)),
                witnesses_q2=tuple((101 + 2 * i, c) for i, (_, c) in
                                   enumerate(ram.good_torsion)),
            )
            lo, hi = lambda_bounds(base(lambda0=lambda0), spec, q, n)
            val = kida_lambda(base(lambda0=lambda0), spec, ram)
            assert lo <= val <= hi, (p, d, n, lambda0, ram)


class TestHungLim:
    def test_documented_values(self):
        spec = TowerSpec.torsion_field(5, assume_mhg=True)
        q = QSets(q1=1, q2=0, witnesses_q1=((11, 1),))
        assert hung_lim_bound(base(lambda0=1), spec, q, 1) == 258
        lo, hi = lambda_bounds(base(lambda0=1), spec, q, 1)
        assert (lo, hi) == (125, 225)

    def test_strictly_better_when_q_nonzero(self):
        spec = TowerSpec.torsion_field(5, assume_mhg=True)
        q = QSets(q1=1, q2=0, witnesses_q1=((11, 1),))
        for n in range(1, 6):
            ours = lambda_bounds(base(lambda0=1), spec, q, n)[1]
            theirs = hung_lim_bound(base(lambda0=1), spec, q, n)
            assert ours < theirs

    def test_wrong_tower_kind(self):
        spec = TowerSpec.false_tate(5, 11, assume_mhg=True)
        with pytest.raises(WrongTowerKind):
            hung_lim_bound(base(), spec, QSets(0, 0), 1)


class TestSelmerZeroPropagation:
    def test_verdicts(self):
        zero = base(selmer_zero=True)
        assert selmer_zero_propagation(zero, QSets(0, 0)) is SelmerVerdict.ALL_LEVELS_ZERO
        q = QSets(q1=1, q2=0, witnesses_q1=((11, 1),))
        assert selmer_zero_propagation(zero, q) is SelmerVerdict.INCONCLUSIVE
        assert selmer_zero_propagation(base(), QSets(0, 0)) is SelmerVerdict.INCONCLUSIVE


class TestGrowthReport:
    def test_unconditional_zero_report_needs_no_hypothesis(self, curve_37a1):
        spec = TowerSpec.zpd_composite(5, 2)  # assume_mhg not set
        rep = growth_report(curve_37a1, spec, base(selmer_zero=True), n_max=3)
        assert rep.verdict is SelmerVerdict.ALL_LEVELS_ZERO
        assert len(rep.rows) == 4
        for row in rep.rows:
            assert row.mu == 0
            assert row.lambda_lower == row.lambda_upper == row.rank_upper == 0

    def test_conditional_report_requires_hypothesis(self, curve_11a2):
        spec = TowerSpec.false_tate(7, 11)
        with pytest.raises(HypothesisNotDeclared):
            growth_report(curve_11a2, spec, base(), n_max=2)

    def test_false_tate_report_rows(self, curve_11a2):
        spec = TowerSpec.false_tate(7, 11, assume_mhg=True)
        rep = growth_report(curve_11a2, spec, base(), n_max=3)
        assert (rep.qsets.q1, rep.qsets.q2) == (2, 0)
        assert [r.rank_upper for r in rep.rows] == [0, 12, 96, 684]
        assert [r.cyc_degree for r in rep.rows] == [1, 7, 49, 343]
        assert all(r.hung_lim_upper is None for r in rep.rows)

    def test_torsion_report_carries_comparison_column(self, curve_11a2):
        spec = TowerSpec.torsion_field(7, assume_mhg=True)
        rep = growth_report(curve_11a2, spec, base(lambda0=1), n_max=1)
        assert rep.rows[1].hung_lim_upper == (1 + 1) * 7**3 + 8

    def test_level_cap(self, curve_11a2):
        spec = TowerSpec.false_tate(7, 11, assume_mhg=True)
        with pytest.raises(ValueError):
            growth_report(curve_11a2, spec, base(), n_max=13)

    def test_row_validation(self):
        with pytest.raises(ValueError):
            GrowthRow(n=1, cyc_degree=7, mu=0, lambda_lower=5,
                      lambda_upper=3, rank_upper=3).validate()


_TOWER_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@st.composite
def _report_inputs(draw):
    p = draw(st.sampled_from(_TOWER_PRIMES))
    kind = draw(st.sampled_from(("zpd", "torsion", "generic")))
    if kind == "zpd":
        spec = TowerSpec.zpd_composite(p, draw(st.integers(2, 6)), assume_mhg=True)
    elif kind == "torsion":
        spec = TowerSpec.torsion_field(p, assume_mhg=True)
    else:
        spec = TowerSpec.generic(p, draw(st.integers(2, 6)), [], assume_mhg=True)
    q1, q2 = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    q = QSets(q1, q2, ((2, q1),) if q1 else (), ((3, q2),) if q2 else ())
    zero = draw(st.booleans())
    b = base(selmer_zero=True) if zero else base(draw(st.integers(0, 5)), draw(st.integers(0, 5)))
    return spec, b, q, draw(st.integers(0, 12))


class TestAssembleReport:
    @given(_report_inputs())
    def test_rows_match_level_formulas(self, inputs):
        # the level recurrence against the per-level powers of the public formulas
        spec, b, q, n_max = inputs
        rows = assemble_report("t", spec, b, q, n_max).rows
        assert [r.n for r in rows] == list(range(n_max + 1))
        for r in rows:
            assert r.cyc_degree == cyc_layer_degree(spec, r.n)
            assert r.mu == mu_growth(b, spec, r.n)
            assert (r.lambda_lower, r.lambda_upper) == lambda_bounds(b, spec, q, r.n)
            assert r.rank_upper == rank_bound(b, spec, q, r.n)
            if spec.kind is TowerKind.TORSION_FIELD:
                assert r.hung_lim_upper == hung_lim_bound(b, spec, q, r.n)
            else:
                assert r.hung_lim_upper is None

    def test_row_is_an_immutable_named_tuple(self):
        row = GrowthRow(n=0, cyc_degree=1, mu=0, lambda_lower=0, lambda_upper=0, rank_upper=0)
        assert row.hung_lim_upper is None
        assert repr(row) == ("GrowthRow(n=0, cyc_degree=1, mu=0, lambda_lower=0, "
                             "lambda_upper=0, rank_upper=0, hung_lim_upper=None)")
        with pytest.raises(AttributeError):
            row.mu = 1

    def test_layer_degree_past_bit_budget(self):
        # 7^(999 * 12): 35,964 bits, refused before the rows are built
        spec = TowerSpec.zpd_composite(7, 1000, assume_mhg=True)
        with pytest.raises(LimitTooLarge, match="LAYER_BIT_BUDGET"):
            assemble_report("t", spec, base(), QSets(0, 0), 12)
        assert len(assemble_report("t", spec, base(), QSets(0, 0), 3).rows) == 4

    def test_kida_and_hung_lim_past_bit_budget(self):
        spec = TowerSpec.zpd_composite(7, 10**9, assume_mhg=True)
        with pytest.raises(LimitTooLarge):
            kida_lambda(base(), spec, RamificationData(level=12, split_mult=((7, 1),)))
        with pytest.raises(LimitTooLarge):
            hung_lim_bound(base(), TowerSpec.torsion_field(7), QSets(0, 0), 10**9)
