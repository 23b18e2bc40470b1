from __future__ import annotations

import pytest

from towerbounds.curve import make_curve
from towerbounds.errors import LimitTooLarge, NotGoodOrdinary, SmallBadPrime
from towerbounds.tower import (
    QSets,
    TowerKind,
    TowerSpec,
    compute_qsets,
    cyc_layer_degree,
    full_layer_degree,
)


class TestTowerSpec:
    def test_constructors(self):
        assert TowerSpec.zpd_composite(5, 3).kind is TowerKind.ZPD_COMPOSITE
        assert TowerSpec.false_tate(7, 11).d == 2
        assert TowerSpec.torsion_field(5).d == 4
        g = TowerSpec.generic(5, 3, [11, 7])
        assert g.ramified_primes == (7, 11)

    def test_prime_validation(self):
        with pytest.raises(ValueError):
            TowerSpec.zpd_composite(4, 2)
        with pytest.raises(ValueError):
            TowerSpec.zpd_composite(3, 2)  # p >= 5 required

    def test_false_tate_constraints(self):
        with pytest.raises(ValueError):
            TowerSpec.false_tate(7, 7)
        with pytest.raises(ValueError):
            TowerSpec.false_tate(7, 10)
        with pytest.raises(ValueError):
            TowerSpec(p=7, kind=TowerKind.FALSE_TATE, d=3, ell=11)

    def test_generic_constraints(self):
        with pytest.raises(ValueError):
            TowerSpec.generic(5, 2, [5])
        with pytest.raises(ValueError):
            TowerSpec.generic(5, 2, [11, 11])

    def test_kind_parameter_exclusivity(self):
        with pytest.raises(ValueError):
            TowerSpec(p=5, kind=TowerKind.ZPD_COMPOSITE, d=2, ell=11)
        with pytest.raises(ValueError):
            TowerSpec(p=5, kind=TowerKind.TORSION_FIELD, d=4, ramified_primes=(11,))

    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            TowerSpec.zpd_composite(5, 1)

    @pytest.mark.parametrize("flag", [0, 1, None, "yes"])
    def test_assume_mhg_is_a_bool(self, flag):
        with pytest.raises(ValueError, match="assume_mhg must be a bool"):
            TowerSpec.zpd_composite(5, 2, assume_mhg=flag)


class TestLayerDegrees:
    def test_values(self):
        spec = TowerSpec.false_tate(7, 11)
        assert spec.d == 2
        assert [cyc_layer_degree(spec, n) for n in range(4)] == [1, 7, 49, 343]
        assert [full_layer_degree(spec, n) for n in range(3)] == [1, 49, 2401]

    def test_higher_dimension(self):
        spec = TowerSpec.torsion_field(5)
        assert cyc_layer_degree(spec, 2) == 5**6
        assert full_layer_degree(spec, 2) == 5**8

    def test_bit_budget(self):
        # e * bitlen(7) <= LAYER_BIT_BUDGET = 10,000: 7^3333 is built, 7^3334 is not
        spec = TowerSpec.zpd_composite(7, 3334)
        assert cyc_layer_degree(spec, 1) == 7**3333
        with pytest.raises(LimitTooLarge, match="LAYER_BIT_BUDGET"):
            full_layer_degree(spec, 1)
        with pytest.raises(LimitTooLarge):
            cyc_layer_degree(TowerSpec.zpd_composite(7, 10**9), 12)

    def test_negative_level(self):
        spec = TowerSpec.zpd_composite(5, 2)
        with pytest.raises(ValueError):
            cyc_layer_degree(spec, -1)


class TestQSetsValidation:
    def test_witness_sum_enforced(self):
        with pytest.raises(ValueError):
            QSets(q1=3, q2=0, witnesses_q1=((11, 2),))

    def test_distinct_witness_primes(self):
        with pytest.raises(ValueError):
            QSets(q1=2, q2=2, witnesses_q1=((11, 2),), witnesses_q2=((11, 2),))

    def test_valid(self):
        qs = QSets(q1=2, q2=4, witnesses_q1=((11, 2),), witnesses_q2=((31, 4),))
        assert qs.q1 == 2 and qs.q2 == 4


class TestComputeQSets:
    def test_zpd_always_zero(self, curve_11a2):
        qs = compute_qsets(curve_11a2, TowerSpec.zpd_composite(7, 3))
        assert (qs.q1, qs.q2) == (0, 0)

    def test_false_tate_split_witness(self, curve_11a2):
        # 11a2 is split multiplicative at 11, and 11 splits into 2 primes
        # on the 7-cyclotomic line
        qs = compute_qsets(curve_11a2, TowerSpec.false_tate(7, 11))
        assert (qs.q1, qs.q2) == (2, 0)
        assert qs.witnesses_q1 == ((11, 2),)

    def test_false_tate_good_torsion_witness(self, curve_11a3):
        # at p=5, ell=31: good reduction, 5-torsion over the residue extension,
        # 31 splits into 4 primes on the 5-cyclotomic line
        qs = compute_qsets(curve_11a3, TowerSpec.false_tate(5, 31))
        assert (qs.q1, qs.q2) == (0, 4)
        assert qs.witnesses_q2 == ((31, 4),)

    def test_false_tate_inert_good_prime(self, curve_11a2):
        # ell = 2 is good for 11a2; no split reduction, check torsion branch
        qs = compute_qsets(curve_11a2, TowerSpec.false_tate(7, 2))
        assert qs.q1 == 0

    def test_torsion_field_counts_rational_primes(self, curve_11a2, curve_37a1):
        qs = compute_qsets(curve_11a2, TowerSpec.torsion_field(7))
        assert (qs.q1, qs.q2) == (1, 0)
        assert qs.witnesses_q1 == ((11, 1),)
        # 37a1 is nonsplit at 37, so no witnesses at all
        qs = compute_qsets(curve_37a1, TowerSpec.torsion_field(5))
        assert (qs.q1, qs.q2) == (0, 0)

    def test_ramified_nonsplit_or_additive_prime_counts_nothing(self, curve_37a1):
        # 37a1 is nonsplit multiplicative at 37, y^2 = x^3 + 5 additive at 5:
        # a ramified prime of either type enters neither q-set
        qs = compute_qsets(curve_37a1, TowerSpec.false_tate(5, 37))
        assert qs == QSets(0, 0)
        qs = compute_qsets(make_curve(0, 0, 0, 0, 5), TowerSpec.generic(7, 3, [5, 11]))
        assert qs == QSets(0, 0)

    def test_generic_matches_false_tate(self, curve_11a2):
        ft = compute_qsets(curve_11a2, TowerSpec.false_tate(7, 11))
        gn = compute_qsets(curve_11a2, TowerSpec.generic(7, 2, [11]))
        assert (ft.q1, ft.q2) == (gn.q1, gn.q2)

    def test_not_good_ordinary_rejected(self, corpus):
        cm = corpus["cm432"].curve
        with pytest.raises(NotGoodOrdinary):
            compute_qsets(cm, TowerSpec.false_tate(5, 11))
        # bad at p also rejected
        with pytest.raises(NotGoodOrdinary):
            compute_qsets(corpus["11a2"].curve, TowerSpec.false_tate(11, 7))

    def test_small_bad_prime(self, corpus):
        # 15a1 is good ordinary at 13 but bad at 3; a tower ramified at 3
        # cannot be classified
        E = corpus["15a1"].curve
        with pytest.raises(SmallBadPrime):
            compute_qsets(E, TowerSpec.false_tate(13, 3))
        # torsion kind must classify every bad prime, including 3
        with pytest.raises(SmallBadPrime):
            compute_qsets(E, TowerSpec.torsion_field(13))

    def test_good_small_ramified_prime_ok(self, curve_11a3):
        # ell = 2 is a good prime for 11a3, so the false-Tate tower at 2 works
        qs = compute_qsets(curve_11a3, TowerSpec.false_tate(5, 2))
        assert qs.q1 == 0
