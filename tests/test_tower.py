from __future__ import annotations

import pytest

from helpers import P73
from towerbounds.curve import make_curve
from towerbounds.errors import LimitTooLarge, NotGoodOrdinary, SmallBadPrime
from towerbounds.tower import (
    QSets,
    TowerKind,
    TowerSpec,
    check_witnesses,
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

    def test_torsion_dimension(self):
        with pytest.raises(ValueError, match="torsion-field towers have dimension 4"):
            TowerSpec(p=7, kind=TowerKind.TORSION_FIELD, d=3)

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
        # e * bitlen(7) <= BIT_BUDGET = 10,000: 7^3333 is built, 7^3334 is not
        spec = TowerSpec.zpd_composite(7, 3334)
        assert cyc_layer_degree(spec, 1) == 7**3333
        with pytest.raises(LimitTooLarge, match=r"degree 7\^3334 is 10002, past BIT_BUDGET"):
            full_layer_degree(spec, 1)
        with pytest.raises(LimitTooLarge, match="is 35999999964, past BIT_BUDGET = 10000"):
            cyc_layer_degree(TowerSpec.zpd_composite(7, 10**9), 12)

    def test_bit_budget_edge(self):
        # zpd:201 at p = 17 has e = 200 n: e * bitlen(17) is exactly 10,000 at
        # level 10, which the budget admits, and 11,000 at level 11
        spec = TowerSpec.zpd_composite(17, 201)
        assert cyc_layer_degree(spec, 10) == 17**2000
        with pytest.raises(LimitTooLarge, match=r"17\^2200 is 11000, past BIT_BUDGET = 10000$"):
            cyc_layer_degree(spec, 11)

    @pytest.mark.parametrize("degree,p,d,e", [
        (full_layer_degree, 17, 2000, 2000),
        # bitlen(P73) = 73: e = 136 gives 9,928 bits, and e = 137 gives 10,001,
        # one past the budget
        (cyc_layer_degree, P73, 137, 136),
        (cyc_layer_degree, P73, 138, 137),
        (full_layer_degree, P73, 137, 137),
    ])
    def test_bit_budget_edge_at_level_one(self, degree, p, d, e):
        spec, bits = TowerSpec.zpd_composite(p, d), e * p.bit_length()
        if bits <= 10_000:
            assert degree(spec, 1) == p**e
        else:
            with pytest.raises(LimitTooLarge,
                               match=rf"{p}\^{e} is {bits}, past BIT_BUDGET = 10000$"):
                degree(spec, 1)

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


class TestCheckWitnesses:
    @pytest.mark.parametrize("label,spec", [
        ("11a2", TowerSpec.false_tate(7, 11)),
        ("11a3", TowerSpec.false_tate(5, 31)),
        ("37a1", TowerSpec.false_tate(5, 37)),
        ("11a2", TowerSpec.generic(7, 3, [11, 13, 29])),
        ("11a2", TowerSpec.torsion_field(7)),
        ("11a2", TowerSpec.zpd_composite(7, 3)),
    ])
    def test_computed_qsets_admitted(self, corpus, label, spec):
        q = compute_qsets(corpus[label].curve, spec)
        assert check_witnesses(spec, q) is q

    @pytest.mark.parametrize("spec,q,message", [
        (TowerSpec.zpd_composite(7, 3), QSets(5, 0, ((11, 5),)), "11 is not ramified"),
        (TowerSpec.false_tate(7, 11), QSets(1, 0, ((13, 1),)), "13 is not ramified"),
        # 11 and 13 split into 2 and 3 primes on the 7-cyclotomic line
        (TowerSpec.false_tate(7, 11), QSets(3, 0, ((11, 3),)), "11 has count 3, but 2 primes"),
        (TowerSpec.generic(7, 3, [11, 13]), QSets(0, 2, (), ((13, 2),)),
         "13 has count 2, but 3 primes"),
        (TowerSpec.torsion_field(7), QSets(1, 3, ((11, 1),), ((13, 3),)), "q2 = 0, got 3"),
        (TowerSpec.torsion_field(7), QSets(2, 0, ((11, 2),)), r"\(11, 2\) is not"),
        (TowerSpec.torsion_field(7), QSets(1, 0, ((7, 1),)), "a prime != 7"),
        (TowerSpec.torsion_field(7), QSets(1, 0, ((3, 1),)), "must be an integer >= 5"),
        (TowerSpec.torsion_field(7), QSets(1, 0, ((9, 1),)), "must be a prime >= 5"),
    ])
    def test_forged_witnesses_refused(self, spec, q, message):
        with pytest.raises(ValueError, match=message):
            check_witnesses(spec, q)
