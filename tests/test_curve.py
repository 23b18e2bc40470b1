from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import brute_count_projective, trial_division_primes
from towerbounds import curve as curve_mod
from towerbounds.arith import is_prime
from towerbounds.curve import (
    MESTRE_BOUND,
    ReductionType,
    bad_primes,
    count_points,
    count_points_ext,
    curve_from_ainvs,
    frobenius_trace,
    has_p_torsion_over,
    is_good_ordinary,
    is_minimal_at,
    make_curve,
    reduction_type,
)
from towerbounds.errors import (
    BadReduction,
    EqualPrimes,
    NonMinimalModel,
    SingularCurve,
    SmallPrime,
)


class TestInvariants:
    def test_known_curve(self, curve_11a2):
        assert curve_11a2.disc == -11
        assert curve_11a2.c4 == 375376

    def test_c_identity_holds_on_corpus(self, corpus):
        for entry in corpus.values():
            E = entry.curve
            assert E.c4**3 - E.c6**2 == 1728 * E.disc

    def test_b8_identity_holds_on_corpus(self, corpus):
        for entry in corpus.values():
            E = entry.curve
            assert 4 * E.b8 == E.b2 * E.b6 - E.b4**2

    def test_singular_rejected(self):
        with pytest.raises(SingularCurve):
            make_curve(0, 0, 0, 0, 0)
        with pytest.raises(SingularCurve):
            make_curve(0, 0, 0, -3, 2)  # y^2 = x^3 - 3x + 2 = (x-1)^2 (x+2)

    def test_bool_coefficients_rejected(self):
        with pytest.raises(ValueError):
            make_curve(0, 0, True, 0, 1)

    def test_from_sequence(self):
        E = curve_from_ainvs([0, -1, 1, 0, 0])
        assert E.disc == -11
        with pytest.raises(ValueError):
            curve_from_ainvs([1, 2, 3])


class TestMinimality:
    def test_scaled_model_rejected_at_5(self):
        E = make_curve(0, 0, 0, 0, 5**6)
        assert not is_minimal_at(E, 5)
        with pytest.raises(NonMinimalModel):
            reduction_type(E, 5)

    def test_corpus_minimal_at_all_relevant_primes(self, corpus):
        for entry in corpus.values():
            E = entry.curve
            for ell in (5, 7, 11, 13, 37):
                assert is_minimal_at(E, ell)


class TestReductionType:
    def test_good(self, curve_11a2):
        assert reduction_type(curve_11a2, 7) is ReductionType.GOOD

    def test_split_multiplicative(self, curve_11a2, curve_11a3):
        assert reduction_type(curve_11a2, 11) is ReductionType.SPLIT_MULTIPLICATIVE
        assert reduction_type(curve_11a3, 11) is ReductionType.SPLIT_MULTIPLICATIVE

    def test_nonsplit_multiplicative(self, curve_37a1):
        assert reduction_type(curve_37a1, 37) is ReductionType.NONSPLIT_MULTIPLICATIVE

    def test_split_at_5_with_small_bad_prime_elsewhere(self, corpus):
        E = corpus["15a1"].curve
        assert reduction_type(E, 5) is ReductionType.SPLIT_MULTIPLICATIVE

    def test_additive(self):
        E = make_curve(0, 0, 0, 0, 5)  # disc = -10800, so v_5 = 2 and c4 = 0
        assert reduction_type(E, 5) is ReductionType.ADDITIVE

    def test_small_primes_rejected(self, curve_11a2):
        with pytest.raises(SmallPrime):
            reduction_type(curve_11a2, 2)
        with pytest.raises(SmallPrime):
            reduction_type(curve_11a2, 3)

    def test_composite_rejected(self, curve_11a2):
        with pytest.raises(ValueError):
            reduction_type(curve_11a2, 15)


class TestCountPoints:
    def test_matches_projective_enumeration(self, corpus):
        for entry in corpus.values():
            E = entry.curve
            for ell in (5, 7, 11, 13, 17, 19, 23):
                if E.disc % ell == 0:
                    continue
                pc = count_points(E, ell)
                assert pc.count == brute_count_projective(
                    (E.a1, E.a2, E.a3, E.a4, E.a6), ell
                ), (entry.label, ell)

    def test_known_values(self, curve_11a3):
        pc = count_points(curve_11a3, 7)
        assert pc.count == 10
        assert pc.trace == -2
        assert count_points(curve_11a3, 5).count == 5

    def test_trace_relation(self, curve_37a1):
        for ell in (5, 7, 11, 13):
            pc = count_points(curve_37a1, ell)
            assert pc.count == ell + 1 - pc.trace

    def test_hasse_bound(self, corpus):
        for entry in corpus.values():
            E = entry.curve
            for ell in (5, 7, 11, 13, 29, 97):
                if E.disc % ell == 0:
                    continue
                pc = count_points(E, ell)
                assert pc.trace**2 <= 4 * ell

    def test_bad_prime_rejected(self, curve_11a2):
        with pytest.raises(BadReduction):
            count_points(curve_11a2, 11)

    def test_char_2_and_3(self, curve_11a3):
        # brute force path
        assert count_points(curve_11a3, 2).count == brute_count_projective(
            (0, -1, 1, 0, 0), 2
        )
        assert count_points(curve_11a3, 3).count == brute_count_projective(
            (0, -1, 1, 0, 0), 3
        )


class TestCountPointsExt:
    def test_degree_one_matches_base(self, curve_11a3):
        assert count_points_ext(curve_11a3, 5, 1).count == count_points(curve_11a3, 5).count

    def test_known_cubic_extension(self, curve_11a3):
        # #E(F_{3^6}) for 11a3
        assert count_points_ext(curve_11a3, 3, 6).count == 720

    def test_frobenius_recursion_against_brute_force(self, curve_11a3):
        # #E(F_4) and #E(F_8) by the trace recursion vs direct formula:
        # N_k = ell^k + 1 - s_k with s from the quadratic x^2 - a x + ell.
        pc1 = count_points(curve_11a3, 5)
        a = pc1.trace
        s_prev, s_cur = 2, a
        for k in range(2, 6):
            s_prev, s_cur = s_cur, a * s_cur - 5 * s_prev
            assert count_points_ext(curve_11a3, 5, k).count == 5**k + 1 - s_cur

    def test_hasse_in_extension(self, curve_11a3):
        pc = count_points_ext(curve_11a3, 7, 4)
        assert pc.trace**2 <= 4 * 7**4

    def test_invalid_degree(self, curve_11a3):
        with pytest.raises(ValueError):
            count_points_ext(curve_11a3, 5, 0)


class TestGoodOrdinary:
    def test_ordinary_cases(self, curve_11a2, curve_11a3):
        assert is_good_ordinary(curve_11a2, 7)
        assert is_good_ordinary(curve_11a3, 5)
        assert is_good_ordinary(curve_11a3, 7)

    def test_supersingular(self, corpus):
        cm = corpus["cm432"].curve
        assert not is_good_ordinary(cm, 5)
        assert is_good_ordinary(cm, 7)
        assert not is_good_ordinary(corpus["11a3"].curve, 19)

    def test_bad_prime(self, curve_11a2):
        assert not is_good_ordinary(curve_11a2, 11)

    def test_small_prime_rejected(self, curve_11a2):
        with pytest.raises(SmallPrime):
            is_good_ordinary(curve_11a2, 3)


class TestTorsionOverResidueField:
    def test_divisibility_logic(self, curve_11a3):
        # N_7(11a3) = 10 = 2 * 5, so 5-torsion appears over F_7 (f=1 residue degree)
        assert has_p_torsion_over(curve_11a3, ell=7, p=5, k=1)
        # but not 7-torsion over F_5 at degree 1: N_5 = 5
        assert not has_p_torsion_over(curve_11a3, ell=5, p=7, k=1)

    def test_equal_primes(self, curve_11a3):
        with pytest.raises(EqualPrimes):
            has_p_torsion_over(curve_11a3, ell=5, p=5, k=1)


class TestBadPrimes:
    def test_known_conductor_supports(self, corpus):
        assert bad_primes(corpus["11a2"].curve) == (11,)
        assert bad_primes(corpus["37a1"].curve) == (37,)
        assert bad_primes(corpus["15a1"].curve) == (3, 5)
        assert bad_primes(corpus["389a1"].curve) == (389,)


_SMALL_PRIMES = [ell for ell in trial_division_primes(99) if ell >= 5]
_coeff = st.integers(-50, 50)
_ainvs = st.tuples(_coeff, _coeff, _coeff, _coeff, _coeff)


def _good_curve(ainvs, ell):
    """The curve with these a-invariants; draws that are singular or have
    bad reduction at ell are skipped."""
    try:
        E = curve_from_ainvs(ainvs)
    except SingularCurve:
        assume(False)
    assume(E.disc % ell != 0)
    return E


class TestFrobeniusTrace:
    @settings(max_examples=150, deadline=None)
    @given(_ainvs, st.sampled_from(_SMALL_PRIMES))
    def test_matches_projective_enumeration(self, ainvs, ell):
        E = _good_curve(ainvs, ell)
        assert frobenius_trace(E, ell) == ell + 1 - brute_count_projective(ainvs, ell)

    @settings(max_examples=150, deadline=None)
    @given(_ainvs, st.integers(MESTRE_BOUND + 1, 10**5))
    def test_certificate_matches_character_sum(self, ainvs, start):
        ell = next(n for n in range(start, 2 * start) if is_prime(n))
        E = _good_curve(ainvs, ell)
        assert frobenius_trace(E, ell) == curve_mod._charsum_trace(E, ell)

    def test_certificate_decides_on_bundled_curves(self, corpus, monkeypatch):
        # Mestre's theorem promises a certificate above 229; none of these
        # pairs may fall back to the character sum.
        def no_fallback(E, ell):
            raise AssertionError(f"fallback sum reached for {E.label} at {ell}")

        monkeypatch.setattr(curve_mod, "_charsum_trace", no_fallback)
        ells = [ell for ell in trial_division_primes(20_000) if ell > MESTRE_BOUND]
        for entry in corpus.values():
            E = entry.curve
            for ell in ells:
                if E.disc % ell:
                    frobenius_trace(E, ell)
