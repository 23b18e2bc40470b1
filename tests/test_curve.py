from __future__ import annotations

from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    P73,
    brute_count_projective,
    brute_point_order,
    change_of_model,
    hasse_invariant_trace,
    short_affine_points,
    trial_division_primes,
)
from towerbounds import curve as curve_mod
from towerbounds.arith import BIT_BUDGET, is_prime
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
    LimitTooLarge,
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

    def test_valuation_edges_at_5(self, corpus):
        # 11a1 scaled by u = 5 has v_5(c4) = 4 and v_5(disc) = 12 exactly: both
        # tests fail by one, where c4 = 0 above fails at any valuation
        a1, a2, a3, a4, a6 = corpus["11a1"].curve.ainvs
        E = make_curve(5 * a1, 25 * a2, 125 * a3, 625 * a4, 5**6 * a6)
        assert E.c4 % 5**4 == 0 != E.c4 % 5**5 and E.disc % 5**12 == 0 != E.disc % 5**13
        assert not is_minimal_at(E, 5)
        # v_5(c4) = 4 and v_5(disc) = 10: the discriminant test passes
        assert is_minimal_at(make_curve(0, 0, 0, 5**4, 5**5), 5)

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

    @pytest.mark.parametrize("ainvs,ell", [((0, 0, 0, 0, 1), 2), ((0, 0, 0, 0, 1), 3),
                                           ((0, 0, 0, 1, 0), 2)])
    def test_bad_reduction_at_2_and_3(self, ainvs, ell):
        # y^2 = x^3 + 1 has disc -432 = -2^4 3^3, y^2 = x^3 + x disc -64
        with pytest.raises(BadReduction):
            count_points(make_curve(*ainvs), ell)

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

    @pytest.mark.parametrize("ell,k", [(11, 10**6), (P73, 137)])
    def test_budget_before_any_count(self, ell, k):
        # disc = -432 ell (ell + 4): counting first would raise BadReduction.
        # 73 * 137 = 10,001 bits is one past BIT_BUDGET
        E = make_curve(0, 0, 0, -3, 2 + ell)
        bits = k * ell.bit_length()
        with pytest.raises(LimitTooLarge, match=rf"F_{ell}\^{k} is {bits}, past BIT_BUDGET"):
            count_points_ext(E, ell, k)


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


_RESIDUE_AINVS = ((0, -1, 1, -10, -20), (0, -1, 1, 0, 0), (1, 1, 1, -10, -10),
                  (0, 0, 1, -1, 0), (0, 1, 1, -2, 0), (0, 0, 0, 0, 1))
_SMALL_PRIMES = [q for q in range(2, 200) if is_prime(q)]


class TestResidueTrace:
    """curve._trace_mod and has_p_torsion_over, which work on residues mod p,
    against the exact trace recurrence of _extend and count_points_ext."""

    @given(st.sampled_from(_RESIDUE_AINVS), st.sampled_from(_SMALL_PRIMES),
           st.sampled_from(_SMALL_PRIMES), st.integers(1, 12))
    @example((0, -1, 1, 0, 0), 31, 5, 4)  # the q2 witness of 11a3 in falsetate:31 at p = 5
    def test_q2_residue_matches_extend(self, ainvs, ell, p, f):
        E = make_curve(*ainvs)
        assume(E.disc % ell and ell != p)
        base = count_points(E, ell)
        ext = curve_mod._extend(base, f)
        s_f = curve_mod._trace_mod(base, f, p)
        assert s_f == ext.trace % p
        assert (pow(ell, f, p) + 1 - s_f) % p == ext.count % p
        if pow(ell, f, p) == 1:
            # the form tower._classify_at tests at f = ord_p(ell)
            assert ((2 - s_f) % p == 0) == (ext.count % p == 0)

    @given(st.sampled_from(_RESIDUE_AINVS), st.sampled_from(_SMALL_PRIMES),
           st.sampled_from(_SMALL_PRIMES[:6]), st.integers(1, 8))
    @example((0, -1, 1, 0, 0), 7, 5, 1)  # N_7 = 10: true
    @example((0, -1, 1, 0, 0), 3, 7, 6)  # N_{3^6} = 720: false
    def test_has_p_torsion_over_matches_exact_count(self, ainvs, ell, p, k):
        E = make_curve(*ainvs)
        assume(E.disc % ell and ell != p)
        assert has_p_torsion_over(E, ell, p, k) == (count_points_ext(E, ell, k).count % p == 0)

    def test_has_p_torsion_over_past_the_count_budget(self, curve_11a3):
        # k * bitlen(13) = 4 * 10^12 bits, far past the count budget: no count is
        # built.  13^k and the Frobenius matrix mod 7 have periods dividing
        # #GL_2(F_7) = 2016, so the answer is the one at k mod 2016, counted exactly.
        k = 10**12
        assert k * (13).bit_length() > BIT_BUDGET
        exact = count_points_ext(curve_11a3, 13, k % 2016).count
        assert has_p_torsion_over(curve_11a3, 13, 7, k) == (exact % 7 == 0)


class TestBadPrimes:
    def test_known_conductor_supports(self, corpus):
        assert bad_primes(corpus["11a2"].curve) == (11,)
        assert bad_primes(corpus["37a1"].curve) == (37,)
        assert bad_primes(corpus["15a1"].curve) == (3, 5)
        assert bad_primes(corpus["389a1"].curve) == (389,)


_SMALL_PRIMES = [ell for ell in trial_division_primes(99) if ell >= 5]
# the Hasse-invariant oracle's range: its lift is unique from 17 on
_ORACLE_PRIMES = [ell for ell in trial_division_primes(20_000) if ell >= 17]
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

    @settings(max_examples=200, deadline=None)
    @given(_ainvs, st.sampled_from(_ORACLE_PRIMES))
    @example((0, -1, 1, -10, -20), 19_997)  # 11a1 at the top of the range
    @example((0, 0, 0, 0, 1), 19_991)  # cm432 at a prime = 2 mod 3: a = 0
    def test_matches_hasse_invariant(self, ainvs, ell):
        # an oracle from another theorem, sharing no code with the library
        E = _good_curve(ainvs, ell)
        a = hasse_invariant_trace(ainvs, ell)
        assume(a is not None)  # ell | B
        assert frobenius_trace(E, ell) == a

    def test_certificate_decides_on_bundled_curves(self, corpus, monkeypatch):
        # Mestre's theorem promises a certificate above 229: no pair may reach
        # the character sum or the certificate's closing raise
        def no_charsum(E, ell):
            raise AssertionError(f"character sum reached for {E.label} at {ell}")

        monkeypatch.setattr(curve_mod, "_charsum_trace", no_charsum)
        ells = [ell for ell in trial_division_primes(20_000) if ell > MESTRE_BOUND]
        for entry in corpus.values():
            E = entry.curve
            for ell in ells:
                if E.disc % ell:
                    frobenius_trace(E, ell)


# at a prime dividing u the new model is not minimal: reduction_type must
# refuse it there, and no count is compared
_U = st.sampled_from([1, -1, 2, -3, 5, -6])
_SHIFT = st.integers(-30, 30)
_MODEL_PRIMES = trial_division_primes(300)


class TestChangeOfModel:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["11a1", "11a2", "11a3", "15a1", "37a1", "389a1", "5077a1", "cm432"]),
           _U, _SHIFT, _SHIFT, _SHIFT, st.integers(MESTRE_BOUND + 1, 10**6))
    def test_counts_and_reduction_types_kept(self, corpus, label, u, r, s, t, start):
        # every prime below 300 (each count path) and one certificate prime
        E = corpus[label].curve
        F = curve_from_ainvs(change_of_model(E.ainvs, u, r, s, t))
        assert (F.c4, F.c6, F.disc) == (u**4 * E.c4, u**6 * E.c6, u**12 * E.disc)
        big = next(n for n in range(start, 2 * start) if is_prime(n))
        for ell in _MODEL_PRIMES + [big]:
            if u % ell == 0:
                if ell >= 5:
                    with pytest.raises(NonMinimalModel):
                        reduction_type(F, ell)
                continue
            if ell >= 5:
                assert reduction_type(F, ell) is reduction_type(E, ell), ell
            if E.disc % ell:
                assert count_points(F, ell) == count_points(E, ell), ell


# y^2 = x^3 + x + 1 over F_401 has 432 = 2^4 * 3^3 points, so its point
# orders fall on both sides of every sweep length below
_A, _B, _ELL, _N = 1, 1, 401, 432


class TestOrderSweep:
    """Each exit of curve._order against brute-force point orders."""

    @pytest.fixture(scope="class")
    def orders(self):
        pts = short_affine_points(_A, _B, _ELL)
        assert len(pts) + 1 == _N
        return [(P, brute_point_order(P, _A, _ELL)) for P in pts]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_exit(self, orders, k):
        # the search range of N / k, as _certified_trace passes it for Q = k P
        w = isqrt(4 * _ELL)
        t_lo, t_hi = -(-(_ELL + 1 - w) // k), (_ELL + 1 + w) // k
        m = isqrt(t_hi - t_lo) + 1
        exits = set()
        for Q, r in orders:
            if (_N // k) % r:
                continue  # no multiple of ord(Q) is known to lie in range
            multiples = [t for t in range(t_lo, t_lo + m * m) if t % r == 0]
            if r <= m:
                exits.add("repeated baby step")
                want = r
            elif len(multiples) >= 2:
                exits.add("two hits")
                want = r
            else:
                exits.add("one hit")
                assert multiples == [_N // k]
                want = _N // k
            assert curve_mod._order(Q, t_lo, t_hi, _A, _ELL) == want
        assert exits == {"repeated baby step", "two hits", "one hit"}

    def test_plus_minus_exits(self, orders):
        # _order's +- sweep: baby steps 1..m + 1 keyed by x, then windows
        # t - m..t + m centred at the multiples t of 2m + 1 from
        # c (2m + 1), c = max(1, ceil((t_lo - m) / (2m + 1))), through the last
        # t <= t_hi + m; hits below t_lo are dropped
        exits = set()
        for k in (1, 2, 3, 6):
            w = isqrt(4 * _ELL)
            t_lo, t_hi = -(-(_ELL + 1 - w) // k), (_ELL + 1 + w) // k
            m = isqrt((t_hi - t_lo) // 2) + 1
            step = 2 * m + 1
            c = max(1, -(-(t_lo - m) // step))
            assert c * step - m <= max(t_lo, m + 1)
            end = (t_hi + m) // step * step + m
            for Q, r in orders:
                if (_N // k) % r:
                    continue
                if r == 2:
                    exits.add("y(Q) = 0")
                    want = r
                elif r <= step:
                    # r = j + k for the first x repeat; y(r/2 Q) = 0 when r is even
                    exits.add("y(jQ) = 0" if r % 2 == 0 else "x collision")
                    want = r
                else:
                    hits = [n for n in range(t_lo, end + 1) if n % r == 0][:2]
                    for n in hits:
                        t = (n + m) // step * step
                        if n < t:
                            exits.add("t - j")
                        elif n > t:
                            exits.add("t + j")
                        else:
                            exits.add("G = O")
                    exits.add("two hits" if len(hits) == 2 else "lone hit")
                    want = r if len(hits) == 2 else _N // k
                assert curve_mod._order(Q, t_lo, t_hi, _A, _ELL) == want, (Q, k)
        assert exits == {"y(Q) = 0", "y(jQ) = 0", "x collision", "t - j", "t + j",
                         "G = O", "two hits", "lone hit"}
        assert curve_mod._order(None, 390, 410, _A, _ELL) == 1


class TestCertificateRoots:
    @pytest.mark.parametrize("ell", [233, 239, 1009])
    def test_skips_x_with_f_zero(self, ell):
        # y^2 = x^3 - x has c6 = 0, so the short model's f(0) = 0 and the
        # certificate must skip x = 0
        E = make_curve(0, 0, 0, -1, 0)
        assert -54 * E.c6 % ell == 0
        assert frobenius_trace(E, ell) == curve_mod._charsum_trace(E, ell)
        if ell < 300:
            assert frobenius_trace(E, ell) == ell + 1 - brute_count_projective(E.ainvs, ell)


def _prime_from(n: int, residue_mod_3: int | None = None) -> int:
    """The least prime >= n, in the given class mod 3 if one is named."""
    while not is_prime(n) or (residue_mod_3 is not None and n % 3 != residue_mod_3):
        n += 1
    return n


# one prime near each of 10^13, 10^14, 10^15, each = 2 mod 3
_LARGE_PRIMES = (10_000_000_000_037, 100_000_000_000_031, 1_000_000_000_000_037)
_large_ell = st.integers(10**6, 10**12).map(_prime_from)


def _twist(E, d: int):
    """The quadratic twist by d, on the short model y^2 = x^3 - 27 c4 d^2 x - 54 c6 d^3."""
    return make_curve(0, 0, 0, -27 * E.c4 * d * d, -54 * E.c6 * d**3)


class TestKernelIdentities:
    """Identities that need no oracle, at ell far past the tier-1 oracles
    (Silverman, The Arithmetic of Elliptic Curves, V.2 and X.2)."""

    def check_isogeny_class(self, corpus, ell):
        traces = {count_points(corpus[label].curve, ell).trace
                  for label in ("11a1", "11a2", "11a3")}
        assert len(traces) == 1, (ell, traces)

    def check_twist(self, E, d, ell):
        chi = 1 if pow(d % ell, (ell - 1) // 2, ell) == 1 else -1
        assert count_points(_twist(E, d), ell).trace == chi * count_points(E, ell).trace

    def check_cm(self, corpus, ell):
        assert ell % 3 == 2
        assert count_points(corpus["cm432"].curve, ell).trace == 0

    def check_quadratic_extension(self, E, ell):
        a = count_points(E, ell).trace
        assert count_points_ext(E, ell, 2).count == (ell + 1) ** 2 - a * a

    @settings(max_examples=25, deadline=None)
    @given(_large_ell)
    def test_isogenous_curves_share_traces(self, corpus, ell):
        self.check_isogeny_class(corpus, ell)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["11a1", "15a1", "37a1", "389a1", "5077a1", "cm432"]),
           st.sampled_from([-1, 2, -3, 5, -6, 7]), _large_ell)
    def test_twist_flips_trace_by_legendre_symbol(self, corpus, label, d, ell):
        self.check_twist(corpus[label].curve, d, ell)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(10**6, 10**12))
    def test_cm_curve_supersingular_at_2_mod_3(self, corpus, n):
        self.check_cm(corpus, _prime_from(n, 2))

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["11a3", "37a1", "389a1", "cm432"]), _large_ell)
    def test_quadratic_extension_count(self, corpus, label, ell):
        self.check_quadratic_extension(corpus[label].curve, ell)

    @pytest.mark.parametrize("ell", _LARGE_PRIMES)
    def test_identities_near_10_to_15(self, corpus, ell):
        self.check_isogeny_class(corpus, ell)
        self.check_twist(corpus["37a1"].curve, -3, ell)
        self.check_quadratic_extension(corpus["389a1"].curve, ell)

    def test_cm_curve_near_10_to_13(self, corpus):
        # at 10^13 and 10^15 cm432's first certificate point has order 3, so
        # the multiples of the lcm in the Hasse interval are found in steps
        # of 3; the scan stops at the second hit, which comes at once
        for ell in _LARGE_PRIMES:
            self.check_cm(corpus, ell)
