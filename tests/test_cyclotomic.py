from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import brute_multiplicative_order
from towerbounds.arith import euler_phi, is_prime, multiplicative_order, padic_valuation
from towerbounds import cyclotomic
from towerbounds.cyclotomic import splitting_finite, splitting_infinite
from towerbounds.errors import EqualPrimes, InternalInvariantViolation

_PRIMES = [q for q in range(2, 3000) if is_prime(q)]


class TestSplittingFinite:
    def test_matches_order_formula(self):
        for p in (5, 7):
            for ell in (2, 3, 11, 13, 29, 31):
                if ell == p:
                    continue
                for n in (1, 2, 3):
                    g = splitting_finite(ell, p, n)
                    assert g == euler_phi(p**n) // brute_multiplicative_order(ell, p**n)

    @given(st.sampled_from(_PRIMES), st.sampled_from([q for q in _PRIMES[2:] if q < 60]))
    @example(7, 5)    # m = 2
    @example(3, 11)   # m = 2
    @example(101, 5)  # f = 1, m = 2
    @example(251, 5)  # m = 3
    def test_below_at_and_above_stable_level(self, ell, p):
        if ell == p:
            return
        m = splitting_infinite(ell, p).stable_level
        for n in range(1, m + 3):
            want = euler_phi(p**n) // brute_multiplicative_order(ell, p**n)
            assert splitting_finite(ell, p, n) == want

    def test_known_value(self):
        # 11 has order 3 mod 7, so x^7-1 style splitting gives (7-1)/3 = 2 primes
        assert splitting_finite(11, 7, 1) == 2

    def test_divides_group_order(self):
        for n in (1, 2, 3):
            g = splitting_finite(3, 5, n)
            assert euler_phi(5**n) % g == 0

    def test_equal_primes_rejected(self):
        with pytest.raises(EqualPrimes):
            splitting_finite(7, 7, 1)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            splitting_finite(11, 7, 0)


class TestSplittingInfinite:
    @given(st.sampled_from(_PRIMES), st.sampled_from([q for q in _PRIMES[2:] if q < 60]))
    @example(7, 5)    # 7^4 - 1 = 2400 = 5^2 * 96: m = 2
    @example(3, 11)   # 3^5 - 1 = 242 = 2 * 11^2: m = 2
    @example(251, 5)  # 251 - 1 = 2 * 5^3: m = 3
    def test_stable_level_is_valuation_of_ell_f_minus_1(self, ell, p):
        if ell == p:
            return
        f = multiplicative_order(ell, p)
        assert splitting_infinite(ell, p).stable_level == padic_valuation(ell**f - 1, p)

    @given(st.sampled_from(_PRIMES), st.sampled_from([q for q in _PRIMES[2:] if q < 60]))
    @example(7, 5)
    @example(251, 5)
    def test_stable_count_matches_order_formula(self, ell, p):
        # the order certificate's claim, recomputed: g_n = phi(p^n) / ord_{p^n}(ell)
        # equals g_inf at levels m, m + 1 and m + 2
        if ell == p:
            return
        data = splitting_infinite(ell, p)
        m = data.stable_level
        for n in (m, m + 1, m + 2):
            assert euler_phi(p**n) // multiplicative_order(ell, p**n) == data.num_primes

    def test_failed_certificate_raises(self, monkeypatch):
        # 11 has order f = 3 mod 7 and m = 1; a wrong 11^(3 * 7) mod 49 is reported
        real_pow = pow
        monkeypatch.setattr(cyclotomic, "pow", lambda b, e, m: 2 if e == 21 else real_pow(b, e, m),
                            raising=False)
        with pytest.raises(InternalInvariantViolation, match="not stable at level 2"):
            splitting_infinite(11, 7)

    def test_known_case(self):
        data = splitting_infinite(11, 7)
        assert data.residue_order == 3
        assert data.stable_level == 1
        assert data.num_primes == 2

    def test_stabilization(self):
        for ell, p in ((11, 7), (3, 5), (2, 7), (31, 5), (101, 5)):
            data = splitting_infinite(ell, p)
            m = data.stable_level
            stable = splitting_finite(ell, p, m)
            assert data.num_primes == stable
            for n in range(m, m + 3):
                assert splitting_finite(ell, p, n) == stable

    def test_growth_below_stable_level(self):
        # 101 = 1 + 4 * 25 is 1 mod 25 but not 1 mod 125, so splitting keeps
        # growing until level 2 and freezes there
        assert (101 - 1) % 25 == 0 and (101 - 1) % 125 != 0
        data = splitting_infinite(101, 5)
        assert data.residue_order == 1
        assert data.stable_level == 2
        assert data.num_primes == (5 - 1) * 5 ** (2 - 1)
        assert splitting_finite(101, 5, 1) < data.num_primes

    def test_totally_split_first_layer(self):
        # ell ≡ 1 (mod p), ell ≢ 1 (mod p^2): f = 1, m = 1
        data = splitting_infinite(29, 7)
        assert data.residue_order == 1
        assert data.stable_level == 1
        assert data.num_primes == 6

    def test_primitive_root_case(self):
        # 3 is a primitive root mod 5 and mod 25: f = 4, g = 1
        data = splitting_infinite(3, 5)
        assert data.residue_order == 4
        assert data.num_primes == 1

    def test_fields_carried_through(self):
        data = splitting_infinite(2, 7)
        assert data.ell == 2
        assert data.p == 7

    def test_equal_primes_rejected(self):
        with pytest.raises(EqualPrimes):
            splitting_infinite(5, 5)
