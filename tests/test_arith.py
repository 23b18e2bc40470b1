from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_multiplicative_order,
    strong_probable_prime_all_bases,
    trial_division_primes,
)
from towerbounds import arith
from towerbounds.arith import (
    MR_CERTIFIED_BOUND,
    euler_phi,
    factorize,
    is_prime,
    multiplicative_order,
    padic_valuation,
    sieve_primes,
)
from towerbounds.errors import (
    DomainError,
    LimitTooLarge,
    NotCoprime,
    UncertifiedPrimality,
    ZeroInput,
)


class TestIsPrime:
    def test_small_values(self):
        primes_to_50 = set(trial_division_primes(50))
        for n in range(-5, 51):
            assert is_prime(n) == (n in primes_to_50), n

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911):
            assert not is_prime(n)

    def test_mersenne_primes(self):
        assert is_prime(2**31 - 1)
        assert is_prime(2**61 - 1)
        assert not is_prime(2**67 - 1)

    def test_strong_pseudoprime_to_base_2(self):
        assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7

    def test_large_inputs_rejected(self):
        with pytest.raises(ValueError):
            is_prime(MR_CERTIFIED_BOUND)
        with pytest.raises(ValueError):
            is_prime(10**25 + 9)

    def test_just_under_certified_bound(self):
        assert not is_prime(MR_CERTIFIED_BOUND - 1)  # even

    # bounds of the base tiers: each is a strong pseudoprime to the smaller set
    TIER_BOUNDS = (3_215_031_751, 341_550_071_728_321)

    def test_tier_bounds_are_composite(self):
        assert 3_215_031_751 == 151 * 751 * 28351
        assert not is_prime(341_550_071_728_321)
        assert 341_550_071_728_321 % 10_670_053 == 0

    def test_primes_next_to_tier_bounds(self):
        for below, bound, above in ((3_215_031_749, 3_215_031_751, 3_215_031_767),
                                    (341_550_071_728_289, 341_550_071_728_321,
                                     341_550_071_728_361)):
            assert is_prime(below) and is_prime(above)
            assert [n for n in range(below, above + 1) if is_prime(n)] == [below, above]
            assert strong_probable_prime_all_bases(below)
            assert strong_probable_prime_all_bases(above)
            assert below < bound < above

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(TIER_BOUNDS), st.integers(-10**6, 10**6))
    def test_tiers_agree_with_all_bases(self, bound, offset):
        n = (bound + offset) | 1
        assert is_prime(n) == strong_probable_prime_all_bases(n)


class TestSievePrimes:
    def test_against_trial_division(self):
        limit = 1000
        assert list(sieve_primes(limit).primes) == trial_division_primes(limit)

    def test_prime_counts(self):
        assert len(sieve_primes(10**4).primes) == 1229
        assert len(sieve_primes(10**6).primes) == 78498

    def test_small_limits(self):
        with pytest.raises(ValueError):
            sieve_primes(1)
        assert list(sieve_primes(2).primes) == [2]

    def test_budget(self):
        with pytest.raises(LimitTooLarge,
                           match="sieve limit is 1000000000, past SIEVE_BUDGET = 100000000"):
            sieve_primes(10**9)
        assert sieve_primes(10**6).limit == 10**6

    def test_budget_edge(self, monkeypatch):
        # a limit equal to the budget is sieved, one past it is refused
        monkeypatch.setattr(arith, "SIEVE_BUDGET", 100)
        assert len(sieve_primes(100).primes) == 25
        with pytest.raises(LimitTooLarge, match="sieve limit is 101, past SIEVE_BUDGET = 100"):
            sieve_primes(101)

    def test_records_limit(self):
        pr = sieve_primes(100)
        assert pr.limit == 100
        assert pr.primes[-1] == 97


class TestPadicValuation:
    def test_basic(self):
        assert padic_valuation(7**3 * 5, 7) == 3
        assert padic_valuation(5, 7) == 0
        assert padic_valuation(-49, 7) == 2
        assert padic_valuation(1, 2) == 0

    def test_zero_input(self):
        with pytest.raises(ZeroInput):
            padic_valuation(0, 5)

    def test_exact_power(self):
        for k in range(1, 20):
            assert padic_valuation(3**k, 3) == k


class TestFactorize:
    def test_small(self):
        assert factorize(1) == {}
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(97) == {97: 1}

    def test_reconstruction(self):
        for n in (2**10, 3 * 5 * 7 * 11 * 13, 104729, 2**20 - 1, 600851475143):
            f = factorize(n)
            prod = 1
            for q, e in f.items():
                assert is_prime(q)
                prod *= q**e
            assert prod == n

    def test_semiprime(self):
        q1, q2 = 1000003, 1000033
        assert factorize(q1 * q2) == {q1: 1, q2: 1}

    def test_perfect_square_cofactor(self):
        # 10007 and 10009 lie past trial division, so rho is handed squares
        assert factorize(10007**2) == {10007: 2}
        assert factorize(3 * 10007**2 * 10009**2) == {3: 1, 10007: 2, 10009: 2}

    def test_rejects_zero(self):
        with pytest.raises(ZeroInput):
            factorize(0)

    def test_negative_input_uses_absolute_value(self):
        assert factorize(-12) == {2: 2, 3: 1}

    def test_cofactor_past_certified_bound(self):
        m89 = 2**89 - 1  # a Mersenne prime, above the bound
        assert m89 > MR_CERTIFIED_BOUND
        assert issubclass(UncertifiedPrimality, DomainError)
        for n in (m89, -6 * m89):
            with pytest.raises(UncertifiedPrimality):
                factorize(n)

    def test_cofactor_at_certified_bound(self):
        # the bound is a composite with no factor below 10,000: a cofactor
        # equal to it is refused by name, not by is_prime's ValueError
        with pytest.raises(UncertifiedPrimality, match="past the certified primality bound"):
            factorize(MR_CERTIFIED_BOUND)


class TestEulerPhi:
    def test_brute_force(self):
        import math

        for n in range(1, 200):
            assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    def test_prime_power(self):
        assert euler_phi(7**4) == 7**4 - 7**3


class TestMultiplicativeOrder:
    def test_against_brute_force(self):
        for m in (7, 9, 11, 25, 49, 121, 343):
            for a in range(2, m):
                import math

                if math.gcd(a, m) != 1:
                    continue
                assert multiplicative_order(a, m) == brute_multiplicative_order(a, m)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            multiplicative_order(10, 25)

    def test_known_values(self):
        assert multiplicative_order(11, 7) == 3
        assert multiplicative_order(2, 7) == 3
        assert multiplicative_order(3, 7) == 6
