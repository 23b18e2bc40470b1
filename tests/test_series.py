from __future__ import annotations

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import random_distinguished, random_unit_series, schoolbook_product
from towerbounds.arith import padic_valuation
from towerbounds.errors import (
    InsufficientCoeffPrecision,
    LengthTooShort,
    PrimeMismatch,
)
from towerbounds.series import (
    CharacteristicElement,
    DistinguishedPoly,
    IwasawaInvariants,
    PadicSeries,
    char_element,
    expand_char_element,
    series_from_text,
    series_multiply,
    series_to_text,
    weierstrass_prepare,
)


class TestPadicSeries:
    def test_residues_validated(self):
        with pytest.raises(ValueError):
            PadicSeries(p=5, prec=2, coeffs=(25,))
        with pytest.raises(ValueError):
            PadicSeries(p=5, prec=2, coeffs=(-1,))

    def test_first_offending_coefficient_named(self):
        for coeffs, i in (((25, "x"), 0), ((3, True), 1), ((3, -1, 99), 1), ((1, 2, 25), 2)):
            with pytest.raises(ValueError, match=f"^coefficient {i} = "):
                PadicSeries(p=5, prec=2, coeffs=coeffs)

    def test_int_subclass_accepted(self):
        class Residue(int):
            pass

        assert PadicSeries(p=5, prec=2, coeffs=(Residue(24), 0)).coeffs == (24, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PadicSeries(p=5, prec=2, coeffs=())

    def test_prec_positive(self):
        with pytest.raises(ValueError):
            PadicSeries(p=5, prec=0, coeffs=(1,))


class TestDistinguishedPoly:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty coefficient list"):
            DistinguishedPoly(5, ())

    def test_monic_required(self):
        with pytest.raises(ValueError):
            DistinguishedPoly(p=5, coeffs=(5, 2))

    def test_lower_coeffs_divisible(self):
        with pytest.raises(ValueError):
            DistinguishedPoly(p=5, coeffs=(3, 1))

    def test_constant_one_allowed(self):
        assert DistinguishedPoly(p=5, coeffs=(1,)).degree == 0

    def test_degree(self):
        assert DistinguishedPoly(p=5, coeffs=(5, 10, 1)).degree == 2


class TestCharElement:
    def test_lambda_is_total_degree(self):
        f1 = DistinguishedPoly(p=5, coeffs=(5, 1))
        f2 = DistinguishedPoly(p=5, coeffs=(10, 5, 1))
        ce = char_element(5, [2], [f1, f2])
        assert ce.mu == 2
        assert ce.lam == 3

    def test_mu_sums(self):
        ce = char_element(7, [1, 2], [])
        assert ce.mu == 3
        assert ce.lam == 0

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            char_element(7, [1, 0], [])

    def test_prime_mismatch(self):
        f = DistinguishedPoly(p=5, coeffs=(5, 1))
        with pytest.raises(PrimeMismatch):
            char_element(7, [], [f])


class TestSeriesMultiply:
    def test_truncates_to_shorter(self):
        a = PadicSeries(p=5, prec=2, coeffs=(1, 2, 3))
        b = PadicSeries(p=5, prec=2, coeffs=(4, 5))
        c = series_multiply(a, b)
        assert len(c.coeffs) == 2
        assert c.coeffs == (4, 13)

    def test_modular_reduction(self):
        a = PadicSeries(p=5, prec=1, coeffs=(3, 4))
        b = PadicSeries(p=5, prec=1, coeffs=(4, 4))
        c = series_multiply(a, b)
        assert c.coeffs == ((12) % 5, (3 * 4 + 4 * 4) % 5)

    def test_coarser_precision_wins(self):
        a = PadicSeries(p=5, prec=2, coeffs=(24,))
        b = PadicSeries(p=5, prec=3, coeffs=(24,))
        c = series_multiply(a, b)
        assert c.prec == 2
        assert c.coeffs == (24 * 24 % 25,)

    def test_prime_mismatch(self):
        a = PadicSeries(p=5, prec=2, coeffs=(1,))
        b = PadicSeries(p=7, prec=2, coeffs=(1,))
        with pytest.raises(PrimeMismatch):
            series_multiply(a, b)


# Differential tests: the Kronecker products against the schoolbook oracle.

@st.composite
def residue_lists(draw, pm, min_size=1, max_size=24):
    """Residues mod pm in runs: zeros, pm - 1 (the largest slot value) and
    arbitrary residues."""
    out = []
    size = draw(st.integers(min_size, max_size))
    while len(out) < size:
        value = draw(st.one_of(st.just(0), st.just(pm - 1), st.integers(0, pm - 1)))
        out += [value] * draw(st.integers(1, 6))
    return tuple(out[:size])


@st.composite
def series_pairs(draw, max_size=24):
    p = draw(st.sampled_from((2, 3, 5, 7, 11)))
    f_prec, g_prec = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    f = PadicSeries(p, f_prec, draw(residue_lists(p**f_prec, max_size=max_size)))
    g = PadicSeries(p, g_prec, draw(residue_lists(p**g_prec, max_size=max_size)))
    return f, g


def _oracle_multiply(f, g):
    prec = min(f.prec, g.prec)
    n = min(f.length, g.length)
    pm = f.p**prec
    return prec, tuple(c % pm for c in schoolbook_product(f.coeffs, g.coeffs, n))


class TestProductAgainstSchoolbook:
    @given(series_pairs())
    @example((PadicSeries(5, 3, (7,)), PadicSeries(5, 2, (24, 3))))
    def test_series_multiply(self, pair):
        f, g = pair
        h = series_multiply(f, g)
        assert (h.prec, h.coeffs) == _oracle_multiply(f, g)

    @given(series_pairs(max_size=1))
    def test_length_one(self, pair):
        f, g = pair
        h = series_multiply(f, g)
        assert h.length == 1
        assert (h.prec, h.coeffs) == _oracle_multiply(f, g)

    @given(st.sampled_from((2, 3, 5, 7, 11)), st.integers(1, 40),
           st.integers(1, 40), st.integers(1, 40))
    def test_every_coefficient_at_slot_boundary(self, p, prec, n_f, n_g):
        # every coefficient is p^M - 1, so coefficient n - 1 of the product
        # is n (p^M - 1)^2, the largest value a slot must hold
        top = p**prec - 1
        f, g = PadicSeries(p, prec, (top,) * n_f), PadicSeries(p, prec, (top,) * n_g)
        assert series_multiply(f, g).coeffs == _oracle_multiply(f, g)[1]

    @given(st.data())
    def test_expand_char_element(self, data):
        p = data.draw(st.sampled_from((2, 3, 5, 7)))
        # lower coefficients are multiples of p of either sign
        lowers = st.lists(st.integers(-p**6, p**6).map(lambda k: p * k), max_size=4)
        factors = [DistinguishedPoly(p, tuple(c) + (1,))
                   for c in data.draw(st.lists(lowers, max_size=3))]
        mu_list = data.draw(st.lists(st.integers(1, 3), max_size=2))
        ce = char_element(p, mu_list, factors)
        prec = data.draw(st.integers(1, 30))
        length = data.draw(st.integers(ce.lam + 1, ce.lam + 8))
        poly = [1]
        for fac in factors:
            poly = schoolbook_product(poly, fac.coeffs, len(poly) + fac.degree)
        pm = p**prec
        want = [p**ce.mu * c % pm for c in poly[:length]]
        want += [0] * (length - len(want))
        f = expand_char_element(ce, prec, length)
        assert (f.p, f.prec, f.coeffs) == (p, prec, tuple(want))


class TestWeierstrassPrepare:
    def test_documented_example(self):
        s = PadicSeries(p=5, prec=3, coeffs=(5, 10, 1, 0))
        inv, unit_checked = weierstrass_prepare(s)
        assert inv == IwasawaInvariants(mu=0, lam=2)
        assert unit_checked

    def test_pure_mu(self):
        s = PadicSeries(p=5, prec=3, coeffs=(50, 75, 100))
        inv, _ = weierstrass_prepare(s)
        assert inv.mu == 2
        assert inv.lam == 0

    @given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 6), st.data())
    def test_least_valuation_and_its_first_index(self, p, prec, data):
        coeffs = data.draw(st.lists(st.integers(0, p**prec - 1), min_size=1, max_size=12))
        vals = [prec if c == 0 else padic_valuation(c, p) for c in coeffs]
        s = PadicSeries(p=p, prec=prec, coeffs=tuple(coeffs))
        if min(vals) == prec:
            with pytest.raises(InsufficientCoeffPrecision):
                weierstrass_prepare(s)
        else:
            inv, _ = weierstrass_prepare(s)
            assert (inv.mu, inv.lam) == (min(vals), vals.index(min(vals)))

    def test_all_zero_is_precision_error(self):
        s = PadicSeries(p=5, prec=2, coeffs=(0, 0, 0))
        with pytest.raises(InsufficientCoeffPrecision):
            weierstrass_prepare(s)

    def test_unit_series(self):
        s = PadicSeries(p=7, prec=2, coeffs=(3, 14, 0))
        inv, _ = weierstrass_prepare(s)
        assert inv == IwasawaInvariants(mu=0, lam=0)

    def test_lambda_at_end(self):
        # minimum valuation attained only at the last coefficient
        s = PadicSeries(p=5, prec=2, coeffs=(5, 10, 20, 1))
        inv, unit_checked = weierstrass_prepare(s)
        assert inv == IwasawaInvariants(mu=0, lam=3)
        assert unit_checked


class TestExpandRoundTrip:
    def test_expand_then_prepare_round_trip(self):
        rng = random.Random(20260818)
        for _ in range(200):
            p = rng.choice((5, 7))
            mu = rng.randint(0, 2)
            polys = [random_distinguished(rng, p) for _ in range(rng.randint(0, 2))]
            ce = char_element(p, [mu] if mu else [], polys)
            prec = rng.randint(1, 4)
            length = rng.randint(1, 8)
            if length <= ce.lam:
                with pytest.raises(LengthTooShort):
                    expand_char_element(ce, prec, length)
            elif prec <= ce.mu:
                with pytest.raises(InsufficientCoeffPrecision):
                    weierstrass_prepare(expand_char_element(ce, prec, length))
            else:
                inv, _ = weierstrass_prepare(expand_char_element(ce, prec, length))
                assert inv == IwasawaInvariants(mu=ce.mu, lam=ce.lam)

    def test_unit_multiple_does_not_change_invariants(self):
        rng = random.Random(99)
        for _ in range(50):
            p = rng.choice((5, 7))
            mu = rng.randint(0, 1)
            ce = char_element(p, [mu] if mu else [], [random_distinguished(rng, p, 2)])
            prec, length = ce.mu + 2, ce.lam + 4
            base = expand_char_element(ce, prec, length)
            u = random_unit_series(rng, p, prec, length)
            inv, _ = weierstrass_prepare(series_multiply(base, u))
            assert inv == IwasawaInvariants(mu=ce.mu, lam=ce.lam)


class TestTextFormat:
    def test_round_trip(self):
        s = PadicSeries(p=5, prec=3, coeffs=(5, 10, 1, 0))
        assert series_from_text(series_to_text(s)) == s

    def test_documented_format(self):
        s = series_from_text("5 3 4 : 5 10 1 0")
        assert s.p == 5 and s.prec == 3 and s.coeffs == (5, 10, 1, 0)

    def test_malformed(self):
        for text in ("5 3 : 1", "5 3 2 1 2", "5 3 2 : 1", "x 3 1 : 1"):
            with pytest.raises(ValueError):
                series_from_text(text)

    def test_wrong_coeff_count(self):
        with pytest.raises(ValueError):
            series_from_text("5 3 4 : 5 10 1")


class TestCharacteristicElementValidation:
    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            CharacteristicElement(p=5, mu=-1, factors=())

    def test_lam_computed(self):
        f = DistinguishedPoly(p=5, coeffs=(5, 0, 1))
        ce = CharacteristicElement(p=5, mu=0, factors=(f,))
        assert ce.lam == 2
