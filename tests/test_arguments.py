"""The one rule for integer and prime arguments (arith.check_int and
arith.check_prime), at every public call site that takes one: a bool, a
float equal to a valid value and, where there is a lower bound, the value
just below it are each refused with a ValueError that repeats the value --
never a TypeError, and never a result built from a float."""

from __future__ import annotations

import re

import pytest

from towerbounds import arith, bounds, curve, cyclotomic, density, series, tower
from towerbounds.tower import QSets, TowerSpec

AINVS = (0, -1, 1, 0, 0)  # 11a3: good ordinary at 7, N_7 = 10
E = curve.make_curve(*AINVS)
ZPD = TowerSpec.zpd_composite(7, 2, assume_mhg=True)
TORSION = TowerSpec.torsion_field(7, assume_mhg=True)
BASE = bounds.BaseInvariants(0, 1, False, "test input")
CE = series.char_element(5, [1], [series.DistinguishedPoly(5, (5, 1))])


def _density_report(**fields):
    return density.DensityReport(**{"label": None, "p": 7, "limit": 100, "mode": "torsion",
                                    "total": 2, "hits": 1, **fields})


def _make_curve_at(i):
    return lambda v: curve.make_curve(*AINVS[:i], v, *AINVS[i + 1:])


# call site -> (call with the argument under test, a valid value, the lower
# bound or None); a prime argument's valid value is prime
CASES = {
    "arith.sieve_primes limit": (arith.sieve_primes, 100, 2),
    "arith.padic_valuation n": (lambda v: arith.padic_valuation(v, 7), 49, None),
    "arith.padic_valuation p": (lambda v: arith.padic_valuation(49, v), 7, 2),
    "arith.euler_phi n": (arith.euler_phi, 12, 1),
    "arith.is_prime n": (arith.is_prime, 7, None),
    "arith.factorize n": (arith.factorize, 12, None),
    "arith.multiplicative_order a": (lambda v: arith.multiplicative_order(v, 7), 3, None),
    "arith.multiplicative_order m": (lambda v: arith.multiplicative_order(3, v), 7, 2),
    "bounds.BaseInvariants mu0": (lambda v: bounds.BaseInvariants(v, 0, False, "t"), 1, 0),
    "bounds.BaseInvariants lambda0":
        (lambda v: bounds.BaseInvariants(0, v, False, "t"), 1, 0),
    "bounds.RamificationData level": (bounds.RamificationData, 1, 0),
    "bounds.hung_lim_bound n":
        (lambda v: bounds.hung_lim_bound(BASE, TORSION, QSets(0, 0), v), 1, 0),
    "bounds.growth_report n_max": (lambda v: bounds.growth_report(E, ZPD, BASE, v), 1, 0),
    **{f"curve.make_curve a{'12346'[i]}": (_make_curve_at(i), AINVS[i], None)
       for i in range(5)},
    "curve.is_minimal_at ell": (lambda v: curve.is_minimal_at(E, v), 7, 2),
    "curve.reduction_type ell": (lambda v: curve.reduction_type(E, v), 7, 2),
    "curve.count_points ell": (lambda v: curve.count_points(E, v), 7, 2),
    "curve.count_points_ext k": (lambda v: curve.count_points_ext(E, 7, v), 2, 1),
    "curve.is_good_ordinary p": (lambda v: curve.is_good_ordinary(E, v), 7, 2),
    "curve.has_p_torsion_over ell": (lambda v: curve.has_p_torsion_over(E, v, 7, 6), 3, 2),
    "curve.has_p_torsion_over p": (lambda v: curve.has_p_torsion_over(E, 3, v, 6), 7, 2),
    "curve.has_p_torsion_over k": (lambda v: curve.has_p_torsion_over(E, 3, 7, v), 6, 1),
    "curve.PointCount.validate ell": (lambda v: curve.PointCount(v, 1, 8, 0).validate(), 7, 2),
    "curve.PointCount.validate k": (lambda v: curve.PointCount(7, v, 8, 0).validate(), 1, 1),
    "curve.PointCount.validate count":
        (lambda v: curve.PointCount(7, 1, v, 0).validate(), 8, None),
    "curve.PointCount.validate trace":
        (lambda v: curve.PointCount(7, 1, 8, v).validate(), 0, None),
    "cyclotomic.splitting_infinite ell": (lambda v: cyclotomic.splitting_infinite(v, 7), 11, 2),
    "cyclotomic.splitting_infinite p": (lambda v: cyclotomic.splitting_infinite(11, v), 7, 5),
    "cyclotomic.splitting_finite ell":
        (lambda v: cyclotomic.splitting_finite(v, 7, 2), 11, 2),
    "cyclotomic.splitting_finite p": (lambda v: cyclotomic.splitting_finite(11, v, 2), 7, 5),
    "cyclotomic.splitting_finite level":
        (lambda v: cyclotomic.splitting_finite(11, 7, v), 2, 1),
    "density.scan limit": (lambda v: density.scan_torsion_density(E, 7, v), 100, 100),
    "density.scan workers":
        (lambda v: density.scan_torsion_density(E, 7, 100, workers=v), 1, 1),
    "density.scan p": (lambda v: density.scan_q_vanishing(E, v, 100), 7, 2),
    "density.DensityReport p": (lambda v: _density_report(p=v), 7, 2),
    "density.DensityReport limit": (lambda v: _density_report(limit=v), 100, 100),
    "density.DensityReport total": (lambda v: _density_report(total=v), 2, 1),
    "density.DensityReport hits": (lambda v: _density_report(hits=v), 1, 0),
    "series.PadicSeries p": (lambda v: series.PadicSeries(v, 2, (1,)), 5, 2),
    "series.PadicSeries prec": (lambda v: series.PadicSeries(5, v, (1,)), 2, 1),
    "series.DistinguishedPoly p": (lambda v: series.DistinguishedPoly(v, (5, 1)), 5, 2),
    "series.DistinguishedPoly coefficient":
        (lambda v: series.DistinguishedPoly(5, (v, 1)), 5, None),
    "series.DistinguishedPoly leading coefficient":
        (lambda v: series.DistinguishedPoly(5, (5, v)), 1, None),
    "series.CharacteristicElement p":
        (lambda v: series.CharacteristicElement(v, 0, ()), 5, 2),
    "series.CharacteristicElement mu":
        (lambda v: series.CharacteristicElement(5, v, ()), 1, 0),
    "series.char_element p": (lambda v: series.char_element(v, [1], []), 5, 2),
    "series.char_element multiplicity": (lambda v: series.char_element(5, [v], []), 1, 1),
    "series.expand_char_element prec": (lambda v: series.expand_char_element(CE, v, 3), 2, 1),
    "series.expand_char_element length":
        (lambda v: series.expand_char_element(CE, 2, v), 3, 1),
    "tower.TowerSpec p": (lambda v: TowerSpec.zpd_composite(v, 2), 7, 5),
    "tower.TowerSpec d": (lambda v: TowerSpec.zpd_composite(7, v), 2, 2),
    "tower.TowerSpec false-Tate ell": (lambda v: TowerSpec.false_tate(7, v), 11, 2),
    "tower.TowerSpec ramified prime": (lambda v: TowerSpec.generic(7, 3, [v]), 11, 2),
    "tower.cyc_layer_degree n": (lambda v: tower.cyc_layer_degree(ZPD, v), 1, 0),
    "tower.full_layer_degree n": (lambda v: tower.full_layer_degree(ZPD, v), 1, 0),
    "tower.QSets q1": (lambda v: QSets(v, 0, ((11, 1),)), 1, 0),
    "tower.QSets q2": (lambda v: QSets(0, v, (), ((11, 1),)), 1, 0),
    # an integer only: 1011 = 3 * 337 stands as a witness in the acceptance suite
    "tower.QSets witness prime": (lambda v: QSets(1, 0, ((v, 1),)), 1011, None),
    "tower.QSets witness count": (lambda v: QSets(1, 0, ((11, v),)), 1, 1),
}

REFUSED = [(name, bad) for name, (_, valid, lo) in sorted(CASES.items())
           for bad in (True, float(valid), *(() if lo is None else (lo - 1,)))]


@pytest.mark.parametrize("name", sorted(CASES))
def test_valid_value_accepted(name):
    call, valid, _ = CASES[name]
    call(valid)


@pytest.mark.parametrize("name,bad", REFUSED)
def test_refused_with_value_error(name, bad):
    call = CASES[name][0]
    with pytest.raises(ValueError, match=rf"must be (an integer|a prime)\b.*, got "
                                         rf"{re.escape(repr(bad))}$"):
        call(bad)


@pytest.mark.parametrize("value,lo,ok", [
    (7, None, True), (-7, None, True), (0, 0, True), (-1, 0, False), (True, None, False),
    (False, 0, False), (7.0, None, False), ("7", None, False), (None, 0, False),
])
def test_check_int(value, lo, ok):
    if ok:
        assert arith.check_int(value, "x", lo) is value
    else:
        with pytest.raises(ValueError, match=r"^x must be an integer"):
            arith.check_int(value, "x", lo)


def test_int_subclass_is_an_int():
    class Tagged(int):
        pass

    assert arith.check_prime(Tagged(7), "p", 5) == 7
    assert arith.check_int(Tagged(-3), "n") == -3


@pytest.mark.parametrize("value,lo,message", [
    (9, 2, "p must be a prime >= 2, got 9"),
    (2, 3, "p must be an integer >= 3, got 2"),
    (7.0, 2, "p must be an integer >= 2, got 7.0"),
])
def test_check_prime_message(value, lo, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        arith.check_prime(value, "p", lo)
