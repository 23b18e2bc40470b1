"""Splitting of rational primes in the cyclotomic p-tower.

For a prime ell != p, the number of primes above ell at finite level n
(the field of p^n-th roots of unity) is

    g_n = phi(p^n) / ord_{p^n}(ell).

Writing f = ord_p(ell) and m = v_p(ell^f - 1), the order mod p^n equals f
for n <= m and grows by a factor p per level afterwards, so g_n increases
up to level m and is constant from there on; the stable value

    g_inf = ((p - 1) / f) * p^(m - 1)

is the number of primes above ell all the way up the tower.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import arith
from .errors import EqualPrimes, InternalInvariantViolation


@dataclass(frozen=True)
class SplittingData:
    """Splitting of ell in the p-cyclotomic tower.

    residue_order   f = ord_p(ell), the residue degree at level 1
    stable_level    m = v_p(ell^f - 1), the level where splitting stabilizes
    num_primes      g_inf, the stable number of primes above ell
    """

    ell: int
    p: int
    residue_order: int
    stable_level: int
    num_primes: int


def _check_pair(ell: int, p: int) -> None:
    if arith.check_prime(ell, "ell") == arith.check_prime(p, "tower prime", 5):
        raise EqualPrimes(f"splitting needs ell != p, both were {p}")


def splitting_finite(ell: int, p: int, level: int) -> int:
    """Number of primes above ell at finite level n = level, phi(p^n)/ord_{p^n}(ell),
    read off splitting_infinite's certified data f and m:

        g_n = (p - 1) * p^(min(n, m) - 1) / f.

    The order of ell mod p^n is f for n <= m, since ell^f = 1 mod p^m; it is
    f p at n = m + 1 by the order certificate; and lifting the exponent
    (p >= 5) multiplies it by p at each later level, so it is f p^(n - m)
    past m."""
    _check_pair(ell, p)
    arith.check_int(level, "level", 1)
    data = _splitting_infinite(ell, p)
    return (p - 1) * p ** (min(level, data.stable_level) - 1) // data.residue_order


def splitting_infinite(ell: int, p: int) -> SplittingData:
    """Stable splitting data of ell in the p-cyclotomic tower.

    The result carries an order certificate, ell^(f p) = 1 mod p^(m + 1): with
    f = ord_p(ell) and ell^f != 1 mod p^(m + 1) it proves that ell has order f
    mod p^m and f p mod p^(m + 1), so g_m = g_(m + 1) = g_inf, and lifting the
    exponent (p >= 5) carries the order's growth by p to every later level.
    A failed certificate raises InternalInvariantViolation.
    """
    _check_pair(ell, p)
    return _splitting_infinite(ell, p)


def _splitting_infinite(ell: int, p: int) -> SplittingData:
    # m = v_p(ell^f - 1) >= 1 from residues mod p^(m + 1): f can be as large as p - 1
    f = arith.multiplicative_order(ell, p)
    m = 1
    while pow(ell, f, p ** (m + 1)) == 1:
        m += 1
    if pow(ell, f * p, p ** (m + 1)) != 1:
        raise InternalInvariantViolation(
            f"splitting of {ell} in the {p}-tower not stable at level {m + 1}"
        )
    g = ((p - 1) // f) * p ** (m - 1)
    return SplittingData(ell=ell, p=p, residue_order=f, stable_level=m, num_primes=g)
