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
    """Number of primes above ell at finite level: phi(p^level)/ord_{p^level}(ell).

    Past the stable level m >= 1 the order is f * p^(level - m), so from level
    m + 2 on this is splitting_infinite's g, cross-checked at m and m + 1."""
    _check_pair(ell, p)
    if arith.check_int(level, "level", 1) > 2:
        data = _splitting_infinite(ell, p)
        if level > data.stable_level + 1:
            return data.num_primes
    return _splitting_finite(ell, p, level)


def _splitting_finite(ell: int, p: int, level: int) -> int:
    # the private helpers take ell and p already checked
    return (p - 1) * p ** (level - 1) // arith.multiplicative_order(ell, p**level)


def splitting_infinite(ell: int, p: int) -> SplittingData:
    """Stable splitting data of ell in the p-cyclotomic tower.

    The result is cross-checked against splitting_finite at the stabilizing
    level and the next one; disagreement raises InternalInvariantViolation.
    """
    _check_pair(ell, p)
    return _splitting_infinite(ell, p)


def _splitting_infinite(ell: int, p: int) -> SplittingData:
    # m = v_p(ell^f - 1) >= 1 from residues mod p^(m + 1): f can be as large as p - 1
    f = arith.multiplicative_order(ell, p)
    m = 1
    while pow(ell, f, p ** (m + 1)) == 1:
        m += 1
    g = ((p - 1) // f) * p ** (m - 1)
    for level in (m, m + 1):
        if _splitting_finite(ell, p, level) != g:
            raise InternalInvariantViolation(
                f"splitting of {ell} in the {p}-tower not stable at level {level}"
            )
    return SplittingData(ell=ell, p=p, residue_order=f, stable_level=m, num_primes=g)
