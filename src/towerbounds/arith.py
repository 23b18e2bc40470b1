"""Exact integer and modular arithmetic primitives.

Everything works on arbitrary-precision Python integers; nothing here ever
goes through floating point.  All functions are pure, so they are safe to
call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .errors import LimitTooLarge, NotCoprime, UncertifiedPrimality, ZeroInput

# Every size limit of the package, one per row of README's table of limits.
# Deterministic Miller-Rabin witness set, certified for all n below this
# bound (Sorenson & Webster).  Desk-scale inputs stay far under it.
MR_CERTIFIED_BOUND = 3_317_044_064_679_887_385_961_981
#: k * bitlen(ell) for #E(F_{ell^k}) and e * bitlen(p) for a layer degree p^e:
#: at most 3,011 digits, under CPython's default int-to-str limit of 4,300
BIT_BUDGET = 10_000
#: bit length of mu0, lambda0 and a Kida count, so that a sum of 2^280 terms
#: each under 2^(BIT_BUDGET + 4,001) stays under 2^14,281 < 10^4,300 and prints
BASE_BIT_BUDGET = 4_000
#: sieve limit; the sieve array takes one byte per integer
SIEVE_BUDGET = 10**8
#: deepest level of a growth report or a Kida count
LEVEL_CAP = 12

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (bound, bases proving every n < bound); each bound is a strong pseudoprime to
# its bases, so the comparison must stay strict
_MR_TIERS = ((3_215_031_751, _MR_BASES[:4]), (341_550_071_728_321, _MR_BASES[:7]),
             (MR_CERTIFIED_BOUND, _MR_BASES))


def check_int(value, what: str, lo: int | None = None) -> int:
    """``value`` when it is an int >= ``lo``, else a ValueError naming ``what``.
    An int subclass is an int here; a bool is not, nor is any float."""
    if not isinstance(value, int) or isinstance(value, bool) or lo is not None and value < lo:
        bound = "" if lo is None else f" >= {lo}"
        raise ValueError(f"{what} must be an integer{bound}, got {value!r}")
    return value


def check_prime(value, what: str, lo: int = 2) -> int:
    """``value`` when check_int accepts it with bound ``lo`` and it is prime."""
    if not _is_prime(check_int(value, what, lo)):
        raise ValueError(f"{what} must be a prime >= {lo}, got {value!r}")
    return value


def check_budget(name: str, size: int, asked: str) -> None:
    """LimitTooLarge when ``size``, which ``asked`` names, exceeds the budget ``name``."""
    budget = globals()[name]
    if size > budget:
        raise LimitTooLarge(f"{asked} is {size}, past {name} = {budget}")


def check_level(n, what: str) -> int:
    """``n`` when check_int(n, what, 0) accepts it and n <= LEVEL_CAP."""
    if check_int(n, what, 0) > LEVEL_CAP:
        raise ValueError(f"{what} is {n}, past LEVEL_CAP = {LEVEL_CAP}")
    return n


def is_prime(n: int) -> bool:
    """Deterministic primality test for ``n`` < 3.3e24: Miller-Rabin to bases
    2, 3, 5, 7 below 3,215,031,751 (Pomerance, Selfridge and Wagstaff, Math.
    Comp. 35, 1980), 2..17 below 341,550,071,728,321 (Jaeschke, Math. Comp. 61,
    1993) and the primes to 41 below MR_CERTIFIED_BOUND (Sorenson and Webster,
    Math. Comp. 86, 2017)."""
    return _is_prime(check_int(n, "primality argument"))


def _is_prime(n: int) -> bool:
    # n is an int; check_prime and factorize call this without a second check
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= MR_CERTIFIED_BOUND:
        raise ValueError(
            f"primality only certified below {MR_CERTIFIED_BOUND}; got {n}"
        )
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in next(bases for bound, bases in _MR_TIERS if n < bound):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeRange:
    """All primes up to ``limit``, inclusive, in increasing order."""

    limit: int
    primes: tuple[int, ...]


def sieve_primes(limit: int) -> PrimeRange:
    """Eratosthenes sieve of [2, limit].  LimitTooLarge past SIEVE_BUDGET."""
    check_budget("SIEVE_BUDGET", check_int(limit, "sieve limit", 2), "sieve limit")
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return PrimeRange(limit, tuple(i for i in range(limit + 1) if flags[i]))


def padic_valuation(n: int, p: int) -> int:
    """Largest v with p^v | n.  Undefined (ZeroInput) for n = 0."""
    if check_int(n, "valuation argument") == 0:
        raise ZeroInput("valuation of 0 is undefined")
    check_prime(p, "valuation base")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite, odd, non-prime-power n (Brent's cycle
    finding).  Deterministic: increments are tried in a fixed order."""
    for c in range(1, n):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")  # pragma: no cover


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}.  n must be nonzero; a
    cofactor past MR_CERTIFIED_BOUND raises UncertifiedPrimality."""
    if check_int(n, "factorization argument") == 0:
        raise ZeroInput("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # trial division by each odd f from 53 below 10^4 (while f^2 <= n), then rho on the rest
    f = 53
    while f * f <= n and f < 10_000:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m >= MR_CERTIFIED_BOUND:
            raise UncertifiedPrimality(f"cofactor {m} is past the certified primality bound")
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = isqrt(m)
        if r * r == m:
            stack.extend((r, r))
            continue
        d = _pollard_rho(m)
        stack.extend((d, m // d))
    return dict(sorted(out.items()))


def euler_phi(n: int) -> int:
    """Euler's totient, via factorization."""
    check_int(n, "totient argument", 1)
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def multiplicative_order(a: int, m: int) -> int:
    """Least k >= 1 with a^k = 1 mod m.  Raises NotCoprime when gcd(a,m) > 1."""
    a = check_int(a, "base") % check_int(m, "modulus", 2)
    if gcd(a, m) != 1:
        raise NotCoprime(f"gcd({a}, {m}) != 1")
    order = euler_phi(m)
    for q in factorize(order):
        while order % q == 0 and pow(a, order // q, m) == 1:
            order //= q
    return order
