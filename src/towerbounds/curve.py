"""Weierstrass models over Q: invariants, reduction types, point counts.

A curve is given by long Weierstrass coefficients (a1, a2, a3, a4, a6) for

    y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6

with the classical derived quantities

    b2 = a1^2 + 4*a2            b4 = 2*a4 + a1*a3
    b6 = a3^2 + 4*a6            b8 = a1^2*a6 + 4*a2*a6 - a1*a3*a4 + a2*a3^2 - a4^2
    c4 = b2^2 - 24*b4           c6 = -b2^3 + 36*b2*b4 - 216*b6
    disc = -b2^2*b8 - 8*b4^3 - 27*b6^2 + 9*b2*b4*b6

satisfying 1728*disc = c4^3 - c6^2 and 4*b8 = b2*b6 - b4^2.

Reduction classification at a prime ell >= 5 assumes the model is minimal at
ell; a sufficient minimality check (v_ell(disc) < 12 or v_ell(c4) < 4) is
enforced.  Classification below 5 needs Tate's algorithm and is out of scope.

Point counts at ell >= 5 come from one kernel, frobenius_trace: above
ell = 229 a baby-step giant-step count that carries Mestre's certificate,
O(ell^(1/4)) group operations per prime; at or below 229, or should the
certificate stay undecided, a character sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import isqrt

import numpy  # noqa: F401  -- unused; bench/layers.py times this import

from . import arith
from .errors import (
    BadReduction,
    EqualPrimes,
    InternalInvariantViolation,
    NonMinimalModel,
    SingularCurve,
    SmallPrime,
)


class ReductionType(Enum):
    GOOD = "good"
    SPLIT_MULTIPLICATIVE = "split_multiplicative"
    NONSPLIT_MULTIPLICATIVE = "nonsplit_multiplicative"
    ADDITIVE = "additive"


@dataclass(frozen=True)
class WeierstrassCurve:
    """An integral long Weierstrass model with precomputed invariants."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    b2: int
    b4: int
    b6: int
    b8: int
    c4: int
    c6: int
    disc: int
    label: str | None = None

    @property
    def ainvs(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def validate(self) -> None:
        """Recompute every derived invariant and check the two identities."""
        other = make_curve(*self.ainvs, label=self.label)
        for f in ("b2", "b4", "b6", "b8", "c4", "c6", "disc"):
            if getattr(self, f) != getattr(other, f):
                raise InternalInvariantViolation(f"stored {f} disagrees")
        if 1728 * self.disc != self.c4**3 - self.c6**2:
            raise InternalInvariantViolation("1728*disc != c4^3 - c6^2")
        if 4 * self.b8 != self.b2 * self.b6 - self.b4**2:
            raise InternalInvariantViolation("4*b8 != b2*b6 - b4^2")


@dataclass(frozen=True)
class PointCount:
    """#E(F_{ell^k}) together with the Frobenius trace ell^k + 1 - count."""

    ell: int
    k: int
    count: int
    trace: int

    def validate(self) -> None:
        if self.count != self.ell**self.k + 1 - self.trace:
            raise InternalInvariantViolation("count/trace mismatch")
        if self.trace**2 > 4 * self.ell**self.k:
            raise InternalInvariantViolation("Hasse bound violated")


def make_curve(a1: int, a2: int, a3: int, a4: int, a6: int,
               label: str | None = None) -> WeierstrassCurve:
    """Build a curve from long Weierstrass coefficients.

    Raises SingularCurve when the discriminant vanishes.
    """
    for v in (a1, a2, a3, a4, a6):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"coefficients must be integers, got {v!r}")
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    if disc == 0:
        raise SingularCurve(f"discriminant vanishes for a-invariants {(a1, a2, a3, a4, a6)}")
    if 1728 * disc != c4**3 - c6**2 or 4 * b8 != b2 * b6 - b4 * b4:
        raise InternalInvariantViolation("invariant identities failed")  # pragma: no cover
    return WeierstrassCurve(a1, a2, a3, a4, a6, b2, b4, b6, b8, c4, c6, disc, label)


def curve_from_ainvs(ainvs, label: str | None = None) -> WeierstrassCurve:
    """Same as make_curve but from a 5-element sequence."""
    vals = list(ainvs)
    if len(vals) != 5:
        raise ValueError(f"need exactly 5 a-invariants, got {len(vals)}")
    return make_curve(*vals, label=label)


def _check_prime(ell: int) -> None:
    if not arith.is_prime(ell):
        raise ValueError(f"{ell} is not prime")


def is_minimal_at(E: WeierstrassCurve, ell: int) -> bool:
    """Sufficient minimality check at ell: v_ell(disc) < 12 or v_ell(c4) < 4."""
    _check_prime(ell)
    if E.disc % ell:
        return True
    if arith.padic_valuation(E.disc, ell) < 12:
        return True
    return E.c4 != 0 and arith.padic_valuation(E.c4, ell) < 4


def reduction_type(E: WeierstrassCurve, ell: int) -> ReductionType:
    """Classify the reduction of E at a prime ell >= 5.

    Good        <=> ell does not divide disc.
    Multiplicative (ell | disc, ell does not divide c4): split when -c6 is a
    nonzero square mod ell, nonsplit otherwise.
    Additive    <=> ell | disc and ell | c4.
    """
    _check_prime(ell)
    if ell < 5:
        raise SmallPrime(f"reduction classification needs ell >= 5, got {ell}")
    if not is_minimal_at(E, ell):
        raise NonMinimalModel(f"model not checked minimal at {ell}")
    if E.disc % ell:
        return ReductionType.GOOD
    if E.c4 % ell:
        s = arith.legendre_symbol(-E.c6, ell)
        if s == 0:
            # ell | disc and ell does not divide c4 force ell to miss c6
            raise InternalInvariantViolation("c6 = 0 mod ell in multiplicative case")
        return (ReductionType.SPLIT_MULTIPLICATIVE if s == 1
                else ReductionType.NONSPLIT_MULTIPLICATIVE)
    return ReductionType.ADDITIVE


# Mestre's theorem in the sharp form of Cremona and Sutherland: for a prime
# ell > 229, E or its quadratic twist has a point whose order has exactly one
# multiple in the Hasse interval.
MESTRE_BOUND = 229
# x-coordinates tried, each giving a point of E or of its twist, before the
# character sum decides
_CERTIFICATE_POINTS = 16


def frobenius_trace(E: WeierstrassCurve, ell: int) -> int:
    """a_ell = ell + 1 - #E(F_ell) for a prime ell >= 5 of good reduction.

    The preconditions are not checked here (count_points checks them).  For
    ell > 229 the count is certified by baby-step giant-step on the short
    model y^2 = x^3 - 27 c4 x - 54 c6 (Cohen, A Course in Computational
    Algebraic Number Theory, 7.4.3): #E is a multiple of the lcm M of the
    exact orders of a few points of E, and the twist's order 2 ell + 2 - #E
    a multiple of the lcm M' of its points' orders.  A trace is returned
    only when one N in the integer Hasse interval
    [ell + 1 - isqrt(4 ell), ell + 1 + isqrt(4 ell)] has M | N and
    M' | 2 ell + 2 - N, which proves N = #E.  For ell <= 229, or should the
    certificate stay undecided, the character sum decides.
    """
    if ell <= MESTRE_BOUND:
        return _charsum_trace(E, ell)
    t = _certified_trace(-27 * E.c4 % ell, -54 * E.c6 % ell, ell)
    return t if t is not None else _charsum_trace(E, ell)


def _certified_trace(A: int, B: int, ell: int) -> int | None:
    # Each x with f = x^3 + A x + B != 0 gives the point (x f, f^2) on
    # y^2 = x^3 + A f^2 x + B f^3: a model of E (side 1) when f is a square
    # mod ell, of its twist (side -1) when not.  The twist's trace is -a_ell,
    # and N -> 2 ell + 2 - N maps the Hasse interval onto itself.
    w = isqrt(4 * ell)
    lo, hi = ell + 1 - w, ell + 1 + w
    lcm = {1: 1, -1: 1}
    for x in range(_CERTIFICATE_POINTS):
        f = (x * x * x + A * x + B) % ell
        if f == 0:
            continue
        side = 1 if pow(f, (ell - 1) // 2, ell) == 1 else -1
        a, m = A * f * f % ell, lcm[side]
        # lcm(m, ord P) = m * ord(m P)
        Q = _mul(m, (x * f % ell, f * f % ell), a, ell)
        lcm[side] = m * _order(Q, -(-lo // m), hi // m, a, ell)
        # step through the multiples of the larger lcm, on its own side
        step, sign = max((lcm[1], 1), (lcm[-1], -1))
        hits = [n for n in range(-(-lo // step) * step, hi + 1, step)
                if (2 * ell + 2 - n) % lcm[-sign] == 0]
        if len(hits) == 1:
            return sign * (ell + 1 - hits[0])
    return None


def _order(Q, t_lo: int, t_hi: int, a: int, ell: int) -> int:
    """Exact order of Q given that t Q = O for some t in [t_lo, t_hi]:
    baby-step giant-step finds such a t, then primes are divided out of it
    while t Q stays O."""
    m = isqrt(t_hi - t_lo) + 1
    baby: dict = {}
    R = None
    for j in range(m):
        baby.setdefault(R, j)
        R = _add(R, Q, a, ell)
    G = _mul(t_lo, Q, a, ell)
    for i in range(m):  # m * m > t_hi - t_lo, so every t in range is reached
        j = baby.get(None if G is None else (G[0], -G[1] % ell))
        if j is not None:
            t = t_lo + i * m + j
            break
        G = _add(G, R, a, ell)
    else:
        raise InternalInvariantViolation(
            f"no multiple of a point order in the Hasse interval at {ell}")
    for q in arith.factorize(t):
        while t % q == 0 and _mul(t // q, Q, a, ell) is None:
            t //= q
    return t


def _add(P, Q, a: int, ell: int):
    """P + Q on y^2 = x^3 + a x + b over F_ell; None is the point at infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % ell == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, ell) % ell
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, ell) % ell
    x3 = (lam * lam - x1 - x2) % ell
    return x3, (lam * (x1 - x3) - y1) % ell


def _mul(k: int, P, a: int, ell: int):
    R = None
    while k:
        if k & 1:
            R = _add(R, P, a, ell)
        P = _add(P, P, a, ell)
        k >>= 1
    return R


def _charsum_trace(E: WeierstrassCurve, ell: int) -> int:
    """a_ell = ell - sum_x #{y : y^2 = g(x)} on the completed-square form
    y^2 = g(x) = 4x^3 + b2 x^2 + 2 b4 x + b6, one x at a time."""
    roots = [0] * ell  # number of square roots of each residue
    for r in range(ell):
        roots[r * r % ell] += 1
    B2, B4, B6 = E.b2 % ell, 2 * E.b4 % ell, E.b6 % ell
    return ell - sum(roots[(((4 * x + B2) * x + B4) * x + B6) % ell] for x in range(ell))


def _count_small(E: WeierstrassCurve, ell: int) -> PointCount:
    # Brute-force count over F_2 / F_3 on the long equation; good reduction
    # is taken as ell not dividing disc (model assumed minimal at ell).
    if E.disc % ell == 0:
        raise BadReduction(f"{E.label or E.ainvs} has bad reduction at {ell}")
    a1, a2, a3, a4, a6 = E.ainvs
    n = 1  # point at infinity
    for x in range(ell):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % ell
        for y in range(ell):
            if (y * y + a1 * x * y + a3 * y - rhs) % ell == 0:
                n += 1
    pc = PointCount(ell, 1, n, ell + 1 - n)
    pc.validate()
    return pc


def count_points(E: WeierstrassCurve, ell: int) -> PointCount:
    """#E(F_ell) for a prime of good reduction.

    For ell >= 5 the count is ell + 1 - frobenius_trace(E, ell); for ell in
    {2, 3} a brute-force enumeration is used.
    """
    _check_prime(ell)
    if ell in (2, 3):
        return _count_small(E, ell)
    if reduction_type(E, ell) is not ReductionType.GOOD:
        raise BadReduction(f"{E.label or E.ainvs} has bad reduction at {ell}")
    t = frobenius_trace(E, ell)
    pc = PointCount(ell, 1, ell + 1 - t, t)
    pc.validate()
    return pc


def count_points_ext(E: WeierstrassCurve, ell: int, k: int) -> PointCount:
    """#E(F_{ell^k}) via the trace recurrence s_0 = 2, s_1 = a_ell,
    s_j = a_ell*s_{j-1} - ell*s_{j-2}; the count is ell^k + 1 - s_k."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"extension degree must be a positive integer, got {k}")
    base = count_points(E, ell)
    if k == 1:
        return base
    a = base.trace
    s_prev, s_cur = 2, a
    for _ in range(k - 1):
        s_prev, s_cur = s_cur, a * s_cur - ell * s_prev
    pc = PointCount(ell, k, ell**k + 1 - s_cur, s_cur)
    pc.validate()
    return pc


def is_good_ordinary(E: WeierstrassCurve, p: int) -> bool:
    """True iff E has good reduction at p and p does not divide the trace a_p."""
    _check_prime(p)
    if p < 5:
        raise SmallPrime(f"good-ordinary test needs p >= 5, got {p}")
    if reduction_type(E, p) is not ReductionType.GOOD:
        return False
    return count_points(E, p).trace % p != 0


def has_p_torsion_over(E: WeierstrassCurve, ell: int, p: int, k: int) -> bool:
    """True iff p divides #E(F_{ell^k}), i.e. the reduction has a point of
    order p over the degree-k extension."""
    _check_prime(p)
    if ell == p:
        raise EqualPrimes(f"torsion test needs ell != p, both were {p}")
    return count_points_ext(E, ell, k).count % p == 0


def bad_primes(E: WeierstrassCurve) -> tuple[int, ...]:
    """Primes dividing the discriminant, in increasing order."""
    return tuple(arith.factorize(E.disc))
