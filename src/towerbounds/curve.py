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
from itertools import islice
from math import isqrt

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
        """Check count = ell^k + 1 - trace and the Hasse bound, sizes before ell^k."""
        ell = arith.check_int(self.ell, "ell", 2)
        k = arith.check_int(self.k, "extension degree", 1)
        q = arith.check_int(self.count, "count") + arith.check_int(self.trace, "trace") - 1
        if not k * (ell.bit_length() - 1) < q.bit_length() <= k * ell.bit_length() or q != ell**k:
            raise InternalInvariantViolation("count/trace mismatch")
        if self.trace**2 > 4 * q:
            raise InternalInvariantViolation("Hasse bound violated")


def make_curve(a1: int, a2: int, a3: int, a4: int, a6: int,
               label: str | None = None) -> WeierstrassCurve:
    """Build a curve from long Weierstrass coefficients.

    Raises SingularCurve when the discriminant vanishes.
    """
    for v in (a1, a2, a3, a4, a6):
        arith.check_int(v, "coefficient")
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


def is_minimal_at(E: WeierstrassCurve, ell: int) -> bool:
    """Sufficient minimality check at ell: v_ell(disc) < 12 or v_ell(c4) < 4."""
    return _is_minimal_at(E, arith.check_prime(ell, "ell"))


# Private helpers take a prime ell that their public caller has checked.
def _is_minimal_at(E: WeierstrassCurve, ell: int) -> bool:
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
    if arith.check_prime(ell, "ell") < 5:
        raise SmallPrime(f"reduction classification needs ell >= 5, got {ell}")
    return _reduction_type(E, ell)


def _reduction_type(E: WeierstrassCurve, ell: int) -> ReductionType:
    # ell is a prime >= 5
    if not _is_minimal_at(E, ell):
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
    M' | 2 ell + 2 - N, which proves N = #E.  Each exact order comes from one
    x-only +- sweep (_order), about sqrt(8) ell^(1/4) group additions for the
    first point.  For ell <= 229, or should the certificate stay undecided,
    the character sum decides.
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
        # lcm(m, ord P) = m * ord(m P), or #E on this side itself (see _order)
        Q = _mul(m, (x * f % ell, f * f % ell), a, ell)
        lcm[side] = m * _order(Q, -(-lo // m), hi // m, a, ell)
        # step through the multiples of the larger lcm, on its own side
        step, sign = max((lcm[1], 1), (lcm[-1], -1))
        # two hits already leave the certificate undecided
        hits = list(islice((n for n in range(-(-lo // step) * step, hi + 1, step)
                            if (2 * ell + 2 - n) % lcm[-sign] == 0), 2))
        if len(hits) == 1:
            return sign * (ell + 1 - hits[0])
    return None


def _order(Q, t_lo: int, t_hi: int, a: int, ell: int) -> int:
    """ord(Q), or else its only multiple in [t_lo, t_hi], given that t Q = O for
    some t there: one baby-step giant-step sweep with Shanks' +- steps, no
    factoring (Sutherland, Order Computations in Generic Groups, 2007, ch. 3).
    Baby steps j Q, 1 <= j <= m + 1, m = isqrt((t_hi - t_lo) // 2) + 1, are keyed
    by x.  If 2Q = O the order is 1 or 2.  Else the first j whose x is that of
    an earlier k Q gives ord(Q) = j + k: steps 1..j are affine (i Q = -Q would
    repeat x(Q) first), so ord(Q) > j, and j Q = k Q would put O at step j - k;
    so j Q = -k Q, and j + k < 2 ord(Q).  An order r <= 2m + 1 repeats x at steps
    (r - 1) // 2 and r - (r - 1) // 2, so with no repeat ord(Q) > 2m + 1 and
    y(j Q) != 0 for j <= m.  Giant steps t Q, t = t_lo + m + i (2m + 1), add
    S = m Q + (m + 1) Q.  In the window t - m..t + m, t - j (t + j) is a multiple
    of ord(Q) iff t Q = j Q (-j Q): x finds j, the stored y(j Q) the sign.  A
    window holds at most one multiple and the windows tile [t_lo, t_hi], so
    two hits differ by ord(Q); a lone hit is the only multiple, so for Q = k P,
    k | #E and the range of #E / k, as _certified_trace passes them, it is
    #E / k."""
    if Q is None:
        return 1
    R = _add(Q, Q, a, ell)
    if R is None:
        return 2
    m = isqrt((t_hi - t_lo) // 2) + 1
    (x1, y1), (x, y) = Q, R
    baby, ys, P = {x1: 1}, [0, y1], Q
    for j in range(2, m + 2):
        k = baby.get(x)
        if k is not None:
            return j + k
        if j > m:
            break
        baby[x], P = j, (x, y)
        ys.append(y)
        lam = (y - y1) * pow(x - x1, -1, ell) % ell
        x = (lam * lam - x - x1) % ell
        y = (lam * (x1 - x) - y1) % ell
    S = sx, sy = _add(P, (x, y), a, ell)
    G, hit = _mul(t_lo + m, Q, a, ell), None
    for t in range(t_lo + m, t_hi + m + 1, 2 * m + 1):
        if G is None:
            n, G = t, S
        else:
            gx, gy = G
            j = baby.get(gx)
            n = None if j is None else t - j if gy == ys[j] else t + j
            if gx == sx:
                G = _add(G, S, a, ell)
            else:
                lam = (sy - gy) * pow(sx - gx, -1, ell) % ell
                x = (lam * lam - gx - sx) % ell
                G = x, (lam * (gx - x) - gy) % ell
        if n is not None:
            if hit is not None:
                return n - hit
            hit = n
    if hit is None:
        raise InternalInvariantViolation(
            f"no multiple of a point order in the Hasse interval at {ell}")
    return hit


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
    return _count_points(E, arith.check_prime(ell, "ell"))


def _count_points(E: WeierstrassCurve, ell: int) -> PointCount:
    if ell in (2, 3):
        return _count_small(E, ell)
    if _reduction_type(E, ell) is not ReductionType.GOOD:
        raise BadReduction(f"{E.label or E.ainvs} has bad reduction at {ell}")
    t = frobenius_trace(E, ell)
    pc = PointCount(ell, 1, ell + 1 - t, t)
    pc.validate()
    return pc


def count_points_ext(E: WeierstrassCurve, ell: int, k: int) -> PointCount:
    """#E(F_{ell^k}) via the trace recurrence s_0 = 2, s_1 = a_ell,
    s_j = a_ell*s_{j-1} - ell*s_{j-2}; the count is ell^k + 1 - s_k.

    Raises LimitTooLarge when k * bitlen(ell) exceeds arith.BIT_BUDGET,
    before anything is counted.
    """
    arith.check_int(k, "extension degree", 1)
    arith.check_budget("BIT_BUDGET", k * arith.check_prime(ell, "ell").bit_length(),
                       f"k * bitlen(ell) for a count over F_{ell}^{k}")
    return _extend(_count_points(E, ell), k)


def _trace_mod(base: PointCount, k: int, p: int) -> int:
    """s_k mod p for s_k = alpha^k + beta^k, the trace of [[a, -ell], [1, 0]]^k
    (a = base.trace), by square-and-multiply on 2x2 matrices mod p: O(log k)
    steps on residues, where _extend takes k steps on integers of size ell^k."""
    m00, m01, m10, m11 = base.trace % p, -base.ell % p, 1, 0
    r00, r01, r10, r11 = 1, 0, 0, 1
    while True:
        if k & 1:
            r00, r01, r10, r11 = ((r00 * m00 + r01 * m10) % p, (r00 * m01 + r01 * m11) % p,
                                  (r10 * m00 + r11 * m10) % p, (r10 * m01 + r11 * m11) % p)
        k >>= 1
        if not k:
            return (r00 + r11) % p
        m00, m01, m10, m11 = ((m00 * m00 + m01 * m10) % p, (m00 + m11) * m01 % p,
                              (m00 + m11) * m10 % p, (m10 * m01 + m11 * m11) % p)


def _extend(base: PointCount, k: int) -> PointCount:
    if k == 1:
        return base
    ell, a = base.ell, base.trace
    s_prev, s_cur = 2, a
    for _ in range(k - 1):
        s_prev, s_cur = s_cur, a * s_cur - ell * s_prev
    pc = PointCount(ell, k, ell**k + 1 - s_cur, s_cur)
    pc.validate()
    return pc


def is_good_ordinary(E: WeierstrassCurve, p: int) -> bool:
    """True iff E has good reduction at p and p does not divide the trace a_p."""
    if arith.check_prime(p, "p") < 5:
        raise SmallPrime(f"good-ordinary test needs p >= 5, got {p}")
    if _reduction_type(E, p) is not ReductionType.GOOD:
        return False
    return _count_points(E, p).trace % p != 0


def has_p_torsion_over(E: WeierstrassCurve, ell: int, p: int, k: int) -> bool:
    """True iff p divides #E(F_{ell^k}), i.e. the reduction has a point of
    order p over the degree-k extension.

    Decided on residues mod p: #E(F_{ell^k}) = ell^k + 1 - s_k, with ell^k by
    pow and s_k by _trace_mod, so no count is built and no budget applies.
    """
    if arith.check_prime(p, "p") == ell:
        raise EqualPrimes(f"torsion test needs ell != p, both were {p}")
    arith.check_int(k, "extension degree", 1)
    s_k = _trace_mod(count_points(E, ell), k, p)
    return (pow(ell, k, p) + 1 - s_k) % p == 0


def bad_primes(E: WeierstrassCurve) -> tuple[int, ...]:
    """Primes dividing the discriminant, in increasing order."""
    return tuple(arith.factorize(E.disc))
