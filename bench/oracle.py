"""Independent reference arithmetic for checking towerbounds outputs.

Nothing here imports towerbounds.  Point counts use baby-step giant-step in
the group E(F_ell) (a different algorithm from the library's character sums),
with a character-sum fallback when the group order is not pinned down, so a
check never rests on the code it checks.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the base set is exact below 3.3e24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, limit + 1, i)))
    return [i for i, f in enumerate(flags) if f]


def factor(n: int) -> dict[int, int]:
    """Trial-division factorization of |n| (n != 0); fine below ~10^12."""
    n = abs(n)
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def order_mod(a: int, m: int) -> int:
    """Multiplicative order of a mod m by direct stepping (m is small)."""
    a %= m
    x, k = a, 1
    while x != 1:
        x = x * a % m
        k += 1
    return k


# --- curves ------------------------------------------------------------------

def invariants(ainvs) -> dict[str, int]:
    a1, a2, a3, a4, a6 = ainvs
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    disc = (c4 ** 3 - c6 ** 2) // 1728
    return {"b2": b2, "b4": b4, "b6": b6, "b8": b8, "c4": c4, "c6": c6, "disc": disc}


def reduction(inv: dict[str, int], ell: int) -> str:
    """Reduction type at a prime ell >= 5 of a model minimal at ell."""
    if inv["disc"] % ell:
        return "good"
    if inv["c4"] % ell:
        return ("split_multiplicative" if pow(-inv["c6"] % ell, (ell - 1) // 2, ell) == 1
                else "nonsplit_multiplicative")
    return "additive"


def trace_charsum(inv: dict[str, int], ell: int) -> int:
    """a_ell = -sum_x chi(4x^3 + b2 x^2 + 2 b4 x + b6), by a table of squares."""
    sq = bytearray(ell)
    for r in range(1, (ell - 1) // 2 + 1):
        sq[r * r % ell] = 1
    B2, B4, B6 = inv["b2"] % ell, 2 * inv["b4"] % ell, inv["b6"] % ell
    s = 0
    for x in range(ell):
        g = (((4 * x + B2) * x + B4) * x + B6) % ell
        if g:
            s += 1 if sq[g] else -1
    return -s


def _add(P, Q, A, ell):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % ell == 0:
            return None
        lam = (3 * x1 * x1 + A) * pow(2 * y1, -1, ell) % ell
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, ell) % ell
    x3 = (lam * lam - x1 - x2) % ell
    return x3, (lam * (x1 - x3) - y1) % ell


def _mul(k, P, A, ell):
    R = None
    while k:
        if k & 1:
            R = _add(R, P, A, ell)
        P = _add(P, P, A, ell)
        k >>= 1
    return R


def _sqrt_mod(a: int, ell: int) -> int:
    """Tonelli-Shanks square root of a quadratic residue a mod an odd prime."""
    if ell % 4 == 3:
        return pow(a, (ell + 1) // 4, ell)
    q, s = ell - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (ell - 1) // 2, ell) != ell - 1:
        z += 1
    m, c, t, r = s, pow(z, q, ell), pow(a, q, ell), pow(a, (q + 1) // 2, ell)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % ell
            i += 1
        b = pow(c, 1 << (m - i - 1), ell)
        m, c, t, r = i, b * b % ell, t * b * b % ell, r * b % ell
    return r


def _point_order(P, lo, hi, A, ell):
    """Order of P, given that some multiple of it lies in [lo, hi]."""
    width = hi - lo
    m = isqrt(width) + 1
    baby = {}
    R = None
    for j in range(m):
        key = None if R is None else (R[0], -R[1] % ell)
        baby.setdefault(key, j)
        R = _add(R, P, A, ell)
    step = _mul(m, P, A, ell)
    G = _mul(lo, P, A, ell)
    n = None
    for i in range(width // m + 2):
        j = baby.get(G, -1)
        if j >= 0 and lo + i * m + j <= hi:
            n = lo + i * m + j
            break
        G = _add(G, step, A, ell)
    if n is None:
        raise ArithmeticError(f"no multiple of the point order in the Hasse interval at {ell}")
    for q in factor(n):
        while n % q == 0 and _mul(n // q, P, A, ell) is None:
            n //= q
    return n


def trace_bsgs(inv: dict[str, int], ell: int) -> int:
    """a_ell of a curve with good reduction at a prime ell >= 5.

    Works on the short model y^2 = x^3 - 27 c4 x - 54 c6.  The lcm M of the
    orders of a few points is a divisor of #E(F_ell); once exactly one
    multiple of M lies in the Hasse interval, that multiple is the order.
    Otherwise the character sum decides.
    """
    A, B = -27 * inv["c4"] % ell, -54 * inv["c6"] % ell
    w = isqrt(4 * ell)
    lo, hi = ell + 1 - w, ell + 1 + w
    rng = random.Random(ell * 1_000_003 + A * 7919 + B)
    M = 1
    for _ in range(12):
        x = rng.randrange(ell)
        rhs = (x * x * x + A * x + B) % ell
        if rhs and pow(rhs, (ell - 1) // 2, ell) != 1:
            continue
        P = (x, _sqrt_mod(rhs, ell) if rhs else 0)
        M = _lcm(M, _point_order(P, lo, hi, A, ell))
        first = -(-lo // M) * M
        if first + M > hi:
            return ell + 1 - first
    return trace_charsum(inv, ell)


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


def trace_ext(a: int, ell: int, k: int) -> int:
    """Frobenius trace over F_{ell^k} from a_ell by s_j = a s_{j-1} - ell s_{j-2}."""
    s_prev, s_cur = 2, a
    for _ in range(k - 1):
        s_prev, s_cur = s_cur, a * s_cur - ell * s_prev
    return s_cur


def is_good_ordinary(inv: dict[str, int], p: int) -> bool:
    return inv["disc"] % p != 0 and trace_charsum(inv, p) % p != 0


# --- expected report text ----------------------------------------------------

def decimal4(frac: Fraction) -> str:
    """frac rounded half-even to 4 places, as 'i.dddd'."""
    scaled = frac * 10 ** 4
    q = round(scaled)  # Fraction.__round__ rounds half to even
    return f"{q // 10 ** 4}.{q % 10 ** 4:04d}"


def splitting_stable(ell: int, p: int) -> tuple[int, int, int]:
    """(f, m, g_inf) for ell in the p-cyclotomic tower."""
    f = order_mod(ell, p)
    m = valuation(pow(ell, f) - 1, p)
    return f, m, (p - 1) // f * p ** (m - 1)


def qsets_expected(inv: dict[str, int], p: int, ells, traces: dict[int, int]) -> tuple:
    """(q1, q2, witnesses_q1, witnesses_q2) for ramified primes ``ells``;
    ``traces`` gives a_ell at the good ones."""
    w1, w2 = [], []
    for ell in sorted(ells):
        kind = reduction(inv, ell) if ell >= 5 else "good"
        if kind == "split_multiplicative":
            w1.append((ell, splitting_stable(ell, p)[2]))
        elif kind == "good":
            f, _, g = splitting_stable(ell, p)
            count = ell ** f + 1 - trace_ext(traces[ell], ell, f)
            if count % p == 0:
                w2.append((ell, g))
    return sum(c for _, c in w1), sum(c for _, c in w2), w1, w2


def growth_rows(p: int, d: int, mu0: int, lambda0: int, q1: int, q2: int,
                n_max: int, torsion: bool) -> list[tuple]:
    """(n, D_n, mu, lambda_lo, lambda_hi, rank, hung_lim) by the closed forms."""
    rows = []
    for n in range(n_max + 1):
        D = p ** ((d - 1) * n)
        lo = D * lambda0
        hi = lo + (D - p ** ((d - 2) * n)) * (q1 + 2 * q2)
        hl = (lambda0 + q1) * p ** (3 * n) + 8 if torsion else None
        rows.append((n, D, D * mu0, lo, hi, hi, hl))
    return rows
