"""Independent oracles and generators for the test suite.

Everything here is deliberately written from scratch against the definitions
(projective enumeration, trial division, repeated multiplication) so the
library paths it checks are never used to verify themselves.
"""

from __future__ import annotations

import random

from towerbounds.series import DistinguishedPoly, PadicSeries

# the least prime above 2^72, so bitlen(P73) = 73: a size of 137 * 73 = 10,001
# bits is one past arith.BIT_BUDGET (10,001 = 73 * 137 has no other split)
P73 = 4_722_366_482_869_645_213_711


def brute_count_projective(ainvs, ell: int) -> int:
    """#E(F_ell) by enumerating representatives of the projective plane.

    Points are [x:y:1] for all x, y; [x:1:0] for all x; and [1:0:0]; the
    homogeneous Weierstrass equation is evaluated on each.
    """
    a1, a2, a3, a4, a6 = ainvs

    def F(X, Y, Z):
        return (Y * Y * Z + a1 * X * Y * Z + a3 * Y * Z * Z
                - X**3 - a2 * X * X * Z - a4 * X * Z * Z - a6 * Z**3) % ell

    n = 0
    for x in range(ell):
        for y in range(ell):
            if F(x, y, 1) == 0:
                n += 1
    for x in range(ell):
        if F(x, 1, 0) == 0:
            n += 1
    if F(1, 0, 0) == 0:
        n += 1
    return n


def trial_division_primes(limit: int) -> list[int]:
    """Primes up to limit by bare trial division."""
    out = []
    for n in range(2, limit + 1):
        d = 2
        while d * d <= n:
            if n % d == 0:
                break
            d += 1
        else:
            out.append(n)
    return out


def brute_multiplicative_order(a: int, m: int) -> int:
    """Order of a mod m by repeated multiplication."""
    x = a % m
    k = 1
    while x != 1:
        x = x * a % m
        k += 1
    return k


def schoolbook_product(a, b, n: int) -> list[int]:
    """The first n coefficients of the product of two integer coefficient
    lists (ascending), term by term."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        for j, y in enumerate(b[:n - i]):
            out[i + j] += x * y
    return out


def random_distinguished(rng: random.Random, p: int, max_degree: int = 3) -> DistinguishedPoly:
    deg = rng.randint(0, max_degree)
    coeffs = tuple(p * rng.randint(0, p) for _ in range(deg)) + (1,)
    return DistinguishedPoly(p=p, coeffs=coeffs)


def random_unit_series(rng: random.Random, p: int, prec: int, length: int) -> PadicSeries:
    pm = p**prec
    units = [u for u in range(1, p)]
    coeffs = [rng.choice(units) + p * rng.randint(0, pm // p - 1 if pm > p else 0)]
    coeffs += [rng.randrange(pm) for _ in range(length - 1)]
    return PadicSeries(p=p, prec=prec, coeffs=tuple(c % pm for c in coeffs))


def short_affine_points(a: int, b: int, ell: int) -> list[tuple[int, int]]:
    """Affine points of y^2 = x^3 + a x + b over F_ell, from a table of squares."""
    roots: dict[int, list[int]] = {}
    for y in range(ell):
        roots.setdefault(y * y % ell, []).append(y)
    return [(x, y) for x in range(ell) for y in roots.get((x**3 + a * x + b) % ell, [])]


def brute_point_order(P, a: int, ell: int) -> int:
    """Order of the affine point P on y^2 = x^3 + a x + b over F_ell, by adding
    P to itself with the chord-tangent law until the sum is the point at
    infinity."""
    x0, y0 = P
    R, k = P, 1
    while True:
        x, y = R
        if x == x0 and (y + y0) % ell == 0:
            return k + 1
        if x == x0:
            lam = (3 * x * x + a) * pow(2 * y, -1, ell) % ell
        else:
            lam = (y - y0) * pow(x - x0, -1, ell) % ell
        x3 = (lam * lam - x - x0) % ell
        R, k = (x3, (lam * (x0 - x3) - y0) % ell), k + 1


def strong_probable_prime_all_bases(n: int) -> bool:
    """Miller-Rabin to every prime base up to 41, with trial division by those
    bases first: a proof of primality for n < 3,317,044,064,679,887,385,961,981."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    if any(n % a == 0 for a in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 2**i, n) != n - 1 for i in range(s)):
            return False
    return True


def hasse_invariant_trace(ainvs, ell: int) -> int | None:
    """a_ell of the curve with these a-invariants, for a prime ell >= 17 of
    good reduction, from the Hasse invariant; None when ell divides B below.

    On the short model y^2 = f(x) = x^3 + A x + B, A = -27 c4, B = -54 c6,
    #E = 1 + ell + sum_x (f(x) / ell), and (f / ell) = f^n mod ell for
    n = (ell - 1) / 2.  A sum of x^j over F_ell is -1 mod ell when j > 0 and
    ell - 1 divides j, and 0 otherwise; f^n has degree 3n < 2 (ell - 1), so
    a_ell = [x^(ell - 1)] f^n mod ell, and |a_ell| <= 2 sqrt(ell) < ell / 2
    picks the lift.  The coefficients g_k of f^n follow from f g' = n f' g
    with n = -1/2 mod ell:
        2 B (k + 1) g_{k+1} = -A (2k + 1) g_k - (2k - 1) g_{k-2}.
    """
    assert ell >= 17
    a1, a2, a3, a4, a6 = ainvs
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    c4, c6 = b2 * b2 - 24 * b4, -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6
    A, B = -27 * c4 % ell, -54 * c6 % ell
    if B == 0:
        return None
    inv = [0, 1]  # inv[i] = 1 / i mod ell, each from the one at ell mod i
    for i in range(2, ell):
        inv.append(-(ell // i) * inv[ell % i] % ell)
    half_over_b = inv[2 * B % ell]
    g = [pow(B, (ell - 1) // 2, ell)]
    for k in range(ell - 1):
        back = g[k - 2] if k >= 2 else 0
        g.append((-A * (2 * k + 1) * g[k] - (2 * k - 1) * back) * half_over_b * inv[k + 1] % ell)
    a = g[ell - 1]
    return a - ell if a > ell // 2 else a


def change_of_model(ainvs, u: int, r: int, s: int, t: int) -> tuple[int, ...]:
    """The integral model that x = u^2 X + r, y = u^3 Y + u^2 s X + t takes
    onto the model with these a-invariants: the formulas of Silverman, The
    Arithmetic of Elliptic Curves, Table 3.1, solved for the other side.  Its
    c4, c6 and disc are u^4, u^6 and u^12 times the given ones."""
    b1, b2, b3, b4, b6 = ainvs
    a1 = u * b1 - 2 * s
    a2 = u**2 * b2 + s * a1 - 3 * r + s * s
    a3 = u**3 * b3 - r * a1 - 2 * t
    a4 = u**4 * b4 + s * a3 - 2 * r * a2 + (t + r * s) * a1 - 3 * r * r + 2 * s * t
    a6 = u**6 * b6 - r * a4 - r * r * a2 - r**3 + t * a3 + t * t + r * t * a1
    return a1, a2, a3, a4, a6
