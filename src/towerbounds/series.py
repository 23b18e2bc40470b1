"""p-adic power series with explicit precision, and Weierstrass preparation.

A PadicSeries carries two precision knobs that every operation respects:

* ``prec`` (call it M): coefficients are residues mod p^M, stored in [0, p^M);
* its length N: only the coefficients of 1, T, ..., T^(N-1) are declared.

No operation reads beyond the declared precision, and preparation raises a
named error instead of extrapolating when the data cannot decide the answer.
Products are exact Kronecker products: each operand is packed into one
integer with slots no product coefficient can overflow, then multiplied once.

Weierstrass preparation: any nonzero f in Z_p[[T]] factors as

    f = p^mu * u(T) * P(T)

with u a unit power series and P a *distinguished* polynomial (monic, all
lower coefficients divisible by p); mu and lambda = deg P are the invariants
extracted here.  On residue data the recipe is: mu is the least coefficient
valuation, lambda the first index attaining it (the unit pivot).

Convention note: the lambda of a module built from p-power multiplicities
``mu_list`` and distinguished factors is the total degree of the factors,
independent of the multiplicities — i.e. lambda sums over the distinguished
polynomials only, never over the p-power part.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from . import arith
from .errors import (
    InsufficientCoeffPrecision,
    LengthTooShort,
    PrimeMismatch,
)


@dataclass(frozen=True)
class PadicSeries:
    """A power series over Z_p known mod (p^prec, T^len(coeffs))."""

    p: int
    prec: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        arith.check_prime(self.p, "p")
        arith.check_int(self.prec, "coefficient precision", 1)
        if len(self.coeffs) < 1:
            raise ValueError("a series needs at least one declared coefficient")
        # the first coefficient that is no residue (plain nonnegative ints are
        # checked at C speed); as 2^((bitlen(p) - 1) prec) <= p^prec, p^prec is
        # built only for a coefficient about as long
        cs, bad = self.coeffs, len(self.coeffs)
        if set(map(type, cs)) != {int} or min(cs) < 0:
            bad = next((i for i, c in enumerate(cs)
                        if not isinstance(c, int) or isinstance(c, bool) or c < 0), bad)
        top = max(cs[:bad], default=0)
        if (top.bit_length() > (self.p.bit_length() - 1) * self.prec
                and top >= (pm := self.p**self.prec)):
            bad = next(i for i, c in enumerate(cs) if c >= pm)
        if bad < len(cs):
            raise ValueError(f"coefficient {bad} = {cs[bad]!r} is not a residue in "
                             f"[0, {self.p}^{self.prec})")

    @property
    def length(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class DistinguishedPoly:
    """Monic polynomial over Z_p whose lower coefficients are all divisible by p.

    ``coeffs`` is ascending, so coeffs[-1] == 1 and len(coeffs) = degree + 1.
    """

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        arith.check_prime(self.p, "p")
        if len(self.coeffs) < 1:
            raise ValueError("empty coefficient list")
        if arith.check_int(self.coeffs[-1], "leading coefficient") != 1:
            raise ValueError(f"not monic: leading coefficient {self.coeffs[-1]}")
        for i, c in enumerate(self.coeffs[:-1]):
            if arith.check_int(c, f"coefficient {i}") % self.p:
                raise ValueError(
                    f"coefficient {i} = {c} of a distinguished polynomial "
                    f"must be divisible by {self.p}"
                )

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class IwasawaInvariants:
    """The pair (mu, lambda).  ``lam`` is lambda; both are >= 0."""

    mu: int
    lam: int

    def __post_init__(self):
        if self.mu < 0 or self.lam < 0:
            raise ValueError(f"invariants must be >= 0, got {self}")


@dataclass(frozen=True)
class CharacteristicElement:
    """p^mu times a product of distinguished polynomials; lam is their total degree."""

    p: int
    mu: int
    factors: tuple[DistinguishedPoly, ...]
    lam: int = field(init=False)

    def __post_init__(self):
        arith.check_prime(self.p, "p")
        arith.check_int(self.mu, "mu", 0)
        for f in self.factors:
            if f.p != self.p:
                raise PrimeMismatch(f"factor over p={f.p} in element over p={self.p}")
        object.__setattr__(self, "lam", sum(f.degree for f in self.factors))


def char_element(p: int, mu_list: list[int] | tuple[int, ...],
                 factors: list[DistinguishedPoly] | tuple[DistinguishedPoly, ...],
                 ) -> CharacteristicElement:
    """Assemble a characteristic element from p-power multiplicities and
    distinguished factors.  mu = sum(mu_list), lambda = sum of degrees."""
    for m in mu_list:
        arith.check_int(m, "p-power multiplicity", 1)
    return CharacteristicElement(p=p, mu=sum(mu_list), factors=tuple(factors))


def _kronecker_product(a, b, n: int) -> list[int]:
    """First n coefficients of the exact product of two ascending lists of
    nonnegative ints, by Kronecker substitution (von zur Gathen and Gerhard,
    Modern Computer Algebra, 8.4): coefficient i fills bytes [i w, (i+1) w).
    Each coefficient, of an operand or of the product, is at most min(len a,
    len b) * max a * max b < 2^(8w - 1), so no slot carries into the next."""
    bound = min(len(a), len(b)) * max(a) * max(b)
    if bound == 0:  # a zero operand: its slots could not hold the other's
        return [0] * n
    w = (bound.bit_length() + 8) // 8
    x = int.from_bytes(b"".join([c.to_bytes(w, "little") for c in a]), "little")
    y = int.from_bytes(b"".join([c.to_bytes(w, "little") for c in b]), "little")
    buf = (x * y).to_bytes((len(a) + len(b) - 1) * w, "little")
    return [int.from_bytes(buf[i:i + w], "little") for i in range(0, n * w, w)]


def series_multiply(f: PadicSeries, g: PadicSeries) -> PadicSeries:
    """Cauchy product truncated to the shorter length, at the coarser precision."""
    if f.p != g.p:
        raise PrimeMismatch(f"cannot multiply series over p={f.p} and p={g.p}")
    prec = min(f.prec, g.prec)
    n = min(f.length, g.length)
    pm = f.p**prec
    out = _kronecker_product(f.coeffs[:n], g.coeffs[:n], n)
    return PadicSeries(p=f.p, prec=prec, coeffs=tuple([c % pm for c in out]))


def weierstrass_prepare(f: PadicSeries) -> tuple[IwasawaInvariants, bool]:
    """Extract (mu, lambda) from a series by Weierstrass preparation.

    mu is the least coefficient valuation, lambda the first index attaining
    it.  Returns (invariants, unit_checked); unit_checked reports that mu was
    determined strictly below the declared precision and the pivot's unit
    part is a unit mod p, which holds for every residue of valuation < prec.

    Raises InsufficientCoeffPrecision when every declared coefficient is
    0 mod p^prec (mu >= prec, undetermined).  The least valuation is that of
    the coefficients' gcd, so one valuation is taken, not one per coefficient.
    """
    g = gcd(*f.coeffs)
    if g == 0:
        raise InsufficientCoeffPrecision(
            f"all {f.length} coefficients vanish mod {f.p}^{f.prec}"
        )
    mu = arith.padic_valuation(g, f.p)
    pivot = f.p ** (mu + 1)
    return IwasawaInvariants(mu=mu, lam=next(i for i, c in enumerate(f.coeffs) if c % pivot)), True


def expand_char_element(ce: CharacteristicElement, prec: int, length: int) -> PadicSeries:
    """Multiply out a characteristic element into a PadicSeries of the given
    precision.

    Needs length > ce.lam so the distinguished part fits (LengthTooShort
    otherwise); then weierstrass_prepare recovers (mu, lambda) exactly
    whenever prec > ce.mu.
    """
    arith.check_int(length, "length", 1)
    arith.check_int(prec, "precision", 1)
    if length <= ce.lam:
        raise LengthTooShort(
            f"length {length} cannot hold a distinguished part of degree {ce.lam}"
        )
    pm = ce.p**prec
    poly, *rest = [[c % pm for c in fac.coeffs] for fac in ce.factors] or [[1]]
    for fac in rest:
        n = min(length, len(poly) + len(fac) - 1)
        poly = [c % pm for c in _kronecker_product(poly, fac, n)]
    scale = pow(ce.p, ce.mu, pm)
    coeffs = [scale * c % pm for c in poly]
    return PadicSeries(p=ce.p, prec=prec, coeffs=tuple(coeffs + [0] * (length - len(coeffs))))


def series_to_text(f: PadicSeries) -> str:
    """Render as ``p M N : c0 c1 ... c_{N-1}`` (decimal residues)."""
    head = f"{f.p} {f.prec} {f.length}"
    return head + " : " + " ".join(str(c) for c in f.coeffs)


def series_from_text(text: str) -> PadicSeries:
    """Parse the ``p M N : c0 c1 ...`` form; strict about counts and ranges."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise ValueError(f"missing ':' in series text {text!r}")
    parts = head.split()
    if len(parts) != 3:
        raise ValueError(f"series header must be 'p M N', got {head.strip()!r}")
    try:
        p, prec, n = (int(t) for t in parts)
        coeffs = tuple(int(t) for t in tail.split())
    except ValueError as e:
        raise ValueError(f"non-integer token in series text: {e}") from None
    if len(coeffs) != n:
        raise ValueError(f"header declares {n} coefficients, found {len(coeffs)}")
    return PadicSeries(p=p, prec=prec, coeffs=coeffs)
