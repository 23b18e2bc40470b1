"""Level-by-level invariant growth and Mordell-Weil rank bounds.

Inputs are the base-level invariants (mu0, lambda0) of the curve's fine
Selmer-theoretic module over the cyclotomic line — supplied by the user with
a provenance note, never computed here — plus the tower's q-counts.  Writing
D_n = p^((d-1)n) for the cyclotomic layer degree, the conditional formulas
are

    mu_n      =  D_n * mu0                                  (exact)
    lambda_n  in  [ D_n*lambda0,
                    D_n*lambda0 + (D_n - p^((d-2)n)) * (q1 + 2*q2) ]
    rank at level n  <=  the lambda upper bound

and, when the level-n ramification above the q-set primes is known exactly,
Kida's transfer pins lambda down:

    lambda_n  =  D_n*lambda0 + sum_{P1} (e(w) - 1) + 2 * sum_{P2} (e(w) - 1)

with every ramification index e(w) a power of p, at most p^n.  All of the
above require the declared module hypothesis (assume_mhg); the one
unconditional statement is that vanishing base data with q1 = q2 = 0
propagates to zero at every level.

For dimension-4 torsion-field towers an external comparison bound is also
provided: (lambda0 + q1) * p^(3n) + 8 (Hung-Lim style).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from . import arith
from . import curve as curve_mod
from .errors import HypothesisNotDeclared, InvalidRamification, WrongTowerKind
from .tower import QSets, TowerKind, TowerSpec, compute_qsets, cyc_layer_degree


class SelmerVerdict(Enum):
    ALL_LEVELS_ZERO = "all_levels_zero"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class BaseInvariants:
    """User-supplied base-level data with a mandatory provenance note.

    selmer_zero asserts the base fine Selmer group vanishes, which forces
    mu0 = lambda0 = 0.  mu0 or lambda0 past arith.BASE_BIT_BUDGET bits
    raises LimitTooLarge, so no level's values outgrow what prints.
    """

    mu0: int
    lambda0: int
    selmer_zero: bool
    provenance: str

    def __post_init__(self):
        for name in ("mu0", "lambda0"):
            value = arith.check_int(getattr(self, name), name, 0)
            arith.check_budget("BASE_BIT_BUDGET", value.bit_length(), f"bitlen({name})")
        if not isinstance(self.selmer_zero, bool):
            raise ValueError(f"selmer_zero must be a bool, got {self.selmer_zero!r}")
        if not isinstance(self.provenance, str) or not self.provenance.strip():
            raise ValueError("base invariants need a non-empty provenance note")
        if self.selmer_zero and (self.mu0 or self.lambda0):
            raise ValueError("selmer_zero requires mu0 = lambda0 = 0")


@dataclass(frozen=True)
class RamificationData:
    """Exact level-n ramification above the q-set primes.

    split_mult / good_torsion list (e, count) pairs: ``count`` primes of the
    level-n layer with ramification index ``e`` above split-multiplicative /
    good-torsion base primes respectively.  A count may aggregate primes
    lying over several base primes.
    """

    level: int
    split_mult: tuple[tuple[int, int], ...] = ()
    good_torsion: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        arith.check_int(self.level, "level", 0)


def _require_hypothesis(spec: TowerSpec) -> None:
    if not spec.assume_mhg:
        raise HypothesisNotDeclared(
            "growth formulas are conditional; construct the tower with "
            "assume_mhg=True to declare the module hypothesis"
        )


def _lambda_window(lambda0: int, q: QSets, big: int, small: int) -> tuple[int, int]:
    # big = p^((d-1)n), small = p^((d-2)n)
    lower = big * lambda0
    return lower, lower + (big - small) * (q.q1 + 2 * q.q2)


def _hung_lim(lambda0: int, q: QSets, p3n: int) -> int:
    return (lambda0 + q.q1) * p3n + 8


def mu_growth(base: BaseInvariants, spec: TowerSpec, n: int) -> int:
    """Exact mu at level n: p^((d-1)n) * mu0.  Conditional on assume_mhg."""
    _require_hypothesis(spec)
    return cyc_layer_degree(spec, n) * base.mu0


def lambda_bounds(base: BaseInvariants, spec: TowerSpec, q: QSets,
                  n: int) -> tuple[int, int]:
    """Two-sided window for lambda at level n.  Conditional on assume_mhg."""
    _require_hypothesis(spec)
    return _lambda_window(base.lambda0, q, cyc_layer_degree(spec, n),
                          spec.p ** ((spec.d - 2) * n))


def rank_bound(base: BaseInvariants, spec: TowerSpec, q: QSets, n: int) -> int:
    """Upper bound for the Mordell-Weil rank over the level-n layer."""
    return lambda_bounds(base, spec, q, n)[1]


def _check_p_power(e: int, p: int) -> bool:
    if e < 1:
        return False
    while e % p == 0:
        e //= p
    return e == 1


def kida_lambda(base: BaseInvariants, spec: TowerSpec, ram: RamificationData) -> int:
    """Exact lambda at level ram.level from exact ramification data.

    Validates that every ramification index is a power of p and at most
    p^level (InvalidRamification otherwise).  Conditional on assume_mhg.  A
    level past arith.LEVEL_CAP raises ValueError, and a layer degree past
    arith.BIT_BUDGET or a count past arith.BASE_BIT_BUDGET bits LimitTooLarge.
    """
    _require_hypothesis(spec)
    n = arith.check_level(ram.level, "level")
    degree = cyc_layer_degree(spec, n)
    cap = spec.p**n
    extra = 0
    for weight, entries, tag in ((1, ram.split_mult, "split_mult"),
                                 (2, ram.good_torsion, "good_torsion")):
        for e, count in entries:
            if not isinstance(e, int) or isinstance(e, bool) or not _check_p_power(e, spec.p):
                raise InvalidRamification(
                    f"{tag} index {e!r} is not a power of {spec.p}"
                )
            if e > cap:
                raise InvalidRamification(
                    f"{tag} index {e} exceeds p^n = {cap} at level {n}"
                )
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise InvalidRamification(f"{tag} count {count!r} must be >= 1")
            arith.check_budget("BASE_BIT_BUDGET", count.bit_length(), f"bitlen({tag} count)")
            extra += weight * count * (e - 1)
    return degree * base.lambda0 + extra


def hung_lim_bound(base: BaseInvariants, spec: TowerSpec, q: QSets, n: int) -> int:
    """Published comparison bound for torsion-field towers: (lambda0 + q1) *
    p^(3n) + 8, where p^(3n) is the layer degree as d = 4.  WrongTowerKind for
    any other kind, and LimitTooLarge when p^(3n) passes arith.BIT_BUDGET."""
    if spec.kind is not TowerKind.TORSION_FIELD:
        raise WrongTowerKind(
            f"comparison bound applies to torsion-field towers, not {spec.kind.value}"
        )
    return _hung_lim(base.lambda0, q, cyc_layer_degree(spec, n))


def selmer_zero_propagation(base: BaseInvariants, q: QSets) -> SelmerVerdict:
    """Unconditional vanishing: zero base Selmer data and q1 = q2 = 0 force
    zero invariants (and rank) at every level of the tower."""
    if base.selmer_zero and q.q1 == 0 and q.q2 == 0:
        return SelmerVerdict.ALL_LEVELS_ZERO
    return SelmerVerdict.INCONCLUSIVE


class GrowthRow(NamedTuple):
    """One report line: level, layer degree, exact mu, lambda window, rank
    bound, optional comparison bound.  A NamedTuple: immutable, and cheaper
    to build than a frozen dataclass."""

    n: int
    cyc_degree: int
    mu: int
    lambda_lower: int
    lambda_upper: int
    rank_upper: int
    hung_lim_upper: int | None = None

    def validate(self) -> None:
        if not (0 <= self.lambda_lower <= self.lambda_upper == self.rank_upper):
            raise ValueError(f"inconsistent row {self}")
        if self.mu < 0 or self.cyc_degree < 1:
            raise ValueError(f"inconsistent row {self}")


@dataclass(frozen=True)
class GrowthBoundReport:
    """Levels 0..n_max of growth data for one curve in one tower."""

    label: str | None
    spec: TowerSpec
    base: BaseInvariants
    qsets: QSets
    verdict: SelmerVerdict
    rows: tuple[GrowthRow, ...]


def growth_report(E: curve_mod.WeierstrassCurve, spec: TowerSpec,
                  base: BaseInvariants, n_max: int) -> GrowthBoundReport:
    """Compute the curve's q-sets and assemble rows for n = 0..n_max.

    n_max is capped at arith.LEVEL_CAP to keep degrees desk-scale, and the
    layer degree at n_max by arith.BIT_BUDGET, both before the q-sets.
    """
    cyc_layer_degree(spec, arith.check_level(n_max, "n_max"))  # only the checks
    return assemble_report(E.label, spec, base, compute_qsets(E, spec), n_max)


def assemble_report(label: str | None, spec: TowerSpec, base: BaseInvariants,
                    q: QSets, n_max: int) -> GrowthBoundReport:
    """Rows for n = 0..n_max from given q-sets.

    Rows use the conditional formulas, except that an unconditional
    ALL_LEVELS_ZERO verdict (zero base data, empty q-sets) needs no declared
    hypothesis.  LimitTooLarge when the layer degree at n_max passes
    arith.BIT_BUDGET.
    """
    cyc_layer_degree(spec, arith.check_level(n_max, "n_max"))  # only the checks
    verdict = selmer_zero_propagation(base, q)
    if verdict is not SelmerVerdict.ALL_LEVELS_ZERO:
        _require_hypothesis(spec)
    p, d = spec.p, spec.d
    torsion = spec.kind is TowerKind.TORSION_FIELD
    # D_n = p^((d-1)n) and p^((d-2)n), carried forward one level at a time; a
    # torsion tower has d = 4, so p^(3n) = D_n
    step, small_step = p ** (d - 1), p ** (d - 2)
    deg = small = 1
    rows = []
    for n in range(n_max + 1):
        if n:
            deg *= step
            small *= small_step
        lo, hi = _lambda_window(base.lambda0, q, deg, small)
        row = GrowthRow(n, deg, deg * base.mu0, lo, hi, hi,
                        _hung_lim(base.lambda0, q, deg) if torsion else None)
        row.validate()
        rows.append(row)
    return GrowthBoundReport(label=label, spec=spec, base=base, qsets=q,
                             verdict=verdict, rows=tuple(rows))
