"""Uniform pro-p towers over Q and their ramified-prime bookkeeping.

A tower is the compositum picture: a p-adic Lie extension F_infty/Q of
dimension d containing the cyclotomic Z_p-extension, with

    [level n : level 0] = p^(d*n)      over the base field,
    [cyc level n : cyc level 0] = p^((d-1)*n)   over the cyclotomic line.

Supported kinds:

* zpd        -- compositum of d independent Z_p-lines; nothing ramifies away
                from p that matters here.
* falsetate  -- adjoin p-power roots of a fixed prime ell != p (d = 2).
* torsion    -- the field generated by all p-power torsion of the curve
                (d = 4 for a non-CM curve; CM is the caller's responsibility
                to flag, it is not detected).
* generic    -- any dimension with an explicit list of ramified primes.

compute_qsets evaluates, prime by prime, the two counts that drive the
level-n bounds:

    q1 = number of primes of the cyclotomic line, ramified in F_infty, where
         the curve has split multiplicative reduction;
    q2 = same but with good reduction and a p-torsion point over the local
         residue extension.

For the torsion kind the counts are taken over *rational* primes ell != p of
split multiplicative reduction (so each witness carries count 1); for the
other kinds each witness carries the stable number of primes above ell.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import arith, curve, cyclotomic
from .errors import NotGoodOrdinary, SmallBadPrime


class TowerKind(Enum):
    ZPD_COMPOSITE = "zpd"
    FALSE_TATE = "falsetate"
    TORSION_FIELD = "torsion"
    GENERIC = "generic"


@dataclass(frozen=True)
class TowerSpec:
    """A tower kind with its parameters and the MH(G)-style hypothesis flag.

    ``assume_mhg`` records (does not verify) the module-theoretic hypothesis
    that the conditional growth formulas need; it is printed verbatim in
    reports.
    """

    p: int
    kind: TowerKind
    d: int
    ell: int | None = None
    ramified_primes: tuple[int, ...] = ()
    assume_mhg: bool = False

    def __post_init__(self):
        arith.check_prime(self.p, "tower prime", 5)
        arith.check_int(self.d, "tower dimension", 2)
        if self.kind is TowerKind.FALSE_TATE:
            if self.d != 2:
                raise ValueError("false-Tate towers have dimension 2")
            if arith.check_prime(self.ell, "false-Tate ell") == self.p:
                raise ValueError("false-Tate ell must differ from p")
        elif self.kind is TowerKind.TORSION_FIELD:
            if self.d != 4:
                raise ValueError("torsion-field towers have dimension 4")
        elif self.kind is TowerKind.GENERIC:
            seen = set()
            for ell in self.ramified_primes:
                if arith.check_prime(ell, "ramified prime") == self.p:
                    raise ValueError(f"ramified prime {ell} must differ from p")
                if ell in seen:
                    raise ValueError(f"duplicate ramified prime {ell}")
                seen.add(ell)
        if self.kind is not TowerKind.FALSE_TATE and self.ell is not None:
            raise ValueError(f"{self.kind.value} tower takes no ell parameter")
        if self.kind is not TowerKind.GENERIC and self.ramified_primes:
            raise ValueError(f"{self.kind.value} tower takes no ramified-prime list")
        if not isinstance(self.assume_mhg, bool):
            raise ValueError(f"assume_mhg must be a bool, got {self.assume_mhg!r}")

    @classmethod
    def zpd_composite(cls, p: int, d: int, *, assume_mhg: bool = False) -> "TowerSpec":
        return cls(p=p, kind=TowerKind.ZPD_COMPOSITE, d=d, assume_mhg=assume_mhg)

    @classmethod
    def false_tate(cls, p: int, ell: int, *, assume_mhg: bool = False) -> "TowerSpec":
        return cls(p=p, kind=TowerKind.FALSE_TATE, d=2, ell=ell, assume_mhg=assume_mhg)

    @classmethod
    def torsion_field(cls, p: int, *, assume_mhg: bool = False) -> "TowerSpec":
        return cls(p=p, kind=TowerKind.TORSION_FIELD, d=4, assume_mhg=assume_mhg)

    @classmethod
    def generic(cls, p: int, d: int, ramified_primes, *,
                assume_mhg: bool = False) -> "TowerSpec":
        return cls(p=p, kind=TowerKind.GENERIC, d=d,
                   ramified_primes=tuple(sorted(ramified_primes)),
                   assume_mhg=assume_mhg)


def _layer_degree(p: int, e: int) -> int:
    """p^e, or LimitTooLarge past arith.BIT_BUDGET before it is built."""
    arith.check_budget("BIT_BUDGET", e * p.bit_length(),
                       f"e * bitlen(p) for the layer degree {p}^{e}")
    return p**e


def cyc_layer_degree(spec: TowerSpec, n: int) -> int:
    """[level-n layer : base] over the cyclotomic line: p^((d-1)*n).
    LimitTooLarge past arith.BIT_BUDGET."""
    return _layer_degree(spec.p, (spec.d - 1) * arith.check_int(n, "level", 0))


def full_layer_degree(spec: TowerSpec, n: int) -> int:
    """[level-n layer : base] over Q: p^(d*n).  LimitTooLarge past arith.BIT_BUDGET."""
    return _layer_degree(spec.p, spec.d * arith.check_int(n, "level", 0))


@dataclass(frozen=True)
class QSets:
    """The ramified-prime counts q1/q2 with their per-prime witnesses.

    Witnesses are (ell, count) pairs; each qi equals the sum of its witness
    counts, and witness primes are pairwise distinct; see check_witnesses.
    """

    q1: int
    q2: int
    witnesses_q1: tuple[tuple[int, int], ...] = ()
    witnesses_q2: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for q, wits, tag in ((self.q1, self.witnesses_q1, "q1"),
                             (self.q2, self.witnesses_q2, "q2")):
            arith.check_int(q, tag, 0)
            for ell, c in wits:
                arith.check_int(ell, "witness prime")
                arith.check_int(c, f"witness count for {ell}", 1)
            if sum(c for _, c in wits) != q:
                raise ValueError(f"{tag}={q} does not match witness counts {wits}")
        primes = [ell for ell, _ in self.witnesses_q1 + self.witnesses_q2]
        if len(primes) != len(set(primes)):
            raise ValueError(f"witness primes must be pairwise distinct: {primes}")


def _classify_at(E: curve.WeierstrassCurve, ell: int, p: int) -> tuple[int, int]:
    """(split-multiplicative count, good-with-torsion count) contributed by ell.

    Counts are numbers of primes above ell on the cyclotomic line.  A bad
    prime below 5 cannot be classified (SmallBadPrime).  TowerSpec has proved
    ell and p prime and ell != p, so the unchecked helpers are called.

    At a good prime the residue degree is f = ord_p(ell), so ell^f = 1 mod p
    and #E(F_{ell^f}) = ell^f + 1 - s_f = 2 - s_f mod p: the test takes s_f mod
    p from curve._trace_mod in O(log f) steps, and never builds a count of
    size ell^f.
    """
    if ell < 5:
        if E.disc % ell == 0:
            raise SmallBadPrime(
                f"cannot classify reduction at bad prime {ell} < 5"
            )
        rt = curve.ReductionType.GOOD
    else:
        rt = curve._reduction_type(E, ell)
    if rt is curve.ReductionType.SPLIT_MULTIPLICATIVE:
        g = cyclotomic._splitting_infinite(ell, p).num_primes
        return g, 0
    if rt is curve.ReductionType.GOOD:
        data = cyclotomic._splitting_infinite(ell, p)
        s_f = curve._trace_mod(curve._count_points(E, ell), data.residue_order, p)
        if (2 - s_f) % p == 0:
            return 0, data.num_primes
        return 0, 0
    return 0, 0


def _ramified(spec: TowerSpec) -> tuple[int, ...]:
    return (spec.ell,) if spec.kind is TowerKind.FALSE_TATE else spec.ramified_primes


def check_witnesses(spec: TowerSpec, q: QSets) -> QSets:
    """``q`` when compute_qsets could give its witnesses in ``spec``, as far
    as that is known without the curve, else a ValueError.  In a torsion tower
    q2 = 0 and each witness is (ell, 1), ell >= 5 a prime other than p; in the
    others each witness prime is ramified, with _classify_at's count."""
    if spec.kind is TowerKind.TORSION_FIELD:
        for ell, c in q.witnesses_q1:
            if arith.check_prime(ell, "torsion witness prime", 5) == spec.p or c != 1:
                raise ValueError(f"torsion witness ({ell}, {c}) is not (a prime != {spec.p}, 1)")
        if q.q2:
            raise ValueError(f"a torsion tower has q2 = 0, got {q.q2}")
        return q
    for ell, c in q.witnesses_q1 + q.witnesses_q2:
        if ell not in _ramified(spec):
            raise ValueError(f"witness prime {ell} is not ramified in the tower")
        g = cyclotomic._splitting_infinite(ell, spec.p).num_primes
        if c != g:
            raise ValueError(f"witness {ell} has count {c}, but {g} primes lie above it")
    return q


def compute_qsets(E: curve.WeierstrassCurve, spec: TowerSpec) -> QSets:
    """Evaluate q1/q2 for the curve in the given tower.

    Requires E good ordinary at spec.p (NotGoodOrdinary otherwise).
    """
    if not curve.is_good_ordinary(E, spec.p):
        raise NotGoodOrdinary(
            f"{E.label or E.ainvs} is not good ordinary at {spec.p}"
        )
    if spec.kind is TowerKind.ZPD_COMPOSITE:
        return QSets(0, 0)

    if spec.kind is TowerKind.TORSION_FIELD:
        wits = []
        for ell in curve.bad_primes(E):
            if ell < 5:
                raise SmallBadPrime(
                    f"cannot classify reduction at bad prime {ell} < 5"
                )
            if curve.reduction_type(E, ell) is curve.ReductionType.SPLIT_MULTIPLICATIVE:
                wits.append((ell, 1))
        return QSets(q1=len(wits), q2=0, witnesses_q1=tuple(wits))

    w1, w2 = [], []
    for ell in sorted(_ramified(spec)):
        s, t = _classify_at(E, ell, spec.p)
        if s:
            w1.append((ell, s))
        if t:
            w2.append((ell, t))
    return QSets(
        q1=sum(c for _, c in w1),
        q2=sum(c for _, c in w2),
        witnesses_q1=tuple(w1),
        witnesses_q2=tuple(w2),
    )
