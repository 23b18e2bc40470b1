"""Prime-scanning density experiments, exact and reproducible.

Two scans over good-reduction primes ell <= X of a fixed curve:

* torsion scan:     how often does p divide #E(F_ell)?
* q-vanishing scan: restricted to ell = 1 (mod p), how often does p *not*
                    divide #E(F_ell)?

The two predicates are complementary on the ell = 1 (mod p) stratum, and the
suite checks that identity exactly.  For a curve whose mod-p image is all of
GL_2(F_p), Chebotarev gives the torsion-scan limit (p^2 - 2)/((p-1)(p^2-1))
(about 0.163 at p = 7); desk-scale scans land near it.

Counts, hits and fractions are exact integers/rationals; per-prime work is
curve.frobenius_trace, the certified kernel behind curve.count_points,
called directly because the scan has already dropped the bad primes.
Scanned primes are chunked and chunks may be handed to worker threads; the
merge is by position, so results do not depend on the worker count.

Scope note: the scan universe is primes 5 <= ell <= X excluding p and the
bad primes; 2 and 3 are left out because reduction classification below 5 is
out of scope.  At X >= 10^4 this shifts fractions by under 0.1%.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import curve as curve_mod
from .arith import sieve_primes
from .curve import WeierstrassCurve, frobenius_trace, is_good_ordinary
from .errors import EmptyScan, NotGoodOrdinary

_CHUNK = 512


@dataclass(frozen=True)
class ScanRow:
    """Per-prime record: the count mod p and whether the predicate hit."""

    ell: int
    count_mod_p: int
    hit: bool


@dataclass(frozen=True)
class DensityReport:
    """Exact scan outcome; ``rows`` is populated only when requested."""

    label: str | None
    p: int
    limit: int
    mode: str
    total: int
    hits: int
    rows: tuple[ScanRow, ...] | None = None

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.hits, self.total)

    @property
    def decimal(self) -> str:
        """The fraction rounded to 4 decimal places (half-even), as text."""
        scaled = self.fraction * 10**4
        q, r = divmod(scaled.numerator, scaled.denominator)
        half = scaled.denominator - 2 * r
        if half < 0 or (half == 0 and q % 2 == 1):
            q += 1
        return f"{q // 10**4}.{q % 10**4:04d}"


def count_mod(E: WeierstrassCurve, ell: int, p: int) -> int:
    """#E(F_ell) mod p for a good prime ell >= 5, by curve.frobenius_trace."""
    return (ell + 1 - frobenius_trace(E, ell)) % p


def _scan(E: WeierstrassCurve, p: int, limit: int, mode: str, workers: int,
          keep_rows: bool) -> DensityReport:
    if not isinstance(limit, int) or isinstance(limit, bool) or limit < 100:
        raise ValueError(f"scan limit must be an integer >= 100, got {limit!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not is_good_ordinary(E, p):
        raise NotGoodOrdinary(f"{E.label or E.ainvs} is not good ordinary at {p}")
    bad = set(curve_mod.bad_primes(E))
    ells = [ell for ell in sieve_primes(limit).primes
            if ell >= 5 and ell != p and ell not in bad
            and (mode != "qvanish" or ell % p == 1)]
    if not ells:
        raise EmptyScan(f"no eligible primes up to {limit}")

    def run_chunk(chunk: list[int]) -> list[ScanRow]:
        out = []
        for ell in chunk:
            nm = count_mod(E, ell, p)
            hit = (nm == 0) if mode == "torsion" else (nm != 0)
            out.append(ScanRow(ell=ell, count_mod_p=nm, hit=hit))
        return out

    chunks = [ells[i:i + _CHUNK] for i in range(0, len(ells), _CHUNK)]
    if workers == 1 or len(chunks) == 1:
        results = [run_chunk(c) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_chunk, chunks))
    rows = tuple(r for part in results for r in part)
    return DensityReport(
        label=E.label, p=p, limit=limit, mode=mode,
        total=len(rows), hits=sum(r.hit for r in rows),
        rows=rows if keep_rows else None,
    )


def scan_torsion_density(E: WeierstrassCurve, p: int, limit: int, *,
                         workers: int = 1, keep_rows: bool = False) -> DensityReport:
    """Fraction of good primes ell <= X with p | #E(F_ell)."""
    return _scan(E, p, limit, "torsion", workers, keep_rows)


def scan_q_vanishing(E: WeierstrassCurve, p: int, limit: int, *,
                     workers: int = 1, keep_rows: bool = False) -> DensityReport:
    """Fraction of good primes ell <= X, ell = 1 (mod p), with p not dividing
    #E(F_ell)."""
    return _scan(E, p, limit, "qvanish", workers, keep_rows)
