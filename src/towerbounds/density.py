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
Chunks of 512 primes go to min(workers, full chunks, os.cpu_count()) worker
processes, forked where possible, or run serially if that is at most 1; the
merge is by position, so results do not depend on the worker count.

Scope note: the scan universe is primes 5 <= ell <= X excluding p and the
bad primes; 2 and 3 are left out because reduction classification below 5 is
out of scope.  At X >= 10^4 this shifts fractions by under 0.1%.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .arith import check_int, check_prime, sieve_primes
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

    def __post_init__(self):
        check_prime(self.p, "p")
        check_int(self.limit, "scan limit", 100)
        if self.mode not in ("torsion", "qvanish"):
            raise ValueError(f"unknown scan mode {self.mode!r}")
        check_int(self.hits, "hits", 0)
        if not self.hits <= check_int(self.total, "total", 1):
            raise ValueError(f"need 0 <= hits <= total >= 1, got {self.hits}/{self.total}")

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.hits, self.total)

    @property
    def decimal(self) -> str:
        """The fraction rounded to 4 decimal places (half-even), as text."""
        q = round(self.fraction * 10**4)  # exact, ties to even
        return f"{q // 10**4}.{q % 10**4:04d}"


def count_mod(E: WeierstrassCurve, ell: int, p: int) -> int:
    """#E(F_ell) mod p for a good prime ell >= 5, by curve.frobenius_trace."""
    return (ell + 1 - frobenius_trace(E, ell)) % p


def _scan_chunk(E: WeierstrassCurve, p: int, mode: str, chunk: list[int]) -> list[ScanRow]:
    # a torsion hit is p | #E(F_ell), a qvanish hit the opposite
    nms = [(ell, count_mod(E, ell, p)) for ell in chunk]
    return [ScanRow(ell, nm, (nm == 0) == (mode == "torsion")) for ell, nm in nms]


def _scan(E: WeierstrassCurve, p: int, limit: int, mode: str, workers: int,
          keep_rows: bool) -> DensityReport:
    check_int(limit, "scan limit", 100)
    check_int(workers, "workers", 1)
    if not is_good_ordinary(E, p):
        raise NotGoodOrdinary(f"{E.label or E.ainvs} is not good ordinary at {p}")
    ells = [ell for ell in sieve_primes(limit).primes
            if ell >= 5 and ell != p and E.disc % ell
            and (mode != "qvanish" or ell % p == 1)]
    if not ells:
        raise EmptyScan(f"no eligible primes up to {limit}")
    chunks = [ells[i:i + _CHUNK] for i in range(0, len(ells), _CHUNK)]
    procs = min(workers, len(ells) // _CHUNK, os.cpu_count() or 1)
    if procs <= 1:
        results = [_scan_chunk(E, p, mode, c) for c in chunks]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None)
        with ProcessPoolExecutor(procs, ctx) as pool:
            results = list(pool.map(partial(_scan_chunk, E, p, mode), chunks))
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
