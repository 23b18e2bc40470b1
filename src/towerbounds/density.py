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

Process model: a scan runs on procs = min(workers, primes // _MIN_SHARE,
os.cpu_count()) processes, this one included.  Share i is the stride
ells[i::procs].  This process computes share 0 and forks one child per
other share; each child sends its counts, or the exception it raised,
through a pipe and leaves by os._exit.  This process kills its children if
anything fails, and reaps every child before the scan returns.  With procs
at most 1, or where os.fork is absent, this process computes the one share
and starts no process.  The merge is by position, so results do not depend
on the worker count.

Scope note: the scan universe is primes 5 <= ell <= X excluding p and the
bad primes; 2 and 3 are left out because reduction classification below 5 is
out of scope.  At X >= 10^4 this shifts fractions by under 0.1%.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from .arith import check_int, check_prime, sieve_primes
from .curve import WeierstrassCurve, frobenius_trace, is_good_ordinary
from .errors import EmptyScan, NotGoodOrdinary

#: fewest primes per process; fewer eligible primes than twice this run serially
_MIN_SHARE = 256


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


def _counts(E: WeierstrassCurve, p: int, ells: list[int]) -> list[int]:
    return [count_mod(E, ell, p) for ell in ells]


def _child(E: WeierstrassCurve, p: int, ells: list[int], r: int, w: int) -> None:
    """A forked child's whole life: close ``r``, count ``ells``, send the
    pickled (counts, None) or (None, exception) through ``w`` and leave by
    os._exit, never returning into the caller's code."""
    code = 1
    try:
        import pickle

        os.close(r)
        try:
            msg = (_counts(E, p, ells), None)
        except Exception as e:  # handed to the parent, which raises it
            msg = (None, e)
        with open(w, "wb") as fh:
            fh.write(pickle.dumps(msg))
        code = 0
    finally:
        os._exit(code)


def _forked_counts(E: WeierstrassCurve, p: int, ells: list[int], procs: int) -> list[int]:
    """count_mod over ``ells`` on ``procs`` >= 1 processes: this one computes
    ells[0::procs] and forks one child for each other stride, merged by
    position.  Children are killed on any error and always reaped.  At one
    process nothing is forked, and neither pickle nor signal is imported."""
    counts = [0] * len(ells)
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for i in range(1, procs):
            import pickle
            import signal

            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(E, p, ells[i::procs], r, w)
            os.close(w)
            children.append((pid, r))
        counts[0::procs] = _counts(E, p, ells[0::procs])
        for i, (pid, r) in enumerate(children, 1):
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            if not data:
                raise ChildProcessError(f"scan worker {pid} exited without a result")
            share, err = pickle.loads(data)
            if err is not None:
                raise err
            counts[i::procs] = share
        return counts
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, r in children:
            os.close(r)
            os.waitpid(pid, 0)


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
    procs = max(1, min(workers, len(ells) // _MIN_SHARE, os.cpu_count() or 1))
    counts = _forked_counts(E, p, ells, procs if hasattr(os, "fork") else 1)
    # a torsion hit is p | #E(F_ell), a qvanish hit the opposite
    hits = [(nm == 0) == (mode == "torsion") for nm in counts]
    return DensityReport(
        label=E.label, p=p, limit=limit, mode=mode, total=len(ells), hits=sum(hits),
        rows=tuple(map(ScanRow, ells, counts, hits)) if keep_rows else None,
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
