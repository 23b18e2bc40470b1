from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import brute_count_projective
import towerbounds
from towerbounds import density
from towerbounds.curve import count_points
from towerbounds.density import (
    DensityReport,
    count_mod,
    scan_q_vanishing,
    scan_torsion_density,
)
from towerbounds.errors import EmptyScan, InternalInvariantViolation, NotGoodOrdinary


class TestCountMod:
    def test_matches_count_points(self, corpus):
        for entry in corpus.values():
            E = entry.curve
            for ell in (5, 7, 11, 13, 67, 97, 101):
                if E.disc % ell == 0:
                    continue
                assert count_mod(E, ell, 7) == count_points(E, ell).count % 7

    def test_both_sides_of_mestre_bound(self, curve_11a2):
        # the character sum decides up to 229, the certificate above it
        for ell in (223, 227, 229, 233, 239):
            pc = count_points(curve_11a2, ell)
            assert pc.count == brute_count_projective(curve_11a2.ainvs, ell)
            assert count_mod(curve_11a2, ell, 7) == pc.count % 7


class TestScans:
    def test_small_torsion_scan(self, curve_11a2):
        rep = scan_torsion_density(curve_11a2, 7, 1000, keep_rows=True)
        assert rep.mode == "torsion"
        # universe: pi(1000) = 168 primes, minus {2, 3} (below 5), 7 (= p),
        # and 11 (bad reduction)
        assert rep.total == 168 - 4
        assert rep.hits == sum(r.hit for r in rep.rows)
        for r in rep.rows:
            assert r.hit == (r.count_mod_p == 0)
            assert r.ell not in (2, 3, 7, 11)

    def test_qvanish_restricts_to_one_mod_p(self, curve_11a2):
        rep = scan_q_vanishing(curve_11a2, 7, 2000, keep_rows=True)
        for r in rep.rows:
            assert r.ell % 7 == 1
            assert r.hit == (r.count_mod_p != 0)

    def test_complementarity_on_common_stratum(self, curve_11a2):
        tor = scan_torsion_density(curve_11a2, 7, 3000, keep_rows=True)
        qv = scan_q_vanishing(curve_11a2, 7, 3000, keep_rows=True)
        stratum = [r for r in tor.rows if r.ell % 7 == 1]
        assert len(stratum) == qv.total
        hits_there = sum(r.hit for r in stratum)
        assert hits_there + qv.hits == qv.total

    def test_full_torsion_at_small_prime(self, curve_11a3):
        # 11a3 has a rational 5-torsion point, so 5 | #E(F_ell) at every good ell
        rep = scan_torsion_density(curve_11a3, 5, 500)
        assert rep.fraction == 1
        qv = scan_q_vanishing(curve_11a3, 5, 500)
        assert qv.fraction == 0

    def test_worker_count_invariance(self, curve_11a2):
        one = scan_torsion_density(curve_11a2, 7, 20000, workers=1, keep_rows=True)
        three = scan_torsion_density(curve_11a2, 7, 20000, workers=3, keep_rows=True)
        assert one == three

    def test_rows_dropped_by_default(self, curve_11a2):
        rep = scan_torsion_density(curve_11a2, 7, 500)
        assert rep.rows is None

    def test_not_good_ordinary(self, corpus):
        with pytest.raises(NotGoodOrdinary):
            scan_torsion_density(corpus["cm432"].curve, 5, 1000)
        with pytest.raises(NotGoodOrdinary):
            scan_torsion_density(corpus["11a3"].curve, 19, 1000)  # supersingular

    def test_empty_scan(self, curve_11a3):
        # no primes = 1 (mod 97) exist below 100
        with pytest.raises(EmptyScan):
            scan_q_vanishing(curve_11a3, 97, 100)

    def test_limit_validation(self, curve_11a2):
        with pytest.raises(ValueError):
            scan_torsion_density(curve_11a2, 7, 99)
        with pytest.raises(ValueError):
            scan_torsion_density(curve_11a2, 7, 1000, workers=0)


class TestPool:
    @pytest.fixture
    def forked(self, monkeypatch):
        """The pids of the children os.fork starts, recorded in the parent."""
        if not hasattr(os, "fork"):
            pytest.skip("no os.fork on this platform")
        pids, real = [], os.fork

        def fork():
            pid = real()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return pids

    @pytest.fixture(scope="class")
    def serial(self, curve_11a2):
        return scan_torsion_density(curve_11a2, 7, 10000, keep_rows=True)

    @staticmethod
    def assert_no_child_left():
        assert multiprocessing.active_children() == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    # 11a2 at p = 7 has 1,225 eligible primes up to 10,000: four full shares
    @pytest.mark.parametrize("cpus, jobs, want", [
        (2, 10**6, 2), (64, 10**6, 4), (3, 3, 3), (64, 2, 2), (64, 1, None), (None, 8, None),
    ])
    def test_pool_size(self, curve_11a2, monkeypatch, forked, serial, cpus, jobs, want):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        rep = scan_torsion_density(curve_11a2, 7, 10000, workers=jobs, keep_rows=True)
        assert rep == serial
        # this process computes one share, so want processes fork want - 1 children
        assert len(forked) == (0 if want is None else want - 1)
        self.assert_no_child_left()

    def test_below_two_shares_runs_serially(self, curve_11a2, monkeypatch, forked):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        rep = scan_torsion_density(curve_11a2, 7, 3000, workers=2)
        assert rep.total < 2 * density._MIN_SHARE
        assert forked == []
        # the edge: two shares of _MIN_SHARE primes fork, one prime fewer does not
        half = rep.total // 2
        monkeypatch.setattr(density, "_MIN_SHARE", half + 1)
        assert scan_torsion_density(curve_11a2, 7, 3000, workers=2) == rep
        assert forked == []
        monkeypatch.setattr(density, "_MIN_SHARE", half)
        assert scan_torsion_density(curve_11a2, 7, 3000, workers=2) == rep
        assert len(forked) == 1

    def test_workers_are_forked(self, curve_11a2, monkeypatch, forked, serial):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert scan_torsion_density(curve_11a2, 7, 10000, workers=2, keep_rows=True) == serial
        assert len(forked) == 1 and forked[0] != os.getpid()
        self.assert_no_child_left()

    def test_serial_without_fork(self, curve_11a2, monkeypatch, serial):
        monkeypatch.delattr(os, "fork", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert scan_torsion_density(curve_11a2, 7, 10000, workers=4, keep_rows=True) == serial

    @pytest.mark.parametrize("share", [0, 1, 3])
    def test_worker_error_reaches_parent(self, curve_11a2, monkeypatch, forked, serial, share):
        # share 0 runs in this process, shares 1 and 3 in children
        ells = [r.ell for r in serial.rows]
        bad = ells[share::4][-1]
        real = density.count_mod

        def count_mod(E, ell, p):
            if ell == bad:
                raise InternalInvariantViolation(f"planted at {ell}")
            return real(E, ell, p)

        monkeypatch.setattr(density, "count_mod", count_mod)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        with pytest.raises(InternalInvariantViolation, match=f"planted at {bad}"):
            scan_torsion_density(curve_11a2, 7, 10000, workers=4)
        assert len(forked) == 3
        self.assert_no_child_left()

    def test_parent_error_kills_workers(self, curve_11a2, monkeypatch, forked, serial):
        # share 0 fails at once while share 1 would run for 30 s: the parent
        # kills its child rather than wait for it
        ells = [r.ell for r in serial.rows]
        real = density.count_mod

        def count_mod(E, ell, p):
            if ell == ells[0]:
                raise InternalInvariantViolation("planted")
            if ell == ells[1]:
                time.sleep(30)
            return real(E, ell, p)

        monkeypatch.setattr(density, "count_mod", count_mod)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        start = time.monotonic()
        with pytest.raises(InternalInvariantViolation):
            scan_torsion_density(curve_11a2, 7, 10000, workers=2)
        assert time.monotonic() - start < 10
        assert len(forked) == 1
        self.assert_no_child_left()

    def test_fork_failure_leaves_no_child(self, curve_11a2, monkeypatch, forked):
        # the second fork fails: the first child is killed and reaped
        real, calls = os.fork, []

        def fork():
            calls.append(None)
            if len(calls) == 2:
                raise BlockingIOError("no more processes")
            return real()

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        with pytest.raises(BlockingIOError):
            scan_torsion_density(curve_11a2, 7, 10000, workers=4)
        assert len(forked) == 1
        self.assert_no_child_left()

    def test_worker_that_dies_is_reported(self, curve_11a2, monkeypatch, forked, serial):
        ells = [r.ell for r in serial.rows]
        real = density.count_mod

        def count_mod(E, ell, p):
            if ell == ells[1]:
                os._exit(3)  # a child that ends without sending a result
            return real(E, ell, p)

        monkeypatch.setattr(density, "count_mod", count_mod)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.raises(ChildProcessError, match="without a result"):
            scan_torsion_density(curve_11a2, 7, 10000, workers=2)
        self.assert_no_child_left()

    def test_import_starts_no_pool_machinery(self):
        # every CLI call pays for what the package imports at load time
        code = ("import sys; before = set(sys.modules); import towerbounds.cli; "
                "print(sorted({'concurrent.futures', 'multiprocessing'} "
                "& (set(sys.modules) - before)))")
        src = str(Path(towerbounds.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env).stdout
        assert out.strip() == "[]"


class TestDecimalRendering:
    def mk(self, hits, total):
        return DensityReport(label=None, p=7, limit=100, mode="torsion",
                             total=total, hits=hits)

    def test_exact_quarters(self):
        assert self.mk(1, 8).decimal == "0.1250"
        assert self.mk(1, 2).decimal == "0.5000"
        assert self.mk(1, 1).decimal == "1.0000"

    def test_half_even(self):
        # 1/20000 = 0.00005 rounds to even -> 0.0000
        assert self.mk(1, 20000).decimal == "0.0000"
        # 3/20000 = 0.00015 rounds to even -> 0.0002
        assert self.mk(3, 20000).decimal == "0.0002"

    def test_plain_rounding(self):
        assert self.mk(1, 3).decimal == "0.3333"
        assert self.mk(2, 3).decimal == "0.6667"

    def test_fraction_property(self):
        assert self.mk(3, 12).fraction == Fraction(1, 4)
