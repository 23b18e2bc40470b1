from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import brute_count_projective
import towerbounds
from towerbounds.curve import count_points
from towerbounds.density import (
    DensityReport,
    count_mod,
    scan_q_vanishing,
    scan_torsion_density,
)
from towerbounds.errors import EmptyScan, NotGoodOrdinary


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


class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records its arguments and maps in
    this process, so no worker starts."""

    made: list = []

    def __init__(self, max_workers, mp_context=None):
        self.made.append((max_workers, mp_context))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestPool:
    @pytest.fixture
    def made(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
        _RecordingExecutor.made = []
        return _RecordingExecutor.made

    @pytest.fixture(scope="class")
    def serial(self, curve_11a2):
        return scan_torsion_density(curve_11a2, 7, 20000, keep_rows=True)

    # 11a2 at p = 7 has 2,256 eligible primes up to 20,000: four full chunks
    @pytest.mark.parametrize("cpus, jobs, want", [
        (2, 10**6, 2), (64, 10**6, 4), (3, 3, 3), (64, 2, 2), (64, 1, None), (None, 8, None),
    ])
    def test_pool_size(self, curve_11a2, monkeypatch, made, serial, cpus, jobs, want):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        rep = scan_torsion_density(curve_11a2, 7, 20000, workers=jobs, keep_rows=True)
        assert rep == serial
        assert [n for n, _ in made] == ([] if want is None else [want])
        assert multiprocessing.active_children() == []

    def test_one_full_chunk_runs_serially(self, curve_11a2, made):
        rep = scan_torsion_density(curve_11a2, 7, 5000, workers=2)
        assert rep.total < 2 * 512
        assert made == []

    def test_workers_are_forked(self, curve_11a2, monkeypatch, made):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        scan_torsion_density(curve_11a2, 7, 20000, workers=2)
        assert [ctx.get_start_method() for _, ctx in made] == ["fork"]

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
