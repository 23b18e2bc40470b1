"""Replay every call of the benchmark's golden CLI file through cli.main in
this process: stdout, the exit code and the error name must match the
captured bytes exactly."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    """bench/gen.py, which fixes the curves behind the {CURVES} placeholder,
    and bench/workloads.py, which runs a call in process as the golden
    capture did."""
    sys.path.insert(0, str(BENCH))
    try:
        import gen
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return gen, workloads


def test_golden_cli_replay(bench, tmp_path):
    gen, workloads = bench
    pool = tmp_path / "cli-curves.jsonl"
    gen.write_jsonl(pool, gen.cli_pool())
    golden = json.loads((BENCH / "golden_cli.json").read_text(encoding="utf-8"))
    assert len(golden) == 445
    mismatches = []
    for key, want in golden.items():
        argv = [str(pool) if a == gen.CURVES else a for a in json.loads(key)]
        code, out, error = workloads.run_cli_inprocess(argv)
        got = {"code": code, "stdout": out, "error": error}
        if got != want:
            mismatches.append((key, want, got))
    assert not mismatches, f"{len(mismatches)} calls differ, the first: {mismatches[0]}"
