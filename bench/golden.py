"""Capture the golden outputs of every call in the cli catalog.

    python3 bench/golden.py          # from a checkout root; rewrites bench/golden_cli.json

The golden file pins stdout, the exit code and the error name of each call
at the revision it was captured from; the cli workload compares every op of
a run against it.  Recapture only on purpose: a later change that moves
these bytes is a change of output, not of speed.
"""

import json
import sys
from pathlib import Path

ROOT = Path.cwd()
BUILD = ROOT / ".bench_build"
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import workloads  # noqa: E402

EXPECTED_CODE = {"domain_error": 1, "usage_error": 2}


def main() -> int:
    env = workloads.Env(ROOT, BUILD / "golden")
    env.scratch.mkdir(parents=True, exist_ok=True)
    pool_file = env.scratch / "cli-curves.jsonl"
    gen.write_jsonl(pool_file, gen.cli_pool())
    golden, bad = {}, []
    for slot, argvs in gen.cli_catalog(env.corpus()).items():
        for argv in argvs:
            concrete = [str(pool_file) if a == gen.CURVES else a for a in argv]
            code, out, err = workloads.run_cli_inprocess(concrete)
            if code != EXPECTED_CODE.get(slot, 0):
                bad.append(f"{slot}: exit {code} ({err}) for {argv}")
            golden[json.dumps(argv)] = {"code": code, "stdout": out, "error": err}
    path = Path(__file__).resolve().parent / "golden_cli.json"
    path.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(golden)} calls written to {path.name}")
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
