"""towerbounds benchmark: four seeded closed-loop workloads with one client.

    python3 bench/run.py --workload {scan,cli,count,algebra} --seed N \
        --seconds S --trace {0,1}
    python3 bench/run.py --smoke          # every workload at tiny size

Run it from the root of a checkout: the library is taken from ./src, and
scratch files go to ./.bench_build.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
give the same figures for people, with the tail percentile, its sample
count and fail_ratio.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
runs the workload untraced and then traced on the same ops (their outputs
must be identical), runs a probe of every layer under the tracer, writes the
spans to .bench_build/trace-<workload>-<seed>.jsonl and reports the
per-layer metrics, each with the end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path.cwd()
BUILD = ROOT / ".bench_build"

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 11


def die(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


class SetupClock:
    """Times the set-up: building the seeded inputs, plus a fresh interpreter
    that imports towerbounds and loads the bundled corpus and the run's
    curve file.  The first rep is taken before the run and the others
    between ops, about one per second of the run, so that the reps see the
    machine over the run's whole length rather than at one moment; what
    ``median`` reports is the median of SETUP_REPS reps."""

    SCRIPT = ("import sys\nfrom towerbounds import catalog\n"
              "catalog.load_bundled()\ncatalog.load_curve_file(sys.argv[1])\n")

    def __init__(self, env, cls, seed: int, seconds: float):
        self.env, self.cls, self.seed = env, cls, seed
        self.interval = seconds / SETUP_REPS
        self.times: list[float] = []
        self.paused = 0.0  # time spent in reps, kept off the run's clock

    def rep(self) -> None:
        t = time.perf_counter()
        wl = self.cls(self.env, self.seed)
        subprocess.run([self.env.python, "-c", self.SCRIPT, str(wl.curve_file)],
                       env=self.env.env, cwd=self.env.root, check=True, timeout=120)
        self.times.append(time.perf_counter() - t)
        self.paused += self.times[-1]

    def between_ops(self, elapsed: float) -> None:
        if len(self.times) < SETUP_REPS and elapsed >= len(self.times) * self.interval:
            self.rep()

    def median(self) -> float:
        while len(self.times) < SETUP_REPS:
            self.rep()
        return statistics.median(self.times)


def prepare(env, cls, seed: int):
    """The run's workload, built untimed: this also builds what the checks
    and the set-up reps share, and one interpreter start warms the file
    cache."""
    subprocess.run([env.python, "-c", "import towerbounds"], env=env.env, cwd=env.root,
                   check=True, timeout=120)
    return cls(env, seed)


def closed_loop(wl, seconds: float, min_ops: int, max_ops=None, tracer=None, validate=None,
                clock=None):
    """Run ops one after another until ``seconds`` have passed and at least
    ``min_ops`` ran, stopping only at the end of a block, or until
    ``max_ops`` ran.  Whole blocks make the mix of a run the same for every
    seed.  In-process outputs are checked as they come; subprocess outputs
    are kept and checked later.  ``clock`` takes its set-up reps between
    ops; their time does not count towards ``seconds``."""
    done, lat = [], []
    t0 = time.perf_counter()
    for i, op in enumerate(wl.ops()):
        if tracer is not None:
            if not wl.subprocess:
                tracer.install()
            tracer.begin_op(i)
        s = time.perf_counter()
        out = wl.run(op, tracer, i)
        e = time.perf_counter()
        if tracer is not None:
            tracer.end_op()
            if not wl.subprocess:
                tracer.uninstall()
        lat.append(e - s)
        if wl.subprocess:
            done.append((op, out, None))
        else:
            done.append((op, hash(repr(out)), wl.check(op, out, validate)))
        elapsed = e - t0 - (clock.paused if clock else 0)
        if len(done) == max_ops or (elapsed >= seconds and len(done) >= min_ops
                                    and len(done) % wl.block == 0):
            break
        if clock is not None:
            clock.between_ops(elapsed)
    return done, lat


def check_all(wl, done, validate):
    """Problems per op; subprocess outputs are checked here, after timing."""
    return [probs if probs is not None else wl.check(op, out, validate)
            for op, out, probs in done]


def tally(problem_lists, run_problems) -> tuple[int, int, Counter]:
    """(wrong outputs, failed ops, reasons) from the problems of each op and
    the problems found outside the ops (jobs invariance, probe, traced
    replay), which count as wrong outputs but not as ops."""
    wrong = len(run_problems)
    failed = 0
    reasons = Counter(why for _, why in run_problems)
    for probs in problem_lists:
        if probs:
            failed += 1
            wrong += any(kind == "mismatch" for kind, _ in probs)
            reasons.update(why for _, why in probs)
    return wrong, failed, reasons


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def end_to_end(lat, setup_s):
    """The end-to-end metrics as {name: (value, unit)}, and notes.  tail_ms
    is the highest percentile with 10 samples beyond it, and only runs of
    20 ops or more have one."""
    ms = sorted(x * 1000 for x in lat)
    n = len(ms)
    metrics = {
        "ops_per_s": (n / sum(lat), "1/s"),
        "p50_ms": (statistics.median(ms), "ms"),
    }
    if n >= 20:
        metrics["tail_ms"] = (ms[n - 11], "ms")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    notes = [f"{k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
    notes.append(f"tail_ms is p{100 * (n - 10) / n:.1f} of {n} ops" if n >= 20
                 else f"no tail_ms: {n} ops, fewer than 20")
    return metrics, notes


def per_layer(env, name, seed, wl, done, lat, validate):
    """Replay the ops of ``done`` traced, run the probe, and return the
    per-layer metrics, notes and problems."""
    tracer = spans.Tracer()
    tdone, tlat = closed_loop(wl, 0, len(done), len(done), tracer=tracer, validate=validate)
    probs = check_all(wl, tdone, validate)
    extra_problems = [("mismatch", "traced output differs from untraced")
                      for (_, a, _), (_, b, _) in zip(done, tdone) if a != b]
    extra, probe_problems = layers.probe(env, seed, tracer)
    extra_problems += [("mismatch", p) for p in probe_problems]
    values = layers.layer_metrics(tracer, extra, set(range(len(tdone))), len(tdone),
                                  sum(tlat) / sum(lat) - 1)
    dump = BUILD / f"trace-{name}-{seed}.jsonl"
    tracer.dump(dump)
    metrics = {k: (values[k], unit) for k, unit, _, _ in layers.LAYER_METRICS}
    notes = [f"{k} = {values[k]:.6g} {unit}  | should move: {moves}"
             if values[k] is not None else f"{k} = MISSING"
             for k, unit, _, moves in layers.LAYER_METRICS]
    notes.append(f"traced {len(tdone)} ops; spans written to {dump.relative_to(ROOT)}")
    return metrics, notes, probs, extra_problems


def run_workload(env, name, seed, seconds, trace, max_ops):
    cls = workloads.WORKLOADS[name]
    wl = prepare(env, cls, seed)
    from towerbounds.cli import validate_report_json as validate

    extra_problems = wl.jobs_invariance() if name == "scan" else []
    if not trace:
        clock = SetupClock(env, cls, seed, seconds)
        clock.rep()
        done, lat = closed_loop(wl, seconds, wl.min_ops, max_ops, validate=validate,
                                clock=clock)
        setup_s = clock.median()
        probs = check_all(wl, done, validate)
        metrics, notes = end_to_end(lat, setup_s)
    else:
        cap = min(max_ops or wl.max_traced_ops, wl.max_traced_ops)
        done, lat = closed_loop(wl, seconds / 2, min(wl.min_ops // 2, cap), cap,
                                validate=validate)
        metrics, notes, probs, more = per_layer(env, name, seed, wl, done, lat, validate)
        extra_problems += more
    wrong, failed, reasons = tally(probs, extra_problems)
    return metrics, notes, wrong, failed, len(probs), reasons


def report(name, metrics, notes, wrong, failed, attempted, reasons) -> None:
    for line in notes:
        print(f"{name}: {line}")
    print(f"{name}: fail_ratio = {failed}/{attempted} = {failed / attempted:.4f}")
    for why, n in reasons.most_common():
        print(f"{name}:   {n} x {why}")
    print(json.dumps({
        "correct": wrong == 0 and all(v is not None for v, _ in metrics.values()),
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def smoke(env) -> int:
    """Every workload, untraced and traced, at tiny size: each metric named
    in BENCHMARK.json must be emitted with its unit, except tail_ms, which
    runs of fewer than 20 ops do not have."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    table = {m[0]: m[1] for m in layers.LAYER_METRICS}
    bad = [f"per_layer {k}: BENCHMARK.json says {u}, layers.py says {table.get(k)}"
           for k, u in wanted[1].items() if table.get(k) != u]
    bad += [f"workload {w['name']} unknown" for w in spec["workloads"]
            if w["name"] not in workloads.WORKLOADS]
    for w in spec["workloads"]:
        for trace in (0, 1):
            r = subprocess.run([sys.executable, __file__, "--workload", w["name"], "--seed", "1",
                                "--seconds", "0", "--trace", str(trace), "--max-ops", "4"],
                               cwd=ROOT, capture_output=True, text=True, timeout=600)
            last = json.loads(r.stdout.splitlines()[-1]) if r.stdout.strip() else {}
            got = last.get("metrics", {})
            optional = {"tail_ms"} if last.get("attempted", 0) < 20 else set()
            bad += [f"{w['name']} trace={trace}: {k} missing or not in {u}"
                    for k, u in wanted[trace].items()
                    if got.get(k, {}).get("unit") != u and not (k in optional and k not in got)]
            bad += [f"{w['name']} trace={trace}: {k} emitted but not in BENCHMARK.json"
                    for k in got if k not in wanted[trace]]
            if r.returncode != 0:
                bad.append(f"{w['name']} trace={trace}: exit {r.returncode}: {r.stderr[-300:]}")
            print(f"smoke {w['name']} trace={trace}: exit {r.returncode}, "
                  f"{len(got)} metrics, correct={last.get('correct')}")
    for line in bad:
        print(f"smoke: {line}")
    print("smoke:", "FAIL" if bad else "ok")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "towerbounds" / "__init__.py").is_file():
        die(f"no towerbounds sources under {ROOT / 'src'}; run from a checkout root")
    sys.path.insert(0, str(ROOT / "src"))
    import towerbounds

    if Path(towerbounds.__file__).resolve().parent != (ROOT / "src" / "towerbounds").resolve():
        die(f"imported towerbounds from {towerbounds.__file__}, not from this checkout")
    env = workloads.Env(ROOT, BUILD / f"run-{os.getpid()}")
    if args.smoke:
        return smoke(env)
    if args.workload is None:
        die("--workload is required")
    env.scratch.mkdir(parents=True, exist_ok=True)
    try:
        result = run_workload(env, args.workload, args.seed, args.seconds, bool(args.trace),
                              args.max_ops)
    finally:
        shutil.rmtree(env.scratch, ignore_errors=True)
    report(args.workload, *result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
