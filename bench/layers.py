"""Per-layer metrics of a traced run, and the probe that makes every layer
show up in every workload's traced run.

Each metric names the end-to-end metric and workload it should move; the
traced run prints that next to the value.  Values come from all spans of the
traced run: the workload's traced ops plus the probe below.
"""

from __future__ import annotations

import json
import random
import re
import statistics
import subprocess
import time

import gen
import oracle
import spans as spans_mod

SUBCOMMANDS = ("invariants", "reduction", "count", "splitting", "qsets", "bounds",
               "kida", "wprep", "density")

# (name, unit, better, should move)
LAYER_METRICS = [
    ("import.interpreter_ms", "ms", "lower", "floor under p50_ms on cli and setup_s"),
    ("import.towerbounds_ms", "ms", "lower", "p50_ms on cli; setup_s on every workload"),
    ("import.numpy_ms", "ms", "lower", "p50_ms on cli; setup_s on every workload"),
    ("catalog.load_bundled_ms", "ms", "lower", "p50_ms on cli"),
    ("catalog.load_curve_file_ms", "ms", "lower", "p50_ms on cli"),
    *[(f"cli.main_ms.{s}", "ms", "lower", "p50_ms on cli") for s in SUBCOMMANDS],
    ("cli.self_ms", "ms", "lower", "p50_ms on cli"),
    ("arith.sieve_primes_ms", "ms", "lower", "ops_per_s on scan; p50_ms on count"),
    ("arith.factorize_us", "us", "lower", "ops_per_s on scan; p50_ms on count"),
    ("arith.multiplicative_order_us", "us", "lower", "ops_per_s on scan; p50_ms on count"),
    ("curve.count_points_ms.l1e4", "ms", "lower", "p50_ms, tail_ms on count"),
    ("curve.count_points_ms.l1e5", "ms", "lower", "p50_ms, tail_ms on count"),
    ("curve.count_points_ms.l1e6", "ms", "lower", "p50_ms, tail_ms on count"),
    ("curve.count_points.calls", "count", "lower", "p50_ms, tail_ms on count"),
    ("curve.reduction_type_us", "us", "lower", "p50_ms, tail_ms on count"),
    ("density.count_mod_us.l1e3", "us", "lower", "ops_per_s, p50_ms on scan"),
    ("density.count_mod_us.l1e4", "us", "lower", "ops_per_s, p50_ms on scan"),
    ("density.count_mod_us.l1e5", "us", "lower", "ops_per_s, p50_ms on scan"),
    ("density.count_mod.calls", "count", "lower", "ops_per_s, p50_ms on scan"),
    ("density.eligible_ratio", "ratio", "higher", "ops_per_s, p50_ms on scan"),
    ("density.kernel_share", "ratio", "lower", "ops_per_s, p50_ms on scan"),
    ("density.merge_ms", "ms", "lower", "ops_per_s, p50_ms on scan"),
    ("density.parallel_efficiency", "ratio", "higher", "ops_per_s, p50_ms on scan"),
    ("cyclotomic.splitting_infinite_us", "us", "lower", "tail_ms on count"),
    ("tower.compute_qsets_ms", "ms", "lower", "tail_ms on count"),
    ("tower.compute_qsets_self_ms", "ms", "lower", "tail_ms on count"),
    ("bounds.growth_report_us", "us", "lower", "ops_per_s on algebra"),
    ("bounds.kida_lambda_us", "us", "lower",
     "ops_per_s on algebra, barely: Kida's lambda is under 1% of an algebra op"),
    ("series.expand_char_element_us", "us", "lower", "ops_per_s on algebra"),
    ("series.series_multiply_us", "us", "lower", "ops_per_s on algebra"),
    ("series.weierstrass_prepare_us", "us", "lower", "ops_per_s on algebra"),
    ("series.text_roundtrip_us", "us", "lower", "ops_per_s on algebra"),
    ("trace.overhead_ratio", "ratio", "lower", "none (cost of tracing)"),
]

_SCALE = {"ms": 1e-6, "us": 1e-3}


def _decade(x: int) -> int:
    """k with 10^(k-0.5) <= x < 10^(k+0.5)."""
    k = 0
    while x >= 10 ** (k + 0.5):
        k += 1
    return k


# --- probe ---------------------------------------------------------------------

def _median_wall(cmd, env, reps: int) -> float:
    ts = []
    for _ in range(reps):
        t = time.perf_counter()
        subprocess.run(cmd, env=env.env, cwd=env.root, check=True, capture_output=True,
                       timeout=60)
        ts.append(time.perf_counter() - t)
    return statistics.median(ts)


def import_times(env, reps: int = 3) -> dict[str, float]:
    """Fresh-process import costs in ms: bare interpreter start, and the
    cumulative -X importtime figures of towerbounds and numpy."""
    found = {"towerbounds": [], "numpy": []}
    for _ in range(reps):
        r = subprocess.run([env.python, "-X", "importtime", "-c", "import towerbounds"],
                           env=env.env, cwd=env.root, check=True, capture_output=True,
                           text=True, timeout=60)
        for line in r.stderr.splitlines():
            m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$", line)
            if m and m.group(2) in found:
                found[m.group(2)].append(int(m.group(1)) / 1000)
    return {
        "import.interpreter_ms": 1000 * _median_wall([env.python, "-c", "pass"], env, 5),
        "import.towerbounds_ms": statistics.median(found["towerbounds"]),
        "import.numpy_ms": statistics.median(found["numpy"]),
    }


def parallel_efficiency(env, seed: int, reps: int = 3) -> tuple[float, list[str]]:
    """t1 / (2 t2) on the first torsion op of the scan workload's seeded
    inputs (limit near 3e4), from untraced ``density`` subprocesses at
    --jobs 1 and 2, alternating, median of ``reps`` each."""
    import workloads

    scan = workloads.Scan(env, seed)
    op = next(o for o in scan.op_list if o["mode"] == "torsion")
    walls, outs = {1: [], 2: []}, set()
    for _ in range(reps):
        for jobs in (1, 2):
            t = time.perf_counter()
            r = subprocess.run([env.python, "-m", "towerbounds", *scan.argv(op, jobs)],
                               env=env.env, cwd=env.root, capture_output=True, timeout=120)
            walls[jobs].append(time.perf_counter() - t)
            outs.add((r.returncode, r.stdout))
    problems = [] if len(outs) == 1 else ["density output depends on --jobs"]
    return statistics.median(walls[1]) / (2 * statistics.median(walls[2])), problems


def probe(env, seed: int, tracer) -> tuple[dict[str, float], list[str]]:
    """Call every layer at fixed sizes under the tracer.  Returns the
    measurements that are not spans, and the problems found in outputs."""
    from towerbounds import arith, bounds, catalog, curve, cyclotomic, density, series, tower

    import workloads

    rng = random.Random(f"probe:{seed}")
    golden = workloads.load_golden()
    extra = import_times(env)
    extra["density.parallel_efficiency"], problems = parallel_efficiency(env, seed)
    corpus = env.corpus()
    rec = corpus[1]  # 11a2
    inv = oracle.invariants(rec["ainvs"])
    E = curve.curve_from_ainvs(rec["ainvs"], label=rec["label"])

    tracer.install()
    try:
        pool_file = env.scratch / "probe-curves.jsonl"
        gen.write_jsonl(pool_file, gen.cli_file_order(seed, gen.cli_pool()))
        for _ in range(5):
            catalog.load_bundled()
            catalog.load_curve_file(pool_file)

        cat = workloads.cli_catalog(env.bundled)
        for sub in SUBCOMMANDS:
            argv = rng.choice(cat[sub])
            concrete = [str(pool_file) if a == gen.CURVES else a for a in argv]
            gold = golden[json.dumps(argv)]
            for _ in range(3):
                got = workloads.run_cli_inprocess(concrete)
                if got != (gold["code"], gold["stdout"], gold["error"]):
                    problems.append(f"in-process cli {sub} differs from golden")

        for decade, reps in ((4, 5), (5, 3), (6, 1)):
            for _ in range(reps):
                ell = gen.prime_near(10 ** decade, rng, 0.05)
                if inv["disc"] % ell == 0:
                    continue
                if curve.count_points(E, ell).trace != oracle.trace_bsgs(inv, ell):
                    problems.append(f"count_points wrong at {ell}")
        for decade in (3, 4, 5):
            for _ in range(10):
                ell = gen.prime_near(10 ** decade, rng, 0.05)
                want = (ell + 1 - oracle.trace_bsgs(inv, ell)) % 7
                if density.count_mod(E, ell, 7) != want:
                    problems.append(f"count_mod wrong at {ell}")
        for _ in range(20):
            ell = gen.prime_near(rng.uniform(50, 5000))
            curve.reduction_type(E, ell)
            arith.factorize(rng.randrange(2, 10 ** 9))
            p = rng.choice((5, 7, 13))
            if ell != p:
                data = cyclotomic.splitting_infinite(ell, p)
                if (data.residue_order, data.stable_level, data.num_primes) != \
                        oracle.splitting_stable(ell, p):
                    problems.append(f"splitting wrong at {ell}, {p}")
                arith.multiplicative_order(ell, p ** 3)

        density.scan_torsion_density(E, 7, 15_000, workers=2)  # scan spans on every workload

        spec = tower.TowerSpec.generic(7, 3, [gen.prime_near(10 ** 4, rng, 0.05),
                                              gen.prime_near(2 * 10 ** 4, rng, 0.05)])
        for _ in range(3):
            tower.compute_qsets(E, spec)
        dims = {"zpd": 3, "falsetate": 2, "torsion": 4, "generic": 3}
        for kind in list(dims) * 3:
            op = {"tower": kind, "p": 7, "d": dims[kind], "ell": 13, "ramified": [11, 13]}
            s = workloads.tower_spec(tower, op, assume_mhg=True)
            bounds.growth_report(E, s, bounds.BaseInvariants(2, 0, False, "probe"), 12)
        for _ in range(20):
            bounds.kida_lambda(bounds.BaseInvariants(0, 1, False, "probe"),
                               tower.TowerSpec.zpd_composite(5, 3, assume_mhg=True),
                               bounds.RamificationData(2, ((5, 2),), ((25, 1),)))
        for length in (32, 64, 128, 256):
            ce = series.char_element(5, [1], [series.DistinguishedPoly(5, (5, 10, 1))])
            f = series.expand_char_element(ce, 40, length)
            unit = series.PadicSeries(5, 40, tuple(rng.randrange(1, 5 ** 40)
                                                   for _ in range(length)))
            g = series.series_multiply(unit, f)
            series.weierstrass_prepare(g)
            series.series_from_text(series.series_to_text(g))
    finally:
        tracer.uninstall()
    return extra, problems


# --- metrics from spans ----------------------------------------------------------

def layer_metrics(tracer, extra: dict[str, float], workload_ops: set, n_ops: int,
                  overhead: float) -> dict[str, float | None]:
    idx = spans_mod.SpanIndex(tracer.spans)
    out: dict[str, float | None] = dict(extra)
    out["trace.overhead_ratio"] = overhead

    def med_dur(name, unit, sel=lambda s: True):
        xs = [(s[3] - s[2]) * _SCALE[unit] for s in idx.named(name) if sel(s)]
        return statistics.median(xs) if xs else None

    out["catalog.load_bundled_ms"] = med_dur("catalog.load_bundled", "ms")
    out["catalog.load_curve_file_ms"] = med_dur("catalog.load_curve_file", "ms")
    for sub in SUBCOMMANDS:
        out[f"cli.main_ms.{sub}"] = med_dur("cli.main", "ms", lambda s, sub=sub: s[7] == sub)
    mains = idx.named("cli.main")
    out["cli.self_ms"] = statistics.median(
        idx.self_ns(s, lambda n: not n.startswith("cli.")) * 1e-6 for s in mains) if mains else None
    out["arith.sieve_primes_ms"] = med_dur("arith.sieve_primes", "ms")
    out["arith.factorize_us"] = med_dur("arith.factorize", "us")
    out["arith.multiplicative_order_us"] = med_dur("arith.multiplicative_order", "us")
    for k in (4, 5, 6):
        out[f"curve.count_points_ms.l1e{k}"] = med_dur(
            "curve.count_points", "ms", lambda s, k=k: s[7] is not None and _decade(s[7]) == k)
    for k in (3, 4, 5):
        out[f"density.count_mod_us.l1e{k}"] = med_dur(
            "density.count_mod", "us", lambda s, k=k: s[7] is not None and _decade(s[7]) == k)
    for name in ("curve.count_points", "density.count_mod"):
        out[f"{name}.calls"] = sum(s[5] in workload_ops for s in idx.named(name)) / n_ops
    out["curve.reduction_type_us"] = med_dur("curve.reduction_type", "us")

    shares, eligible, merge = [], [], []
    for scan in idx.named("density.scan_torsion_density") + idx.named("density.scan_q_vanishing"):
        desc = idx.descendants(scan)
        kernel = [(s[2], s[3]) for s in desc if s[1] == "density.count_mod"]
        sieve = [s for s in desc if s[1] == "arith.sieve_primes"]
        dur = scan[3] - scan[2]
        k_ns = spans_mod.union_ns(kernel)
        shares.append(k_ns / dur)
        if sieve and sieve[0][7]:
            eligible.append(len(kernel) / sieve[0][7])
        merge.append((dur - k_ns - sum(s[3] - s[2] for s in sieve)) * 1e-6)
    out["density.kernel_share"] = statistics.median(shares) if shares else None
    out["density.eligible_ratio"] = statistics.median(eligible) if eligible else None
    out["density.merge_ms"] = statistics.median(merge) if merge else None

    out["cyclotomic.splitting_infinite_us"] = med_dur("cyclotomic.splitting_infinite", "us")
    out["tower.compute_qsets_ms"] = med_dur("tower.compute_qsets", "ms")
    qs = idx.named("tower.compute_qsets")
    out["tower.compute_qsets_self_ms"] = statistics.median(
        idx.self_ns(s) * 1e-6 for s in qs) if qs else None
    out["bounds.growth_report_us"] = med_dur("bounds.growth_report", "us")
    out["bounds.kida_lambda_us"] = med_dur("bounds.kida_lambda", "us")
    for name in ("expand_char_element", "series_multiply", "weierstrass_prepare"):
        out[f"series.{name}_us"] = med_dur(f"series.{name}", "us")
    to_text, from_text = med_dur("series.series_to_text", "us"), med_dur(
        "series.series_from_text", "us")
    out["series.text_roundtrip_us"] = (to_text + from_text
                                       if to_text is not None and from_text is not None else None)
    return out
