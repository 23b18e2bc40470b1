"""Seeded inputs for the four workloads.

Every workload cycles through a fixed pattern of op slots, and the seed only
picks the concrete inputs inside each slot (which curve, which prime in a
size stratum, which catalog entry).  So the cost profile of a run does not
depend on the seed, while the values the program sees do.
"""

from __future__ import annotations

import json
import random
from itertools import count

import oracle

# Strata of log10(ell) over [4, 6] for the count workload, in an order whose
# every prefix is spread over the range.  An odd number of strata puts the
# median and the tail rank of a run inside one stratum, not between two.
COUNT_STRATA = (0, 5, 2, 7, 4, 1, 6, 3, 8)
_SERIES_LENGTHS = (32, 64, 128, 256)
_SERIES_PRECS = (20, 30, 40, 50, 60)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def prime_near(x: float, rng: random.Random | None = None, spread: float = 0.0) -> int:
    """The least prime >= x * (1 + u*spread), u uniform in [-1, 1]."""
    if rng is not None and spread:
        x *= 1 + rng.uniform(-spread, spread)
    n = max(5, int(x))
    while not oracle.is_prime(n):
        n += 1
    return n


# --- curves ------------------------------------------------------------------

def _usable(ainvs) -> dict | None:
    """Invariants of a nonsingular model whose bad primes are all >= 5 and at
    which the model passes the library's minimality test."""
    inv = oracle.invariants(ainvs)
    disc = inv["disc"]
    if disc == 0 or disc % 2 == 0 or disc % 3 == 0:
        return None
    for ell, e in oracle.factor(disc).items():
        if e >= 12 and inv["c4"] % ell ** 4 == 0:
            return None
    return inv


def random_curves(rng: random.Random, n: int, prefix: str, bound: int = 12) -> list[dict]:
    """n curve records {label, ainvs} with |a_i| <= bound and bad primes >= 5."""
    out = []
    for i in count():
        if len(out) == n:
            return out
        ainvs = [rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1),
                 rng.randint(-bound, bound), rng.randint(-bound, bound)]
        if _usable(ainvs) is not None:
            out.append({"label": f"{prefix}{i}", "ainvs": ainvs})


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def good_ordinary(rec: dict, p: int) -> bool:
    return oracle.is_good_ordinary(oracle.invariants(rec["ainvs"]), p)


# --- scan --------------------------------------------------------------------

# (mode, primes p, base limit) per slot of a block.  Three slots put the
# median of a run inside the torsion class rather than between two classes.
SCAN_SLOTS = (("torsion", (5, 7), 30_000), ("qvanish", (13,), 100_000),
              ("torsion", (5, 7), 30_000))


def scan_inputs(seed: int, corpus: list[dict]) -> tuple[list[dict], list[dict]]:
    """Curve file records and an op list of {label, p, mode, limit, json}.

    Each run draws three curves (from the corpus plus fresh random ones)
    so that the independent check stays a few seconds per run.
    """
    rng = rng_for("scan", seed)
    pool = corpus + random_curves(rng, 6, "s")
    ops = []
    chosen = rng.sample([c for c in pool if good_ordinary(c, 13)
                         and (good_ordinary(c, 5) or good_ordinary(c, 7))], 3)
    for i in range(120 * len(SCAN_SLOTS)):
        mode, ps, base = SCAN_SLOTS[i % len(SCAN_SLOTS)]
        while True:
            rec, p = rng.choice(chosen), rng.choice(ps)
            if good_ordinary(rec, p):
                break
        ops.append({"label": rec["label"], "p": p, "mode": mode,
                    "limit": int(base * rng.uniform(0.98, 1.02)), "json": i % 4 == 3})
    return pool, ops


# --- count -------------------------------------------------------------------

def count_inputs(seed: int, corpus: list[dict]) -> tuple[list[dict], list[dict]]:
    """Curves and ops alternating point counts and generic-tower q-sets, each
    pair taking its ell within 1% of the middle of one stratum of log10(ell)
    in [4, 6].  Point-count cost is linear in ell and does not depend on the
    curve, so every block of 18 ops costs the same for every seed."""
    rng = rng_for("count", seed)
    curves = corpus[:7] + random_curves(rng, 5, "c")
    invs = {c["label"]: oracle.invariants(c["ainvs"]) for c in curves}

    def ell_in(stratum: int, inv: dict) -> int:
        while True:
            ell = prime_near(10 ** (4 + (stratum + 0.5) / len(COUNT_STRATA) * 2), rng, 0.01)
            if inv["disc"] % ell:
                return ell

    ops = []
    for i in range(40 * len(COUNT_STRATA)):
        s = COUNT_STRATA[(i // 2) % len(COUNT_STRATA)]
        rec = rng.choice(curves)
        inv = invs[rec["label"]]
        if i % 2 == 0:
            ops.append({"kind": "count", "label": rec["label"], "ell": ell_in(s, inv),
                        "k": rng.randint(1, 6)})
            continue
        p = rng.choice((5, 7))
        while not oracle.is_good_ordinary(inv, p):
            rec = rng.choice(curves)
            inv = invs[rec["label"]]
        ops.append({"kind": "qsets", "label": rec["label"], "p": p, "d": rng.randint(2, 5),
                    "ramified": [ell_in(s, inv)]})
    return curves, ops


# --- algebra -----------------------------------------------------------------

def _distinguished(rng: random.Random, p: int, degree: int) -> list[int]:
    return [p * rng.randrange(p * p) for _ in range(degree)] + [1]


def _growth_op(rng: random.Random, curves: list[dict], kind: str) -> dict:
    while True:
        rec, p = rng.choice(curves), rng.choice((5, 7))
        if good_ordinary(rec, p):
            break
    bad = set(oracle.factor(oracle.invariants(rec["ainvs"])["disc"]))
    small = [q for q in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37) if q != p]
    op = {"label": rec["label"], "p": p, "tower": kind, "mu0": rng.randint(0, 2),
          "lambda0": rng.randint(0, 3), "n_max": 12}
    if kind == "zpd":
        op["d"] = rng.randint(2, 4)
    elif kind == "falsetate":
        op["d"], op["ell"] = 2, rng.choice(small + sorted(q for q in bad if q != p))
    elif kind == "torsion":
        op["d"] = 4
    else:
        op["d"] = rng.randint(2, 5)
        op["ramified"] = sorted(rng.sample(small, rng.randint(1, 4)))
    return op


def _kida_op(rng: random.Random) -> dict:
    p, n = rng.choice((5, 7)), rng.randint(1, 4)

    def entries():
        return [[p ** rng.randint(1, n), rng.randint(1, 5)] for _ in range(rng.randint(0, 3))]

    return {"p": p, "n": n, "d": rng.randint(2, 4), "lambda0": rng.randint(0, 5),
            "mu0": rng.randint(0, 2), "split_mult": entries(), "good_torsion": entries()}


GROWTH_TOWERS = ("zpd", "falsetate", "torsion", "generic")
GROWTH_PER_KIND = 60
KIDA_PER_OP = 40


def algebra_inputs(seed: int, corpus: list[dict]) -> list[dict]:
    """Ops that are one call sequence each, all of about the same cost: a
    series round trip in each cell of p in {5, 7} x four lengths x five
    precisions, GROWTH_PER_KIND growth reports in each tower kind, and
    KIDA_PER_OP Kida lambdas.  The series round trips and the growth
    reports take shares of an op of the same order (about 80 and 60 ms),
    so a slowdown of either shows in ops_per_s.  Growth and Kida inputs are
    drawn from seeded pools of 16 per kind."""
    rng = rng_for("algebra", seed)
    curves = [c for c in corpus if _usable(c["ainvs"]) is not None]
    units = {}
    for p in (5, 7):
        for L in _SERIES_LENGTHS:
            units[p, L] = [tuple([rng.randrange(1, p) + p * rng.randrange(p ** 19)]
                                 + [rng.randrange(p ** 20) for _ in range(int(L * 1.1))])
                           for _ in range(3)]
    growth = {kind: [_growth_op(rng, curves, kind) for _ in range(16)] for kind in GROWTH_TOWERS}
    kida = [_kida_op(rng) for _ in range(16)]
    ops = []
    for _ in range(16):
        series = []
        for p in (5, 7):
            for L in _SERIES_LENGTHS:
                for prec in _SERIES_PRECS:
                    length = int(L * rng.uniform(0.9, 1.1))
                    series.append({
                        "p": p, "prec": prec, "length": length,
                        "mu_list": [rng.randint(1, 3) for _ in range(rng.randint(0, 2))],
                        "factors": [_distinguished(rng, p, rng.randint(1, 4))
                                    for _ in range(rng.randint(1, 3))],
                        "unit": rng.choice(units[p, L])[:length]})
        ops.append({"series": series,
                    "growth": [g for kind in GROWTH_TOWERS
                               for g in rng.choices(growth[kind], k=GROWTH_PER_KIND)],
                    "kida": rng.choices(kida, k=KIDA_PER_OP)})
    return ops


# --- cli ---------------------------------------------------------------------

CLI_POOL_SEED = "cli-pool"
CURVES = "{CURVES}"

# One slot per subcommand, plus the validator-rejected splitting --level
# --json call and two slots of calls that must fail (exit 1 and exit 2).
CLI_SLOTS = ("invariants", "reduction", "count", "splitting", "qsets", "bounds",
             "kida", "wprep", "density", "splitting_level_json", "domain_error",
             "usage_error")


def cli_pool() -> list[dict]:
    """The curves behind --curves in cli ops, fixed so golden outputs apply
    to every seed; a run's file holds them in a seeded order."""
    rng = random.Random(CLI_POOL_SEED)
    pool = random_curves(rng, 6, "g")
    for rec in pool[:3]:
        rec.update({"lambda0": rng.randint(0, 3), "mu0": rng.randint(0, 2),
                    "provenance": f"benchmark input {rec['label']}"})
    return pool


def _curve_args(rec: dict, corpus_labels) -> list[str]:
    return [rec["label"]] if rec["label"] in corpus_labels else [rec["label"], "--curves", CURVES]


def cli_catalog(corpus: list[dict]) -> dict[str, list[list[str]]]:
    """Every argv a cli op may use, by slot.  Built from a fixed generator,
    so the committed golden outputs cover all of them."""
    rng = random.Random("cli-catalog")
    labels = {c["label"] for c in corpus}
    curves = [c for c in corpus + cli_pool() if _usable(c["ainvs"]) is not None]
    small = [q for q in range(5, 60) if oracle.is_prime(q)]
    cat: dict[str, list[list[str]]] = {s: [] for s in CLI_SLOTS}
    pairs = [(c, p) for c in curves for p in (5, 7, 11) if good_ordinary(c, p)]
    for c in corpus + cli_pool():
        args = _curve_args(c, labels)
        cat["invariants"] += [["invariants"] + args, ["invariants"] + args + ["--json"]]
    for c in curves:
        inv = oracle.invariants(c["ainvs"])
        bad = [q for q in oracle.factor(inv["disc"]) if q >= 5]
        goods = [q for q in small if inv["disc"] % q]
        for ell in bad[:2] + rng.sample(goods, 2):
            cat["reduction"].append(["reduction"] + _curve_args(c, labels) + ["--ell", str(ell)])
        for _ in range(3):
            ell = prime_near(rng.uniform(100, 9000))
            while inv["disc"] % ell == 0:
                ell = prime_near(ell + 1)
            argv = ["count"] + _curve_args(c, labels) + ["--ell", str(ell)]
            k = rng.randint(1, 4)
            argv += ["--ext", str(k)] if k > 1 else []
            cat["count"].append(argv + (["--json"] if rng.random() < 0.5 else []))
    for _ in range(30):
        p = rng.choice((5, 7, 11, 13))
        ell = rng.choice([q for q in small if q != p] + [prime_near(rng.uniform(60, 5000))])
        argv = ["splitting", "--ell", str(ell), "--p", str(p)]
        cat["splitting"].append(argv + (["--json"] if rng.random() < 0.5 else []))
        level = str(rng.randint(1, 4))
        cat["splitting"].append(argv + ["--level", level])
        cat["splitting_level_json"].append(argv + ["--level", level, "--json"])
    for c, p in pairs:
        inv = oracle.invariants(c["ainvs"])
        bad = [q for q in oracle.factor(inv["disc"]) if q >= 5 and q != p]
        towers = [f"zpd:{rng.randint(2, 4)}", f"falsetate:{rng.choice(bad + small[2:6])}"]
        if p not in oracle.factor(inv["disc"]):
            towers.append("torsion")
        for tw in towers:
            if tw == f"falsetate:{p}":
                continue
            cat["qsets"].append(["qsets"] + _curve_args(c, labels) + ["--tower", tw, "--p", str(p)]
                                + (["--json"] if rng.random() < 0.5 else []))
            base = [] if c.get("lambda0") is not None else [
                "--lambda0", str(rng.randint(0, 3)), "--mu0", str(rng.randint(0, 2))]
            cat["bounds"].append(["bounds"] + _curve_args(c, labels)
                                 + ["--tower", tw, "--p", str(p)] + base
                                 + ["--assume-mhg", "--nmax", str(rng.randint(0, 12))]
                                 + (["--json"] if rng.random() < 0.5 else []))
        lim = rng.randint(1000, 8000)
        cat["density"].append(["density"] + _curve_args(c, labels)
                              + ["--p", str(p), "--limit", str(lim),
                                 "--mode", rng.choice(("torsion", "qvanish"))]
                              + rng.choice(([], ["--json"], ["--jobs", "2"])))
    for _ in range(30):
        p = rng.choice((5, 7))
        n = rng.randint(1, 4)
        ram = ";".join(f"{tag}:" + ",".join(f"{p ** rng.randint(1, n)}^{rng.randint(1, 4)}"
                                            for _ in range(rng.randint(1, 2)))
                       for tag in ("P1", "P2") if rng.random() < 0.8)
        tw = rng.choice((f"zpd:{rng.randint(2, 4)}", f"falsetate:{rng.choice((11, 13, 17))}",
                         "torsion"))
        cat["kida"].append(["kida", "--tower", tw, "--p", str(p), "--n", str(n),
                            "--lambda0", str(rng.randint(0, 4)), "--assume-mhg", "--ram", ram])
    for _ in range(30):
        p = rng.choice((5, 7))
        m = rng.randint(2, 6)
        n = rng.randint(3, 12)
        cs = [rng.randrange(p ** m) for _ in range(n)]
        cat["wprep"].append(["wprep", "--series", f"{p} {m} {n} : " + " ".join(map(str, cs))])
    cat["domain_error"] = [
        ["reduction", "11a1", "--ell", "3"],                       # SmallPrime
        ["splitting", "--ell", "7", "--p", "7"],                    # EqualPrimes
        ["qsets", "cm432", "--tower", "zpd:2", "--p", "5"],         # NotGoodOrdinary
        ["wprep", "--series", "5 2 4 : 0 0 0 0"],                   # InsufficientCoeffPrecision
        ["kida", "--tower", "zpd:2", "--p", "5", "--n", "1", "--lambda0", "0",
         "--assume-mhg", "--ram", "P1:6^1"],                        # InvalidRamification
        ["bounds", "11a2", "--tower", "zpd:2", "--p", "7", "--lambda0", "1",
         "--mu0", "0", "--nmax", "2"],                              # HypothesisNotDeclared
        ["count", "11a1", "--ell", "11"],                           # BadReduction
        ["density", "15a1", "--p", "7", "--limit", "1000", "--mode", "torsion"],  # NotGoodOrdinary
    ]
    cat["usage_error"] = [
        ["qsets", "11a2", "--tower", "bogus:1", "--p", "7"],
        ["count", "11a2"],
        ["wprep", "--series", "5 2 3 : 1 2"],
        ["splitting", "--ell", "9", "--p", "7"],
        ["bounds", "37a1", "--tower", "zpd:2", "--p", "7", "--nmax", "1", "--assume-mhg"],
        ["invariants", "nosuchcurve"],
        ["nosuchcommand"],
    ]
    return cat


def cli_ops(seed: int, catalog: dict[str, list[list[str]]]) -> list[tuple[str, list[str]]]:
    rng = rng_for("cli", seed)
    return [(slot, rng.choice(catalog[slot])) for _ in range(100) for slot in CLI_SLOTS]


def cli_file_order(seed: int, pool: list[dict]) -> list[dict]:
    rng = rng_for("cli-file", seed)
    return rng.sample(pool, len(pool))
