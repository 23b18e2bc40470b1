"""The four workloads: how each op runs, and how its output is checked.

Each workload builds its seeded inputs in ``__init__`` (this is part of the
measured set-up, as is loading ``curve_file``, the curves the program
reads).  What only the checks need (golden outputs, the benchmark's own
curve invariants) is built on first use, outside the set-up.  ``ops()`` yields ops, cycling if a run outlasts the list, in
blocks of ``block`` ops that cost the same for every seed.  ``run(op,
tracer)`` runs one op and ``check(op, out)`` returns its problems:
``("mismatch", why)`` when the output is wrong, ``("rejected", why)`` when
the output is right but the library's own ``validate_report_json`` refuses
it.

``scan`` and ``cli`` ops are subprocesses; ``count`` and ``algebra`` ops are
in-process library calls.  A run has at least ``min_ops`` ops; 20 is the
least for which the tail percentile is defined.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import cycle
from pathlib import Path

import gen
import oracle
import spans

BENCH = Path(__file__).resolve().parent


class Env:
    """Where a run lives: the checkout root, its src/ and a scratch dir."""

    def __init__(self, root: Path, scratch: Path):
        self.root, self.scratch = root, scratch
        self.src = root / "src"
        self.python = sys.executable
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.bundled = self.src / "towerbounds" / "data" / "curves.jsonl"

    def corpus(self) -> list[dict]:
        return gen.read_jsonl(self.bundled)

    def run_cli(self, argv: list[str], tracer=None, idx: int = 0):
        """(exit code, stdout bytes, stderr text) of one towerbounds call."""
        if tracer is None:
            cmd = [self.python, "-m", "towerbounds", *argv]
        else:
            out = self.scratch / f"spans-{idx}.jsonl"
            cmd = [self.python, str(BENCH / "traced_cli.py"), str(out), *argv]
        r = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True, timeout=120)
        if tracer is not None:
            tracer.adopt(spans.load(out))
            out.unlink()
        return r.returncode, r.stdout, r.stderr.decode(errors="replace")


def _error_kind(code: int, stderr: str) -> str | None:
    """'Name' from 'error: Name: ...' for exit 1, 'usage' for exit 2."""
    if code == 1:
        for line in stderr.splitlines():
            if line.startswith("error: "):
                return line.split(":")[1].strip()
        return "?"
    return "usage" if code == 2 else None


def _validate(stdout: bytes, validate) -> list[tuple[str, str]]:
    obj = json.loads(stdout)
    try:
        validate(obj)
    except Exception as e:  # any refusal of a correct output is reported
        return [("rejected", f"validate_report_json rejected kind "
                             f"{obj.get('kind')!r}: {type(e).__name__}")]
    return []


# --- scan ----------------------------------------------------------------------

class Scan:
    """One ``density`` subprocess per op, at --jobs 2, on a generated curve file."""

    name = "scan"
    subprocess = True
    block = len(gen.SCAN_SLOTS)
    min_ops = 20
    max_traced_ops = 300

    def __init__(self, env: Env, seed: int):
        self.env = env
        self.pool, self.op_list = gen.scan_inputs(seed, env.corpus())
        self.curve_file = env.scratch / "scan-curves.jsonl"
        gen.write_jsonl(self.curve_file, self.pool)
        self._traces: dict[str, dict[int, int]] = {}
        self._primes: list[int] = []

    @functools.cached_property
    def invs(self) -> dict[str, dict]:
        return {c["label"]: oracle.invariants(c["ainvs"]) for c in self.pool}

    def ops(self):
        return cycle(self.op_list)

    def argv(self, op: dict, jobs: int = 2) -> list[str]:
        return (["density", op["label"], "--curves", str(self.curve_file), "--p", str(op["p"]),
                 "--limit", str(op["limit"]), "--mode", op["mode"], "--jobs", str(jobs)]
                + (["--json"] if op["json"] else []))

    def run(self, op, tracer=None, idx=0):
        return self.env.run_cli(self.argv(op), tracer, idx)

    def expected(self, op: dict) -> tuple[int, int]:
        """(total, hits) from the benchmark's own sieve and BSGS counts."""
        limit, p = op["limit"], op["p"]
        if not self._primes:
            self._primes = oracle.primes_upto(max(o["limit"] for o in self.op_list))
        inv = self.invs[op["label"]]
        traces = self._traces.setdefault(op["label"], {})
        total = hits = 0
        for ell in self._primes:
            if ell > limit:
                break
            if ell < 5 or ell == p or inv["disc"] % ell == 0:
                continue
            if op["mode"] == "qvanish" and ell % p != 1:
                continue
            if ell not in traces:
                traces[ell] = oracle.trace_bsgs(inv, ell)
            divides = (ell + 1 - traces[ell]) % p == 0
            total += 1
            hits += divides if op["mode"] == "torsion" else not divides
        return total, hits

    def expected_text(self, op: dict) -> bytes:
        total, hits = self.expected(op)
        dec = oracle.decimal4(Fraction(hits, total))
        if op["json"]:
            obj = {"schema": 1, "kind": "density", "label": op["label"], "p": op["p"],
                   "mode": op["mode"], "limit": op["limit"], "total": total, "hits": hits,
                   "fraction": f"{hits}/{total}", "decimal": dec}
            return (json.dumps(obj, sort_keys=True) + "\n").encode()
        return (f"label={op['label']} p={op['p']} mode={op['mode']} limit={op['limit']}\n"
                f"total={total} hits={hits} fraction={hits}/{total} decimal={dec}\n").encode()

    def check(self, op, out, validate):
        code, stdout, stderr = out
        if code != 0:
            return [("mismatch", f"density exit {code}: {stderr.strip()[-200:]}")]
        if stdout != self.expected_text(op):
            return [("mismatch", "density total/hits differ from the independent count")]
        return _validate(stdout, validate) if op["json"] else []

    def jobs_invariance(self) -> list[tuple[str, str]]:
        """The first torsion op at a limit spanning several 512-prime chunks,
        under --jobs 1, 2 and 3: identical stdout, equal to the oracle."""
        op = dict(next(o for o in self.op_list if o["mode"] == "torsion"), limit=12_000,
                  json=False)
        outs = {j: self.env.run_cli(self.argv(op, jobs=j)) for j in (1, 2, 3)}
        want = self.expected_text(op)
        if any(o[0] != 0 or o[1] != want for o in outs.values()):
            return [("mismatch", "density output depends on --jobs")]
        return []


# --- cli -----------------------------------------------------------------------

class Cli:
    """One short towerbounds subprocess per op, over a seeded mix of all
    nine subcommands, checked against golden outputs of this revision."""

    name = "cli"
    subprocess = True
    block = len(gen.CLI_SLOTS)
    min_ops = 20
    max_traced_ops = 300

    def __init__(self, env: Env, seed: int):
        self.env = env
        self.op_list = gen.cli_ops(seed, cli_catalog(env.bundled))
        self.curve_file = env.scratch / "cli-curves.jsonl"
        gen.write_jsonl(self.curve_file, gen.cli_file_order(seed, gen.cli_pool()))

    @functools.cached_property
    def golden(self) -> dict:
        return load_golden()

    def ops(self):
        return cycle(self.op_list)

    def concrete(self, argv: list[str]) -> list[str]:
        return [str(self.curve_file) if a == gen.CURVES else a for a in argv]

    def run(self, op, tracer=None, idx=0):
        return self.env.run_cli(self.concrete(op[1]), tracer, idx)

    def check(self, op, out, validate):
        code, stdout, stderr = out
        gold = self.golden.get(json.dumps(op[1]))
        if gold is None:
            return [("mismatch", "no golden output for this call")]
        if (code, stdout.decode(errors="replace"), _error_kind(code, stderr)) != (
                gold["code"], gold["stdout"], gold["error"]):
            return [("mismatch", f"{op[0]}: output differs from golden")]
        if code == 0 and "--json" in op[1]:
            return _validate(stdout, validate)
        return []


@functools.cache
def cli_catalog(bundled: Path) -> dict[str, list[list[str]]]:
    """The seed-independent catalog cli ops are drawn from, built once."""
    return gen.cli_catalog(gen.read_jsonl(bundled))


def load_golden() -> dict:
    with open(BENCH / "golden_cli.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_cli_inprocess(argv: list[str]):
    """(code, stdout, error kind) of cli.main in this process."""
    from towerbounds import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
    return code, out.getvalue(), _error_kind(code, err.getvalue())


# --- count ---------------------------------------------------------------------

class Count:
    """In-process: half ``count_points_ext`` at ell in [1e4, 1e6], half
    ``compute_qsets`` on generic towers ramified at primes in that range."""

    name = "count"
    subprocess = False
    block = 2 * len(gen.COUNT_STRATA)
    min_ops = 3 * block  # six ops per stratum keep the median and tail ranks steady
    max_traced_ops = 300

    def __init__(self, env: Env, seed: int):
        from towerbounds import curve

        curves, self.op_list = gen.count_inputs(seed, env.corpus())
        self.curve_file = env.bundled
        self.curves = curves
        self.E = {c["label"]: curve.curve_from_ainvs(c["ainvs"], label=c["label"])
                  for c in curves}

    @functools.cached_property
    def invs(self) -> dict[str, dict]:
        return {c["label"]: oracle.invariants(c["ainvs"]) for c in self.curves}

    def ops(self):
        return cycle(self.op_list)

    def run(self, op, tracer=None, idx=0):
        from towerbounds import curve, tower

        E = self.E[op["label"]]
        try:
            if op["kind"] == "count":
                pc = curve.count_points_ext(E, op["ell"], op["k"])
                return ("count", pc.ell, pc.k, pc.count, pc.trace)
            q = tower.compute_qsets(E, tower.TowerSpec.generic(op["p"], op["d"], op["ramified"]))
            return ("qsets", q.q1, q.q2, q.witnesses_q1, q.witnesses_q2)
        except Exception as e:  # the op boundary: record and report
            return ("error", type(e).__name__, str(e))

    def check(self, op, out, validate):
        inv = self.invs[op["label"]]
        if out[0] == "error":
            return [("mismatch", f"{op['kind']} raised {out[1]}")]
        if op["kind"] == "count":
            _, ell, k, count, t = out
            q = ell ** k
            if (ell, k) != (op["ell"], op["k"]) or count != q + 1 - t or t * t > 4 * q:
                return [("mismatch", "point count breaks count = q + 1 - t or the Hasse bound")]
            a = oracle.trace_bsgs(inv, ell)
            if ell < 20_000 and oracle.trace_charsum(inv, ell) != a:
                return [("mismatch", "benchmark oracles disagree")]
            if oracle.trace_ext(a, ell, k) != t:
                return [("mismatch", "trace differs from the independent count")]
            return []
        traces = {ell: oracle.trace_bsgs(inv, ell) for ell in op["ramified"]
                  if inv["disc"] % ell}
        q1, q2, w1, w2 = oracle.qsets_expected(inv, op["p"], op["ramified"], traces)
        if out != ("qsets", q1, q2, tuple(map(tuple, w1)), tuple(map(tuple, w2))):
            return [("mismatch", "q-sets differ from the independent classification")]
        return []


# --- algebra -------------------------------------------------------------------

class Algebra:
    """In-process call sequences: series round trips, growth reports to
    level 12, and Kida's lambda; no kernel and no subprocess."""

    name = "algebra"
    subprocess = False
    block = 1
    min_ops = 20
    max_traced_ops = 8  # about 30 000 spans an op

    def __init__(self, env: Env, seed: int):
        from towerbounds import catalog

        self.corpus = env.corpus()
        self.op_list = gen.algebra_inputs(seed, self.corpus)
        self.curve_file = env.bundled
        self.entries = catalog.load_curve_file(env.bundled)
        self._expected_growth: dict[int, tuple] = {}

    @functools.cached_property
    def invs(self) -> dict[str, dict]:
        return {c["label"]: oracle.invariants(c["ainvs"]) for c in self.corpus}

    def ops(self):
        return cycle(self.op_list)

    def run(self, op, tracer=None, idx=0):
        try:
            return (tuple(self._series(s) for s in op["series"]),
                    tuple(self._growth(g) for g in op["growth"]),
                    tuple(self._kida(k) for k in op["kida"]))
        except Exception as e:  # the op boundary: record and report
            return ("error", type(e).__name__, str(e))

    @staticmethod
    def _series(op):
        from towerbounds import series

        p = op["p"]
        ce = series.char_element(p, op["mu_list"],
                                 [series.DistinguishedPoly(p, tuple(c)) for c in op["factors"]])
        f = series.expand_char_element(ce, op["prec"], op["length"])
        g = series.series_multiply(series.PadicSeries(p, op["prec"], op["unit"]), f)
        inv, _ = series.weierstrass_prepare(g)
        text = series.series_to_text(g)
        return inv.mu, inv.lam, text, series.series_from_text(text) == g

    def _growth(self, op):
        from towerbounds import bounds, tower

        spec = tower_spec(tower, op, assume_mhg=True)
        base = bounds.BaseInvariants(op["mu0"], op["lambda0"], False, "benchmark input")
        r = bounds.growth_report(self.entries[op["label"]].curve, spec, base, op["n_max"])
        return (r.qsets.q1, r.qsets.q2, r.verdict.value,
                tuple((w.n, w.cyc_degree, w.mu, w.lambda_lower, w.lambda_upper,
                       w.rank_upper, w.hung_lim_upper) for w in r.rows))

    @staticmethod
    def _kida(op):
        from towerbounds import bounds, tower

        spec = tower.TowerSpec.zpd_composite(op["p"], op["d"], assume_mhg=True)
        base = bounds.BaseInvariants(op["mu0"], op["lambda0"], False, "benchmark input")
        ram = bounds.RamificationData(op["n"], tuple(map(tuple, op["split_mult"])),
                                      tuple(map(tuple, op["good_torsion"])))
        return bounds.kida_lambda(base, spec, ram)

    def check(self, op, out, validate):
        if out[0] == "error":
            return [("mismatch", f"algebra op raised {out[1]}")]
        probs = []
        for s, (mu, lam, text, round_trip) in zip(op["series"], out[0]):
            if (mu, lam) != (sum(s["mu_list"]), sum(len(c) - 1 for c in s["factors"])):
                probs.append(("mismatch", "(mu, lambda) not recovered"))
            if not round_trip or not text.startswith(f"{s['p']} {s['prec']} {s['length']} : "):
                probs.append(("mismatch", "series text round trip failed"))
        for g, got in zip(op["growth"], out[1]):
            # growth ops are drawn from a small pool, so each is worked out once
            if id(g) not in self._expected_growth:
                self._expected_growth[id(g)] = self._growth_expected(g)
            if got != self._expected_growth[id(g)]:
                probs.append(("mismatch", "growth rows differ from the closed forms"))
        for k, got in zip(op["kida"], out[2]):
            want = (k["p"] ** ((k["d"] - 1) * k["n"]) * k["lambda0"]
                    + sum(c * (e - 1) for e, c in k["split_mult"])
                    + 2 * sum(c * (e - 1) for e, c in k["good_torsion"]))
            if got != want:
                probs.append(("mismatch", "Kida lambda differs"))
        return probs

    def _growth_expected(self, op):
        inv, p = self.invs[op["label"]], op["p"]
        if op["tower"] == "zpd":
            q1 = q2 = 0
        elif op["tower"] == "torsion":
            q1 = sum(oracle.reduction(inv, ell) == "split_multiplicative"
                     for ell in oracle.factor(inv["disc"]) if ell != p)
            q2 = 0
        else:
            ells = [op["ell"]] if op["tower"] == "falsetate" else op["ramified"]
            traces = {ell: oracle.trace_charsum(inv, ell) for ell in ells if inv["disc"] % ell}
            q1, q2, _, _ = oracle.qsets_expected(inv, p, ells, traces)
        rows = oracle.growth_rows(p, op["d"], op["mu0"], op["lambda0"], q1, q2, op["n_max"],
                                  op["tower"] == "torsion")
        return q1, q2, "inconclusive", tuple(rows)


def tower_spec(tower, op, assume_mhg):
    """The TowerSpec an op dict describes."""
    kind = op["tower"]
    if kind == "zpd":
        return tower.TowerSpec.zpd_composite(op["p"], op["d"], assume_mhg=assume_mhg)
    if kind == "falsetate":
        return tower.TowerSpec.false_tate(op["p"], op["ell"], assume_mhg=assume_mhg)
    if kind == "torsion":
        return tower.TowerSpec.torsion_field(op["p"], assume_mhg=assume_mhg)
    return tower.TowerSpec.generic(op["p"], op["d"], op["ramified"], assume_mhg=assume_mhg)


WORKLOADS = {w.name: w for w in (Scan, Cli, Count, Algebra)}
