"""Command-line interface.

Subcommands map one-to-one onto library operations:

    invariants  derived Weierstrass quantities of a labeled curve
    reduction   reduction type at a prime >= 5
    count       point counts over F_ell and extensions
    splitting   splitting of ell in the p-cyclotomic tower
    qsets       ramified-prime counts q1/q2 for a curve in a tower
    bounds      level-by-level growth/rank bound report
    kida        exact level-n lambda from exact ramification data
    wprep       Weierstrass preparation of a p-adic series
    density     prime-scan experiments (exact fractions)

Exit codes: 0 success, 1 domain error (the error name goes to stderr),
2 usage error.  ``--json`` output carries ``"schema": 1``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import catalog, curve, cyclotomic, density, series, tower
from .errors import DomainError

SCHEMA = 1


# --- small rendering helpers ---------------------------------------------

def _tower_text(spec: tower.TowerSpec) -> str:
    if spec.kind is tower.TowerKind.FALSE_TATE:
        return f"falsetate:{spec.ell}"
    if spec.kind is tower.TowerKind.ZPD_COMPOSITE:
        return f"zpd:{spec.d}"
    if spec.kind is tower.TowerKind.TORSION_FIELD:
        return "torsion"
    return f"generic:{spec.d}:" + ",".join(str(x) for x in spec.ramified_primes)


def _parse_tower(text: str, p: int, assume_mhg: bool) -> tower.TowerSpec:
    kind, _, arg = text.partition(":")
    if kind == "zpd":
        if not arg:
            raise ValueError("zpd tower needs a dimension, e.g. zpd:3")
        return tower.TowerSpec.zpd_composite(p, int(arg), assume_mhg=assume_mhg)
    if kind == "falsetate":
        if not arg:
            raise ValueError("falsetate tower needs a prime, e.g. falsetate:11")
        return tower.TowerSpec.false_tate(p, int(arg), assume_mhg=assume_mhg)
    if kind == "torsion":
        if arg:
            raise ValueError("torsion tower takes no parameter")
        return tower.TowerSpec.torsion_field(p, assume_mhg=assume_mhg)
    if kind == "generic":
        d_text, sep, ells = arg.partition(":")
        if not sep:
            raise ValueError("generic tower needs a dimension and ramified primes, "
                             "e.g. generic:3:11,13")
        ramified = [int(x) for x in ells.split(",")] if ells else []
        return tower.TowerSpec.generic(p, int(d_text), ramified, assume_mhg=assume_mhg)
    raise ValueError(f"unknown tower {text!r} "
                     "(expected zpd:D, falsetate:L, torsion or generic:D:L1,L2,...)")


def _witness_text(wits: tuple[tuple[int, int], ...]) -> str:
    if not wits:
        return "(none)"
    return " ".join(f"{ell}:{count}" for ell, count in wits)


def _emit_json(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _load_entry(args) -> catalog.CurveFileEntry:
    path = args.curves if args.curves else catalog.bundled_curve_path()
    table = catalog.load_curve_file(path)
    if args.label not in table:
        raise ValueError(f"label {args.label!r} not in {path} "
                         f"(known: {', '.join(table)})")
    return table[args.label]


def _parse_ram(text: str, level: int) -> bounds_mod.RamificationData:
    """Parse 'P1:e^count,e^count;P2:e^count' into RamificationData."""
    split_mult: list[tuple[int, int]] = []
    good_torsion: list[tuple[int, int]] = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        head, sep, body = part.partition(":")
        head = head.strip()
        if not sep or head not in ("P1", "P2"):
            raise ValueError(f"ramification section {part!r} must start with P1: or P2:")
        target = split_mult if head == "P1" else good_torsion
        for item in body.split(","):
            item = item.strip()
            if not item:
                continue
            e_text, sep2, c_text = item.partition("^")
            if not sep2:
                raise ValueError(f"ramification item {item!r} must look like e^count")
            try:
                target.append((int(e_text), int(c_text)))
            except ValueError:
                raise ValueError(f"non-integer in ramification item {item!r}") from None
    return bounds_mod.RamificationData(level=level, split_mult=tuple(split_mult),
                                       good_torsion=tuple(good_torsion))


def _resolve_base(args, entry: catalog.CurveFileEntry | None) -> bounds_mod.BaseInvariants:
    lam = args.lambda0 if args.lambda0 is not None else (
        entry.lambda0 if entry is not None else None)
    mu = args.mu0 if args.mu0 is not None else (
        entry.mu0 if entry is not None else None)
    selmer = bool(getattr(args, "selmer_zero", False)) or bool(
        entry is not None and entry.selmer_zero)
    if selmer:
        lam = 0 if lam is None else lam
        mu = 0 if mu is None else mu
    if lam is None or mu is None:
        raise ValueError("base invariants required: pass --lambda0 and --mu0 "
                         "(or use a curve file carrying them)")
    notes = []
    if args.lambda0 is not None or args.mu0 is not None or getattr(args, "selmer_zero", False):
        notes.append("command-line input")
    if entry is not None and entry.provenance and (
            args.lambda0 is None or args.mu0 is None or entry.selmer_zero):
        notes.append(entry.provenance)
    return bounds_mod.BaseInvariants(mu0=mu, lambda0=lam, selmer_zero=selmer,
                                     provenance="; ".join(notes) or "command-line input")


# --- report serialization (schema 1) --------------------------------------

def qsets_json(label: str | None, spec: tower.TowerSpec, q: tower.QSets) -> dict:
    return {
        "schema": SCHEMA, "kind": "qsets", "label": label,
        "p": spec.p, "tower": _tower_text(spec), "d": spec.d,
        "q1": q.q1, "q2": q.q2,
        "witnesses_q1": [list(w) for w in q.witnesses_q1],
        "witnesses_q2": [list(w) for w in q.witnesses_q2],
    }


def growth_json(report: bounds_mod.GrowthBoundReport) -> dict:
    spec = report.spec
    return {
        "schema": SCHEMA, "kind": "bounds", "label": report.label,
        "p": spec.p, "tower": _tower_text(spec), "d": spec.d,
        "assume_mhg": spec.assume_mhg,
        "base": {
            "mu0": report.base.mu0, "lambda0": report.base.lambda0,
            "selmer_zero": report.base.selmer_zero,
            "provenance": report.base.provenance,
        },
        "q1": report.qsets.q1, "q2": report.qsets.q2,
        "witnesses_q1": [list(w) for w in report.qsets.witnesses_q1],
        "witnesses_q2": [list(w) for w in report.qsets.witnesses_q2],
        "verdict": report.verdict.value,
        "rows": [
            {
                "n": r.n, "cyc_degree": r.cyc_degree, "mu": r.mu,
                "lambda_lower": r.lambda_lower, "lambda_upper": r.lambda_upper,
                "rank_upper": r.rank_upper, "hung_lim_upper": r.hung_lim_upper,
            }
            for r in report.rows
        ],
    }


def density_json(report: density.DensityReport) -> dict:
    return {
        "schema": SCHEMA, "kind": "density", "label": report.label,
        "p": report.p, "mode": report.mode, "limit": report.limit,
        "total": report.total, "hits": report.hits,
        "fraction": f"{report.hits}/{report.total}", "decimal": report.decimal,
    }


def validate_report_json(obj: dict) -> None:
    """Re-validate an emitted JSON report against its type invariants.

    Raises ValueError (or a domain error) when anything is off; used by the
    suite's round-trip checks.
    """
    if obj.get("schema") != SCHEMA:
        raise ValueError(f"unknown schema {obj.get('schema')!r}")
    kind = obj.get("kind")
    if kind in ("qsets", "bounds"):
        tower.QSets(
            q1=obj["q1"], q2=obj["q2"],
            witnesses_q1=tuple((ell, c) for ell, c in obj["witnesses_q1"]),
            witnesses_q2=tuple((ell, c) for ell, c in obj["witnesses_q2"]),
        )
    if kind == "qsets":
        if any(ell == obj["p"] for ell, _ in obj["witnesses_q1"] + obj["witnesses_q2"]):
            raise ValueError("witness prime equals p")
    elif kind == "bounds":
        base = bounds_mod.BaseInvariants(
            mu0=obj["base"]["mu0"], lambda0=obj["base"]["lambda0"],
            selmer_zero=obj["base"]["selmer_zero"],
            provenance=obj["base"]["provenance"],
        )
        p, d = obj["p"], obj["d"]
        for row in obj["rows"]:
            n = row["n"]
            if row["cyc_degree"] != p ** ((d - 1) * n):
                raise ValueError(f"row {n}: wrong layer degree")
            if row["mu"] != row["cyc_degree"] * base.mu0:
                raise ValueError(f"row {n}: wrong mu")
            if not (0 <= row["lambda_lower"] <= row["lambda_upper"] == row["rank_upper"]):
                raise ValueError(f"row {n}: inconsistent lambda/rank")
        if obj["verdict"] == "all_levels_zero":
            if any(row["mu"] or row["rank_upper"] for row in obj["rows"]):
                raise ValueError("all_levels_zero verdict with nonzero rows")
    elif kind == "density":
        if not 0 <= obj["hits"] <= obj["total"]:
            raise ValueError("hits out of range")
        if Fraction(obj["fraction"]) != Fraction(obj["hits"], obj["total"]):
            raise ValueError("fraction does not match hits/total")
    elif kind == "splitting":
        p, f, g = obj["p"], obj["f"], obj["g_inf"]
        if (p - 1) % f or g != ((p - 1) // f) * p ** (obj["m"] - 1):
            raise ValueError("inconsistent splitting data")
    elif kind == "splitting_finite":
        if obj["count"] != cyclotomic.splitting_finite(obj["ell"], obj["p"], obj["level"]):
            raise ValueError("splitting count does not match the level")
    elif kind == "count":
        pc = curve.PointCount(ell=obj["ell"], k=obj["k"], count=obj["count"],
                              trace=obj["trace"])
        pc.validate()
    elif kind == "invariants":
        curve.curve_from_ainvs(obj["ainvs"], label=obj["label"]).validate()
    else:
        raise ValueError(f"unknown report kind {kind!r}")


# --- subcommand bodies -----------------------------------------------------

def _cmd_invariants(args) -> int:
    E = _load_entry(args).curve
    if args.json:
        _emit_json({"schema": SCHEMA, "kind": "invariants", "label": E.label,
                    "ainvs": list(E.ainvs), "b2": E.b2, "b4": E.b4, "b6": E.b6,
                    "b8": E.b8, "c4": E.c4, "c6": E.c6, "disc": E.disc})
        return 0
    print(f"label={E.label}")
    print(f"ainvs={list(E.ainvs)}")
    print(f"b2={E.b2} b4={E.b4} b6={E.b6} b8={E.b8}")
    print(f"c4={E.c4} c6={E.c6}")
    print(f"disc={E.disc}")
    return 0


def _cmd_reduction(args) -> int:
    E = _load_entry(args).curve
    rt = curve.reduction_type(E, args.ell)
    print(f"ell={args.ell} type={rt.value}")
    return 0


def _cmd_count(args) -> int:
    E = _load_entry(args).curve
    pc = curve.count_points_ext(E, args.ell, args.ext)
    if args.json:
        _emit_json({"schema": SCHEMA, "kind": "count", "label": E.label,
                    "ell": pc.ell, "k": pc.k, "count": pc.count, "trace": pc.trace})
        return 0
    print(f"ell={pc.ell} k={pc.k} count={pc.count} trace={pc.trace}")
    return 0


def _cmd_splitting(args) -> int:
    if args.level is not None:
        g = cyclotomic.splitting_finite(args.ell, args.p, args.level)
        if args.json:
            _emit_json({"schema": SCHEMA, "kind": "splitting_finite", "ell": args.ell,
                        "p": args.p, "level": args.level, "count": g})
        else:
            print(f"ell={args.ell} p={args.p} level={args.level} count={g}")
        return 0
    data = cyclotomic.splitting_infinite(args.ell, args.p)
    if args.json:
        _emit_json({"schema": SCHEMA, "kind": "splitting", "ell": data.ell,
                    "p": data.p, "f": data.residue_order, "m": data.stable_level,
                    "g_inf": data.num_primes})
    else:
        print(f"ell={data.ell} p={data.p} f={data.residue_order} "
              f"m={data.stable_level} g_inf={data.num_primes}")
    return 0


def _cmd_qsets(args) -> int:
    E = _load_entry(args).curve
    spec = _parse_tower(args.tower, args.p, assume_mhg=False)
    q = tower.compute_qsets(E, spec)
    if args.json:
        _emit_json(qsets_json(E.label, spec, q))
        return 0
    print(f"q1={q.q1} q2={q.q2}")
    print(f"q1_witnesses: {_witness_text(q.witnesses_q1)}")
    print(f"q2_witnesses: {_witness_text(q.witnesses_q2)}")
    return 0


def _format_table(rows: list[list[str]]) -> list[str]:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.rjust(w) for cell, w in zip(r, widths)) for r in rows]


def _cmd_bounds(args) -> int:
    entry = _load_entry(args)
    spec = _parse_tower(args.tower, args.p, assume_mhg=args.assume_mhg)
    base = _resolve_base(args, entry)
    report = bounds_mod.growth_report(entry.curve, spec, base, args.nmax)
    if args.json:
        _emit_json(growth_json(report))
        return 0
    q = report.qsets
    print(f"label={report.label} tower={_tower_text(spec)} p={spec.p} d={spec.d}")
    print(f"q1={q.q1} q2={q.q2}")
    print(f"q1_witnesses: {_witness_text(q.witnesses_q1)}")
    print(f"q2_witnesses: {_witness_text(q.witnesses_q2)}")
    print(f"base: mu0={base.mu0} lambda0={base.lambda0} "
          f"selmer_zero={'true' if base.selmer_zero else 'false'}")
    print(f"provenance: {base.provenance}")
    print(f"assume_mhg={'true' if spec.assume_mhg else 'false'}")
    print(f"verdict={report.verdict.value}")
    header = ["n", "cyc_degree", "mu", "lambda_min", "lambda_max", "rank_max", "hung_lim"]
    # growth_report fills hung_lim_upper exactly on torsion towers
    cells = [header if spec.kind is tower.TowerKind.TORSION_FIELD else header[:-1]]
    for r in report.rows:
        cells.append([str(v) for v in (r.n, r.cyc_degree, r.mu, r.lambda_lower, r.lambda_upper,
                                       r.rank_upper, r.hung_lim_upper) if v is not None])
    for line in _format_table(cells):
        print(line)
    return 0


def _cmd_kida(args) -> int:
    spec = _parse_tower(args.tower, args.p, assume_mhg=args.assume_mhg)
    base = bounds_mod.BaseInvariants(
        mu0=args.mu0 if args.mu0 is not None else 0,
        lambda0=args.lambda0, selmer_zero=False,
        provenance="command-line input",
    )
    ram = _parse_ram(args.ram, args.n)
    lam = bounds_mod.kida_lambda(base, spec, ram)
    print(f"level={args.n} lambda={lam}")
    return 0


def _cmd_wprep(args) -> int:
    f = series.series_from_text(args.series)
    inv, _unit_checked = series.weierstrass_prepare(f)
    print(f"mu={inv.mu} lambda={inv.lam}")
    return 0


def _cmd_density(args) -> int:
    E = _load_entry(args).curve
    scan = (density.scan_torsion_density if args.mode == "torsion"
            else density.scan_q_vanishing)
    report = scan(E, args.p, args.limit, workers=args.jobs, keep_rows=args.csv)
    if args.csv:
        print("ell,count_mod_p,hit")
        for row in report.rows:
            print(f"{row.ell},{row.count_mod_p},{1 if row.hit else 0}")
        return 0
    if args.json:
        _emit_json(density_json(report))
        return 0
    print(f"label={report.label} p={report.p} mode={report.mode} limit={report.limit}")
    print(f"total={report.total} hits={report.hits} "
          f"fraction={report.hits}/{report.total} decimal={report.decimal}")
    return 0


# --- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="towerbounds",
        description="Exact growth bounds for elliptic curves in uniform pro-p towers.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_curve_arg(p):
        p.add_argument("label", help="curve label from the curve file")
        p.add_argument("--curves", metavar="FILE", default=None,
                       help="JSON-lines curve file (default: bundled corpus)")

    p = sub.add_parser("invariants", help="derived Weierstrass invariants")
    add_curve_arg(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("reduction", help="reduction type at a prime >= 5")
    add_curve_arg(p)
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=_cmd_reduction)

    p = sub.add_parser("count", help="point count over F_ell (or F_{ell^k})")
    add_curve_arg(p)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--ext", type=int, default=1, metavar="K",
                   help="extension degree k (default 1)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("splitting", help="splitting of ell in the p-cyclotomic tower")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--level", type=int, default=None,
                   help="finite level n (default: stable data)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_splitting)

    tower_help = "tower kind: zpd:D, falsetate:L, torsion or generic:D:L1,L2,..."

    p = sub.add_parser("qsets", help="ramified-prime counts q1/q2")
    add_curve_arg(p)
    p.add_argument("--tower", required=True, help=tower_help)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_qsets)

    p = sub.add_parser("bounds", help="level-by-level growth/rank bound report")
    add_curve_arg(p)
    p.add_argument("--tower", required=True, help=tower_help)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--lambda0", type=int, default=None)
    p.add_argument("--mu0", type=int, default=None)
    p.add_argument("--selmer-zero", action="store_true", dest="selmer_zero",
                   help="declare the base fine Selmer group zero")
    p.add_argument("--assume-mhg", action="store_true", dest="assume_mhg",
                   help="declare the module hypothesis the formulas need")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("kida", help="exact lambda at level n from ramification data")
    p.add_argument("--tower", required=True, help=tower_help)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="tower level")
    p.add_argument("--lambda0", type=int, required=True)
    p.add_argument("--mu0", type=int, default=None)
    p.add_argument("--assume-mhg", action="store_true", dest="assume_mhg")
    p.add_argument("--ram", required=True,
                   help="ramification data, e.g. 'P1:7^2;P2:5^1,25^3'")
    p.set_defaults(func=_cmd_kida)

    p = sub.add_parser("wprep", help="Weierstrass preparation of a p-adic series")
    p.add_argument("--series", required=True,
                   help="series text 'p M N : c0 c1 ... c_{N-1}'")
    p.set_defaults(func=_cmd_wprep)

    p = sub.add_parser("density", help="prime-scan density experiment")
    add_curve_arg(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--limit", type=int, required=True, metavar="X")
    p.add_argument("--mode", choices=("torsion", "qvanish"), required=True)
    p.add_argument("--csv", action="store_true", help="emit per-prime CSV rows")
    p.add_argument("--json", action="store_true")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p.set_defaults(func=_cmd_density)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as e:
        print(f"error: {e.name}: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
