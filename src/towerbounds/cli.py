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

Each subcommand returns its whole output, text or a ``--json`` report built
by ``report`` (``"schema": 1``); ``main`` renders it and writes it only once
the command has succeeded, so a failure leaves stdout empty.  Each body
imports the library modules it uses, so a call pays only for those;
``report`` is imported only for ``--json`` or a ``--tower`` argument.

Exit codes: 0 success, 1 domain error (the error name goes to stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DomainError


def __getattr__(name: str):
    # validate_report_json is re-exported for callers of cli without making
    # every CLI call import report
    if name == "validate_report_json":
        from .report import validate_report_json
        return validate_report_json
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _load_entry(args):
    """The catalog.CurveFileEntry that args.label names."""
    from . import catalog

    path = args.curves if args.curves else catalog.bundled_curve_path()
    table = catalog.load_curve_file(path)
    if args.label not in table:
        raise ValueError(f"label {args.label!r} not in {path} "
                         f"(known: {', '.join(table)})")
    return table[args.label]


def _parse_ram(text: str, level: int):
    """Parse 'P1:e^count,e^count;P2:e^count' into bounds.RamificationData."""
    from . import bounds

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
    return bounds.RamificationData(level=level, split_mult=tuple(split_mult),
                                   good_torsion=tuple(good_torsion))


def _resolve_base(args, entry):
    """bounds.BaseInvariants from the command line, else from the curve file
    entry."""
    from . import bounds

    lam = args.lambda0 if args.lambda0 is not None else entry.lambda0
    mu = args.mu0 if args.mu0 is not None else entry.mu0
    selmer = args.selmer_zero or bool(entry.selmer_zero)
    if selmer:
        lam = 0 if lam is None else lam
        mu = 0 if mu is None else mu
    if lam is None or mu is None:
        raise ValueError("base invariants required: pass --lambda0 and --mu0 "
                         "(or use a curve file carrying them)")
    notes = []
    if args.lambda0 is not None or args.mu0 is not None or args.selmer_zero:
        notes.append("command-line input")
    if entry.provenance and (args.lambda0 is None or args.mu0 is None or entry.selmer_zero):
        notes.append(entry.provenance)
    return bounds.BaseInvariants(mu0=mu, lambda0=lam, selmer_zero=selmer,
                                 provenance="; ".join(notes) or "command-line input")


# --- subcommand bodies: each returns its whole output ----------------------

def _cmd_invariants(args) -> str | dict:
    E = _load_entry(args).curve
    if args.json:
        from . import report
        return report.invariants_json(E)
    return (f"label={E.label}\nainvs={list(E.ainvs)}\n"
            f"b2={E.b2} b4={E.b4} b6={E.b6} b8={E.b8}\n"
            f"c4={E.c4} c6={E.c6}\ndisc={E.disc}")


def _cmd_reduction(args) -> str:
    from . import curve

    E = _load_entry(args).curve
    return f"ell={args.ell} type={curve.reduction_type(E, args.ell).value}"


def _cmd_count(args) -> str | dict:
    from . import curve

    E = _load_entry(args).curve
    pc = curve.count_points_ext(E, args.ell, args.ext)
    if args.json:
        from . import report
        return report.count_json(E.label, pc)
    return f"ell={pc.ell} k={pc.k} count={pc.count} trace={pc.trace}"


def _cmd_splitting(args) -> str | dict:
    from . import cyclotomic

    if args.level is not None:
        g = cyclotomic.splitting_finite(args.ell, args.p, args.level)
        if args.json:
            from . import report
            return report.splitting_finite_json(args.ell, args.p, args.level, g)
        return f"ell={args.ell} p={args.p} level={args.level} count={g}"
    data = cyclotomic.splitting_infinite(args.ell, args.p)
    if args.json:
        from . import report
        return report.splitting_json(data)
    return (f"ell={data.ell} p={data.p} f={data.residue_order} "
            f"m={data.stable_level} g_inf={data.num_primes}")


def _qsets_lines(q) -> list[str]:
    return [f"q1={q.q1} q2={q.q2}"] + [
        f"{tag}_witnesses: " + (" ".join(f"{ell}:{c}" for ell, c in wits) or "(none)")
        for tag, wits in (("q1", q.witnesses_q1), ("q2", q.witnesses_q2))]


def _cmd_qsets(args) -> str | dict:
    from . import report, tower

    E = _load_entry(args).curve
    spec = report.parse_tower(args.tower, args.p, assume_mhg=False)
    q = tower.compute_qsets(E, spec)
    if args.json:
        return report.qsets_json(E.label, spec, q)
    return "\n".join(_qsets_lines(q))


def _cmd_bounds(args) -> str | dict:
    from . import bounds, report, tower

    entry = _load_entry(args)
    spec = report.parse_tower(args.tower, args.p, assume_mhg=args.assume_mhg)
    base = _resolve_base(args, entry)
    rep = bounds.growth_report(entry.curve, spec, base, args.nmax)
    if args.json:
        return report.bounds_json(rep)
    header = ["n", "cyc_degree", "mu", "lambda_min", "lambda_max", "rank_max", "hung_lim"]
    # growth_report fills hung_lim_upper exactly on torsion towers
    cells = [header if spec.kind is tower.TowerKind.TORSION_FIELD else header[:-1]]
    for r in rep.rows:
        cells.append([str(v) for v in (r.n, r.cyc_degree, r.mu, r.lambda_lower, r.lambda_upper,
                                       r.rank_upper, r.hung_lim_upper) if v is not None])
    widths = [max(len(r[i]) for r in cells) for i in range(len(cells[0]))]
    return "\n".join([
        f"label={rep.label} tower={report.tower_text(spec)} p={spec.p} d={spec.d}",
        *_qsets_lines(rep.qsets),
        f"base: mu0={base.mu0} lambda0={base.lambda0} "
        f"selmer_zero={'true' if base.selmer_zero else 'false'}",
        f"provenance: {base.provenance}",
        f"assume_mhg={'true' if spec.assume_mhg else 'false'}",
        f"verdict={rep.verdict.value}",
        *("  ".join(cell.rjust(w) for cell, w in zip(r, widths)) for r in cells),
    ])


def _cmd_kida(args) -> str:
    from . import bounds, report

    spec = report.parse_tower(args.tower, args.p, assume_mhg=args.assume_mhg)
    base = bounds.BaseInvariants(mu0=args.mu0 if args.mu0 is not None else 0,
                                 lambda0=args.lambda0, selmer_zero=False,
                                 provenance="command-line input")
    lam = bounds.kida_lambda(base, spec, _parse_ram(args.ram, args.n))
    return f"level={args.n} lambda={lam}"


def _cmd_wprep(args) -> str:
    from . import series

    inv, _unit_checked = series.weierstrass_prepare(series.series_from_text(args.series))
    return f"mu={inv.mu} lambda={inv.lam}"


def _cmd_density(args) -> str | dict:
    from . import density

    E = _load_entry(args).curve
    scan = (density.scan_torsion_density if args.mode == "torsion"
            else density.scan_q_vanishing)
    rep = scan(E, args.p, args.limit, workers=args.jobs, keep_rows=args.csv)
    if args.csv:
        return "\n".join(["ell,count_mod_p,hit", *(
            f"{row.ell},{row.count_mod_p},{1 if row.hit else 0}" for row in rep.rows)])
    if args.json:
        from . import report
        return report.density_json(rep)
    return (f"label={rep.label} p={rep.p} mode={rep.mode} limit={rep.limit}\n"
            f"total={rep.total} hits={rep.hits} "
            f"fraction={rep.hits}/{rep.total} decimal={rep.decimal}")


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

    p = sub.add_parser("wprep", help="Weierstrass preparation of a p-adic series", description=(
        "Print mu and lambda of the declared truncation: the series' own when a unit coefficient "
        "is declared, or when mu is known to be attained within the declared length; "
        "'5 3 3 : 50 75 100' gives mu=2 whatever follows T^2, where a unit may hide."))
    p.add_argument("--series", required=True,
                   help="series text 'p M N : c0 c1 ... c_{N-1}'")
    p.set_defaults(func=_cmd_wprep)

    p = sub.add_parser("density", help="prime-scan density experiment")
    add_curve_arg(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--limit", type=int, required=True, metavar="X")
    p.add_argument("--mode", choices=("torsion", "qvanish"), required=True)
    out = p.add_mutually_exclusive_group()
    out.add_argument("--csv", action="store_true", help="emit per-prime CSV rows")
    out.add_argument("--json", action="store_true")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="processes, this one included (default 1); each takes a stride "
                        "share of at least 256 primes, and the scan runs serially "
                        "where os.fork is absent")
    p.set_defaults(func=_cmd_density)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.func(args)
        text = out if isinstance(out, str) else json.dumps(out, sort_keys=True)
    except DomainError as e:
        print(f"error: {e.name}: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
