"""JSON reports, schema 1.

One builder per report kind turns a library result into a dict.  A report
is checked by rebuilding it from the inputs it names, through the library's
own constructors and functions, and comparing the rebuilt dict with the
report field by field as JSON text, so that 2401.0 or true never passes for
2401 or 1: the formulas live in the library only, never here.
"""

from __future__ import annotations

import json

from . import arith, bounds, curve, cyclotomic, tower
from .density import DensityReport

SCHEMA = 1


def tower_text(spec: tower.TowerSpec) -> str:
    if spec.kind is tower.TowerKind.FALSE_TATE:
        return f"falsetate:{spec.ell}"
    if spec.kind is tower.TowerKind.ZPD_COMPOSITE:
        return f"zpd:{spec.d}"
    if spec.kind is tower.TowerKind.TORSION_FIELD:
        return "torsion"
    return f"generic:{spec.d}:" + ",".join(str(x) for x in spec.ramified_primes)


def parse_tower(text: str, p: int, assume_mhg: bool) -> tower.TowerSpec:
    """The inverse of tower_text; ValueError on malformed text."""
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


def invariants_json(E: curve.WeierstrassCurve) -> dict:
    return {"schema": SCHEMA, "kind": "invariants", "label": E.label,
            "ainvs": list(E.ainvs), "b2": E.b2, "b4": E.b4, "b6": E.b6,
            "b8": E.b8, "c4": E.c4, "c6": E.c6, "disc": E.disc}


def count_json(label: str | None, pc: curve.PointCount) -> dict:
    return {"schema": SCHEMA, "kind": "count", "label": label,
            "ell": pc.ell, "k": pc.k, "count": pc.count, "trace": pc.trace}


def splitting_json(data: cyclotomic.SplittingData) -> dict:
    return {"schema": SCHEMA, "kind": "splitting", "ell": data.ell, "p": data.p,
            "f": data.residue_order, "m": data.stable_level, "g_inf": data.num_primes}


def splitting_finite_json(ell: int, p: int, level: int, count: int) -> dict:
    return {"schema": SCHEMA, "kind": "splitting_finite", "ell": ell, "p": p,
            "level": level, "count": count}


def qsets_json(label: str | None, spec: tower.TowerSpec, q: tower.QSets) -> dict:
    return {
        "schema": SCHEMA, "kind": "qsets", "label": label,
        "p": spec.p, "tower": tower_text(spec), "d": spec.d,
        "q1": q.q1, "q2": q.q2,
        "witnesses_q1": [list(w) for w in q.witnesses_q1],
        "witnesses_q2": [list(w) for w in q.witnesses_q2],
    }


def bounds_json(report: bounds.GrowthBoundReport) -> dict:
    base = report.base
    return dict(
        qsets_json(report.label, report.spec, report.qsets),
        kind="bounds", assume_mhg=report.spec.assume_mhg,
        base={"mu0": base.mu0, "lambda0": base.lambda0,
              "selmer_zero": base.selmer_zero, "provenance": base.provenance},
        verdict=report.verdict.value,
        rows=[{"n": r.n, "cyc_degree": r.cyc_degree, "mu": r.mu,
               "lambda_lower": r.lambda_lower, "lambda_upper": r.lambda_upper,
               "rank_upper": r.rank_upper, "hung_lim_upper": r.hung_lim_upper}
              for r in report.rows],
    )


def density_json(report: DensityReport) -> dict:
    return {
        "schema": SCHEMA, "kind": "density", "label": report.label,
        "p": report.p, "mode": report.mode, "limit": report.limit,
        "total": report.total, "hits": report.hits,
        "fraction": f"{report.hits}/{report.total}", "decimal": report.decimal,
    }


def _qsets(spec: tower.TowerSpec, obj: dict) -> tower.QSets:
    w1, w2 = (tuple((ell, c) for ell, c in obj[f"witnesses_q{i}"]) for i in (1, 2))
    return tower.check_witnesses(spec, tower.QSets(obj["q1"], obj["q2"], w1, w2))


def _rebuild(obj: dict) -> dict:
    """The report that the inputs named in obj give."""
    kind = obj["kind"]
    if kind == "invariants":
        return invariants_json(curve.curve_from_ainvs(obj["ainvs"], label=obj["label"]))
    if kind == "count":
        pc = curve.PointCount(ell=arith.check_prime(obj["ell"], "ell"), k=obj["k"],
                              count=obj["count"], trace=obj["trace"])
        pc.validate()
        return count_json(obj["label"], pc)
    if kind == "splitting":
        return splitting_json(cyclotomic.splitting_infinite(obj["ell"], obj["p"]))
    if kind == "splitting_finite":
        ell, p, level = obj["ell"], obj["p"], obj["level"]
        return splitting_finite_json(ell, p, level, cyclotomic.splitting_finite(ell, p, level))
    if kind == "qsets":
        spec = parse_tower(obj["tower"], obj["p"], assume_mhg=False)
        return qsets_json(obj["label"], spec, _qsets(spec, obj))
    if kind == "bounds":
        spec = parse_tower(obj["tower"], obj["p"], obj["assume_mhg"])
        b = obj["base"]
        base = bounds.BaseInvariants(mu0=b["mu0"], lambda0=b["lambda0"],
                                     selmer_zero=b["selmer_zero"], provenance=b["provenance"])
        return bounds_json(bounds.assemble_report(obj["label"], spec, base, _qsets(spec, obj),
                                                  len(obj["rows"]) - 1))
    if kind == "density":
        return density_json(DensityReport(
            label=obj["label"], p=obj["p"], limit=obj["limit"], mode=obj["mode"],
            total=obj["total"], hits=obj["hits"]))
    raise ValueError(f"unknown report kind {kind!r}")


def validate_report_json(obj: dict) -> None:
    """Check an emitted JSON report by rebuilding it from its inputs.

    Raises ValueError (or a domain error) when the report is malformed or
    differs from its rebuild in any field.
    """
    if obj.get("schema") != SCHEMA:
        raise ValueError(f"unknown schema {obj.get('schema')!r}")
    try:
        rebuilt = {k: json.dumps(v, sort_keys=True) for k, v in _rebuild(obj).items()}
        given = {k: json.dumps(v, sort_keys=True) for k, v in obj.items()}
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed {obj.get('kind')!r} report: {e!r}") from None
    if rebuilt != given:
        fields = sorted(k for k in rebuilt.keys() | given.keys() if rebuilt.get(k) != given.get(k))
        raise ValueError(f"{obj['kind']} report does not match its inputs "
                         f"in {', '.join(fields)}")
