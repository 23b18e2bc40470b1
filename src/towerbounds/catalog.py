"""Curve ingestion: JSON-lines files of labeled Weierstrass models.

One JSON object per line.  Keys: ``label`` (string) and ``ainvs`` (exactly
five integers) are required; ``lambda0``, ``mu0``, ``selmer_zero`` and
``provenance`` are optional metadata.  Anything else is rejected — a typo'd
key must fail loudly rather than be silently ignored.

Labeled coefficients are data, not ground truth: derived invariants are
recomputed from the a-invariants on load, and the test suite pins the
expected discriminants of the bundled curves independently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .curve import WeierstrassCurve, curve_from_ainvs
from .errors import DuplicateLabel, MalformedCurveEntry, UnknownCurveKey

ALLOWED_KEYS = frozenset(
    {"label", "ainvs", "lambda0", "mu0", "selmer_zero", "provenance"}
)


@dataclass(frozen=True)
class CurveFileEntry:
    """A curve with optional user-supplied base data."""

    curve: WeierstrassCurve
    lambda0: int | None = None
    mu0: int | None = None
    selmer_zero: bool | None = None
    provenance: str | None = None

    @property
    def label(self) -> str:
        assert self.curve.label is not None
        return self.curve.label


def _require_int(obj, key: str, where: str) -> int:
    v = obj[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise MalformedCurveEntry(f"{where}: {key} must be an integer, got {v!r}")
    if v < 0:
        raise MalformedCurveEntry(f"{where}: {key} must be >= 0, got {v}")
    return v


def parse_entry(obj, where: str = "curve entry") -> CurveFileEntry:
    """Validate one decoded JSON object and build its entry."""
    if not isinstance(obj, dict):
        raise MalformedCurveEntry(f"{where}: expected a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - ALLOWED_KEYS)
    if unknown:
        raise UnknownCurveKey(f"{where}: unknown key(s) {unknown}")
    if "label" not in obj or "ainvs" not in obj:
        raise MalformedCurveEntry(f"{where}: 'label' and 'ainvs' are required")
    label = obj["label"]
    if not isinstance(label, str) or not label:
        raise MalformedCurveEntry(f"{where}: label must be a non-empty string")
    ainvs = obj["ainvs"]
    if (not isinstance(ainvs, list) or len(ainvs) != 5
            or any(not isinstance(v, int) or isinstance(v, bool) for v in ainvs)):
        raise MalformedCurveEntry(f"{where}: ainvs must be a list of exactly 5 integers")
    lambda0 = _require_int(obj, "lambda0", where) if "lambda0" in obj else None
    mu0 = _require_int(obj, "mu0", where) if "mu0" in obj else None
    selmer_zero = obj.get("selmer_zero")
    if selmer_zero is not None and not isinstance(selmer_zero, bool):
        raise MalformedCurveEntry(f"{where}: selmer_zero must be a boolean")
    provenance = obj.get("provenance")
    if provenance is not None and (not isinstance(provenance, str) or not provenance):
        raise MalformedCurveEntry(f"{where}: provenance must be a non-empty string")
    return CurveFileEntry(
        curve=curve_from_ainvs(ainvs, label=label),
        lambda0=lambda0, mu0=mu0, selmer_zero=selmer_zero, provenance=provenance,
    )


def load_curve_file(path: str | Path) -> dict[str, CurveFileEntry]:
    """Parse a JSON-lines curve file into an ordered {label: entry} map."""
    out: dict[str, CurveFileEntry] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise MalformedCurveEntry(f"{where}: not valid JSON ({e})") from None
        entry = parse_entry(obj, where=where)
        if entry.label in out:
            raise DuplicateLabel(f"{where}: label {entry.label!r} already defined")
        out[entry.label] = entry
    return out


def bundled_curve_path() -> Path:
    """The curve corpus beside this module, in a source checkout or an
    installed package; a zipped install is not supported."""
    return Path(__file__).with_name("data").joinpath("curves.jsonl")


def load_bundled() -> dict[str, CurveFileEntry]:
    return load_curve_file(bundled_curve_path())
