"""towerbounds: exact arithmetic for Iwasawa invariants and Mordell-Weil rank
growth bounds of elliptic curves in uniform pro-p towers.

Everything is exact (arbitrary-precision integers and rationals, explicit
p-adic precision); no floating point enters any result.

The names below are re-exported lazily (PEP 562): ``towerbounds.count_points``
imports ``towerbounds.curve`` on first use, so a process pays only for the
modules it touches.
"""

import numpy  # noqa: F401  -- unused; bench/layers.py times this import

__version__ = "0.1.0"

_EXPORTS = {
    "arith": ("PrimeRange", "euler_phi", "factorize", "is_prime", "legendre_symbol",
              "multiplicative_order", "padic_valuation", "sieve_primes"),
    "bounds": ("BaseInvariants", "GrowthBoundReport", "GrowthRow", "RamificationData",
               "SelmerVerdict", "growth_report", "hung_lim_bound", "kida_lambda",
               "lambda_bounds", "mu_growth", "rank_bound", "selmer_zero_propagation"),
    "catalog": ("CurveFileEntry", "load_bundled", "load_curve_file"),
    "curve": ("PointCount", "ReductionType", "WeierstrassCurve", "bad_primes", "count_points",
              "count_points_ext", "curve_from_ainvs", "has_p_torsion_over",
              "is_good_ordinary", "is_minimal_at", "make_curve", "reduction_type"),
    "cyclotomic": ("SplittingData", "splitting_finite", "splitting_infinite"),
    "density": ("DensityReport", "ScanRow", "scan_q_vanishing", "scan_torsion_density"),
    "series": ("CharacteristicElement", "DistinguishedPoly", "IwasawaInvariants",
               "PadicSeries", "char_element", "expand_char_element", "series_from_text",
               "series_multiply", "series_to_text", "weierstrass_prepare"),
    "tower": ("QSets", "TowerKind", "TowerSpec", "compute_qsets", "cyc_layer_degree",
              "full_layer_degree"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{mod}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | _MODULE_OF.keys())
