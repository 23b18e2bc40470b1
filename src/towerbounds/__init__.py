"""towerbounds: exact arithmetic for Iwasawa invariants and Mordell-Weil rank
growth bounds of elliptic curves in uniform pro-p towers.

Everything is exact (arbitrary-precision integers and rationals, explicit
p-adic precision); no floating point enters any result.
"""

from .arith import (
    PrimeRange,
    euler_phi,
    factorize,
    is_prime,
    legendre_symbol,
    multiplicative_order,
    padic_valuation,
    sieve_primes,
)
from .bounds import (
    BaseInvariants,
    GrowthBoundReport,
    GrowthRow,
    RamificationData,
    SelmerVerdict,
    growth_report,
    hung_lim_bound,
    kida_lambda,
    lambda_bounds,
    mu_growth,
    rank_bound,
    selmer_zero_propagation,
)
from .catalog import CurveFileEntry, load_bundled, load_curve_file
from .curve import (
    PointCount,
    ReductionType,
    WeierstrassCurve,
    bad_primes,
    count_points,
    count_points_ext,
    curve_from_ainvs,
    has_p_torsion_over,
    is_good_ordinary,
    is_minimal_at,
    make_curve,
    reduction_type,
)
from .cyclotomic import SplittingData, splitting_finite, splitting_infinite
from .density import (
    DensityReport,
    ScanRow,
    scan_q_vanishing,
    scan_torsion_density,
)
from .series import (
    CharacteristicElement,
    DistinguishedPoly,
    IwasawaInvariants,
    PadicSeries,
    char_element,
    expand_char_element,
    series_from_text,
    series_multiply,
    series_to_text,
    weierstrass_prepare,
)
from .tower import (
    QSets,
    TowerKind,
    TowerSpec,
    compute_qsets,
    cyc_layer_degree,
    full_layer_degree,
)

__version__ = "0.1.0"
