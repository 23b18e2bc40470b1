"""Print one SHA-256 digest of the Frobenius traces over a fixed pair list, so
that two versions of the point-count kernel are compared by one line.

Run it from the repository root:

    PYTHONPATH=src python tools/trace_digest.py

The list is the 8 bundled curves at every good prime 229 < ell < 3*10^4,
then 2,000 good (curve, ell) pairs with ell prime in [10^4, 10^6], drawn by
``random.Random(20261022)``.  The digest runs over the lines
``label ell a_ell``, one per pair in that order.  It takes a few seconds.
The script lives outside ``tests/``, the only test path, so the suite never
collects it.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left

from towerbounds.arith import sieve_primes
from towerbounds.catalog import load_bundled
from towerbounds.curve import MESTRE_BOUND, ReductionType, count_points, reduction_type

SCAN_LIMIT = 3 * 10**4
DRAW_RANGE = (10**4, 10**6)
DRAWS = 2000
SEED = 20261022


def pairs():
    """The (label, curve, ell) list, bad primes left out."""
    curves = [(label, entry.curve) for label, entry in load_bundled().items()]
    primes = sieve_primes(DRAW_RANGE[1]).primes
    for label, E in curves:
        for ell in primes[bisect_left(primes, MESTRE_BOUND + 1):bisect_left(primes, SCAN_LIMIT)]:
            if reduction_type(E, ell) is ReductionType.GOOD:
                yield label, E, ell
    rng, pool, drawn = random.Random(SEED), primes[bisect_left(primes, DRAW_RANGE[0]):], 0
    while drawn < DRAWS:
        label, E = rng.choice(curves)
        ell = rng.choice(pool)
        if reduction_type(E, ell) is ReductionType.GOOD:
            drawn += 1
            yield label, E, ell


def main() -> None:
    digest, n = hashlib.sha256(), 0
    for label, E, ell in pairs():
        digest.update(f"{label} {ell} {count_points(E, ell).trace}\n".encode())
        n += 1
    print(f"{n} pairs  sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
