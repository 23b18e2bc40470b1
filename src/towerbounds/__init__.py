"""towerbounds: exact arithmetic for Iwasawa invariants and Mordell-Weil rank
growth bounds of elliptic curves in uniform pro-p towers.

Everything is exact (arbitrary-precision integers and rationals, explicit
p-adic precision); no floating point enters any result.

Each name is imported from its own module, e.g.
``from towerbounds.curve import count_points``; importing the package loads
no submodule, so a process pays only for the modules it touches.
"""

import numpy  # noqa: F401  -- unused; bench/layers.py times this import

__version__ = "0.1.0"
