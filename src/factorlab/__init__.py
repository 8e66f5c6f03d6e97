"""factorlab: deterministic integer-factorization toolkit.

Difference-of-squares scans (consecutive, triangular-accelerated, and
ratio-shifted), residue-class factor recovery, exact integer-lattice
reduction, sparse polynomial resultants, and bilinear small-root solvers
for factoring with partially known factors.
"""

from .arith import *  # noqa: F401,F403
from .coppersmith import *  # noqa: F401,F403
from .fermat import *  # noqa: F401,F403
from .lattice import *  # noqa: F401,F403
from .polynomial import *  # noqa: F401,F403
from .residue import *  # noqa: F401,F403

__version__ = "0.1.0"
