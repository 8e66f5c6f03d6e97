"""factorlab: deterministic integer-factorization toolkit.

Difference-of-squares scans (consecutive, triangular-accelerated, and
ratio-shifted), residue-class factor recovery, exact integer-lattice
reduction, sparse polynomial resultants, and bilinear small-root solvers
for factoring with partially known factors.
"""

from .arith import (
    Factorization,
    divisor_count,
    ext_gcd,
    is_perfect_square,
    is_prime,
    isqrt,
    mod_inverse,
    mod_sqrt,
    next_prime,
    random_prime,
    trial_factor,
)
from .coppersmith import (
    BivariateProblem,
    RootSolution,
    TrivariateProblem,
    default_box_bound,
    empirical_envelope,
    gated_polynomial,
    solve_bivariate,
    solve_bivariate_single,
    solve_coprime_moduli,
    solve_lsb_known,
    solve_msb_known,
    solve_trivariate,
    certified_regime,
    theorem4_driver,
)
from .fermat import (
    FermatResult,
    RatioBounds,
    RatioGridEntry,
    fermat_ratio,
    fermat_standard,
    fermat_triangular,
    predict_steps,
    ratio_bounds_check,
    ratio_grid,
    render_ratio,
)
from .lattice import (
    Basis,
    GramSchmidtData,
    determinant,
    gram_schmidt,
    hadamard_check,
    hermite_bound,
    lll_reduce,
    lll_reduce_with_transform,
    shortest_vector_exhaustive,
)
from .polynomial import (
    MultiPoly,
    PolyNorms,
    discriminant,
    format_poly,
    howgrave_predicate,
    multiple_bound_predicate,
    norms,
    parse_poly,
    resultant,
    scale_vars,
    sylvester_matrix,
)
from .residue import (
    ResidueClassSet,
    ResiduePair,
    algorithm_one,
    enumerate_pairs,
    landry_pepin,
    pair_driver,
    residue_driver,
    theorem4_pairs,
)

__version__ = "0.1.0"
