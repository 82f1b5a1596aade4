"""Exact sieve experiments on orbits of finitely generated rational matrix
groups: word-metric balls, finite reductions and local densities, truncated
inclusion-exclusion brackets, almost-prime censuses, a certified sieve on
unipotent groups, and diagonalizable-group heuristics.
"""

__version__ = "0.1.0"

from .core_arith import (
    FactorBudget,
    Factorization,
    check_prime_set,
    factorize,
    is_prime,
    omega_outside,
    primes_upto,
    s_integer_part,
)
from .matgroup import Ball, GeneratorSet, MatrixQ, ResourceCapError, ball, bfs, orbit
from .modp import (
    EnumerationBudgetError,
    FiniteImage,
    beta_squarefree,
    detect_ramified,
    enumerate_variety_mod_p,
    generate_image,
    local_density,
    sl_order,
    splitting_census,
    surjectivity_certificate,
    verify_strong_approx,
)
from .orbit_sieve import (
    almost_prime_census,
    brun_bound,
    build_sequence,
    level_distribution_report,
    moduli_decomposition,
    r_formula,
    saturation_estimate,
    sieve_dimension_fit,
)
from .polyalg import (
    CertificateError,
    MultiPoly,
    malcev_lattice,
    nilpotent_exp,
    nilpotent_log,
    zariski_density_test,
)
from .unipotent_sieve import (
    CoprimalityError,
    GcdCertificate,
    SieveBudget,
    UniSieveProblem,
    bad_prime_bound,
    gcd_certificate,
    multivariable_sieve,
    progression_avoiding,
    single_variable_almost_primes,
    unipotent_group_sieve,
)
from .heuristics import (
    TorusSpec,
    borel_cantelli_sum,
    hilbert_schmidt,
    norm_growth_check,
    prime_factor_trend,
)
from .scenario import Scenario, load_scenario, parse_rational, rational_str
