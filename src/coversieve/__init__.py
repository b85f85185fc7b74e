"""Exact-arithmetic toolkit for covering systems of congruences.

Construct and analyze finite systems of residue classes: compute uncovered
densities exactly, certify positivity through pair-correction and
smooth-part decomposition bounds, build exact covering systems and greedy
near-covers, and probe the statistics of random residue choices.
"""

from .bounds import (
    BoundCertificate,
    SmoothTail,
    alpha,
    beta,
    euler_product,
    pair_correction_bound,
    reciprocal_sum_threshold,
    smooth_numbers,
    smooth_tail_sum,
)
from .construct import (
    BlockSupplyResult,
    ExactCoverPlan,
    GreedyStep,
    GreedyTrace,
    PrimeProductStats,
    block_supply_check,
    exact_cover_construct,
    extend_witness,
    greedy_cover,
    greedy_step_invariant,
    minimal_block_schedule,
    prime_product_moduli,
)
from .core import (
    Factorization,
    GuardExceeded,
    ModuliSet,
    ResidueClass,
    ResidueSystem,
    crt_coprime,
    factorize,
    lcm_guarded,
    primes_in,
    smooth_split,
)
from .decompose import (
    AveragedAlpha,
    Decomposition,
    IdentityReport,
    SmoothCoverError,
    SubsystemGroup,
    averaged_alpha_floor,
    averaged_beta,
    decompose,
    decomposition_identity,
    positivity_certificate,
)
from .density import (
    DeltaMinusResult,
    DensityReport,
    ExactCoverCheck,
    delta_minus,
    delta_plus,
    exact_density,
    is_exact_cover,
)
from .stats import (
    MomentReport,
    VarianceScanReport,
    VarianceScanRow,
    enumerate_moments,
    pair_formula_moments,
    sample_moments,
    variance_bound_scan,
)

__version__ = "0.1.0"
