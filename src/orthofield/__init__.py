"""Stationary random fields on the integer lattice: exact projection algebra,
orthomartingale coboundary decompositions, weak-dependence coefficients, and
seeded Monte Carlo verification of the Gaussian limit behaviour."""

from .coboundary import (
    CoboundaryParts,
    center,
    check_order,
    decompose,
    martingale_op,
    reconstruct,
    transfer_op,
)
from .counterexample import (
    CounterexampleReport,
    comparison_report,
    embed_diagonal,
    pattern_block,
    truncated_martingale,
)
from .dependence import (
    DependenceProfile,
    MartingaleKernel,
    dependence_profile,
    hannan_profile,
    martingale_kernel,
    maxwell_woodroofe_profile,
    physical_dependence,
    tail_sum_inequality,
)
from .functional import (
    Factor,
    FiniteRangeFunctional,
    ValueTable,
    constant,
    from_terms,
    indicator_at,
    innovation_at,
    power_at,
    zero,
)
from .innovation import (
    CapExceededError,
    Configuration,
    FieldSample,
    InnovationLaw,
    enumerate_configs,
    sample_region,
)
from .lattice import Rectangle, Site, box, leq, prefix_sum, unit
from .montecarlo import (
    GapStatistic,
    PathSamples,
    cairoli_ratio,
    maximal_inequality_check,
    sample_paths,
    uniform_grid,
    uniform_integrability_diagnostic,
)
from .projection import (
    Corner,
    Halfspace,
    cond_expect,
    kernel_sum,
    origin_projections,
    project_full,
    project_line,
    projection_identity_report,
    projective_decomposition,
)
from .stats import TestResult, ks_test, moment_summary, normal_cdf, sheet_covariance_check

__version__ = "0.1.0"
