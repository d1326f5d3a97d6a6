"""Numerical laboratory for semi-classical hermitian one-matrix models.

Equilibrium measures and spectral curves for eigenvalue ensembles with
weights w(x) = e^{-n V(x)} on a union of intervals, classification of
critical points with their double-scaling exponents, extraction of the
local model-problem data, finite-n Christoffel-Darboux kernels from
orthogonal polynomials, desk-scale verification of the universal kernel
limits (sine / Airy / Bessel / Painleve-type), and Coulomb-gas MCMC
cross-validation.
"""

from .errors import FormatError, NumericalError, ValidationError
from .potential import (
    IntervalSet,
    Potential,
    Singularity,
    log_weight,
    parse_potential,
    v_reg,
)
from .equilibrium import (
    EquilibriumMeasure,
    SpectralCurve,
    check_variational,
    curve_eval,
    density,
    example_curve,
    g_eval,
    solve_support,
    xi_eval,
)
from .classify import (
    CriticalPoint,
    ModelData,
    ScaledCharge,
    ScaledCurve,
    bulk_point,
    extract_model_data,
    find_critical_points,
    nearest_critical_point,
    scaled_curve,
    scaled_eval,
    series_at_infinity,
)
from .orthopoly import (
    QuadratureRule,
    Recurrence,
    build_quadrature,
    cached_recurrence,
    gram_check,
    orthonormal_rows,
    stieltjes_recurrence,
)
from .kernel import (
    airy_kernel,
    bessel_kernel,
    convergence_scan,
    kernel_diag,
    kernel_matrix,
    projection_residual,
    scaled_kernel_grid,
    sine_kernel,
    trace_check,
)
from .sampler import (
    ChainState,
    EmpiricalDensity,
    chain_log_density,
    compare_density,
    histogram_density,
    mcmc_chain,
)
from .scenarios import get_scenario, scenario_names

__version__ = "0.1.0"
