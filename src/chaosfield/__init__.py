"""Stochastic integration with respect to Gaussian fields via chaos expansion."""

from .basis import BasisFamily, QuadratureRule, quad_singular
from .chaos import (
    ChaosExpansion,
    HValuedChaos,
    chaos_eval,
    malliavin_derivative,
    truncate_expansion,
    wick_exp_first_chaos,
    wick_product,
)
from .errors import ChaosFieldError, ConfigurationError, DomainError
from .hermite import hermite, hermite_table
from .integrals import (
    AdmissibilityReport,
    admissibility_diagnostic,
    brownian_path_integrand,
    field_ito_integral,
    ito_integral,
    malliavin_trace,
    strat_integral,
    strat_via_trace,
)
from .kernels import (
    KernelSpec,
    brownian_kernel,
    covariance_from_kernel,
    fbm_c_h,
    fbm_kernel,
    fbm_kernel_dt,
    fbm_kernel_spec,
    grid_kernel,
    grid_kernel_from_csv,
    hr_gram,
    k1_empirical,
    m_tilde,
    op_norm_bound,
    op_norm_estimate,
)
from .mc import (
    SampleBatch,
    discrete_ito_batch,
    discrete_strat_batch,
    mc_compare,
    sample_batch,
    synthesize_paths,
)
from .multiindex import MultiIndex, Truncation, enumerate_multiindices, index_map
from .sde import (
    PropagatorSolution,
    sample_wick_exponential,
    solve_closed_form,
    solve_picard,
)

__version__ = "0.1.0"
