"""Numerical workbench for quantum Brascamp-Lieb inequalities.

Evaluates both the entropic and the analytic (Young-type trace-exponential)
form of quantum BL inequalities, estimates optimal constants from either
side, cross-checks the duality between them, and bundles the standard
worked applications: Shearer/Loomis-Whitney, entropic uncertainty
relations, minimum output entropy, (strong) data processing, relative
entropy super-additivity, and geometric Gaussian BL inequalities.
"""

from .policy import (
    HERM_RTOL,
    PSD_SLACK,
    SUPP_RTOL,
    SUPPORT_LEAK_TOL,
    eps_supp,
)
from .operators import (
    DensityOperator,
    HermitianOperator,
    PSDOperator,
    SupportLog,
    identity,
    lieb_triple_integral,
    log_trace_exp_sum,
    matrix_exp,
    matrix_log,
    operator_jensen_check,
    schatten,
    trace_exp_sum,
    weighted_antinorm,
    zero,
)
from .channels import (
    Channel,
    apply,
    apply_adjoint,
    depolarizing,
    identity_channel,
    measurement_channel,
    partial_trace,
    pauli_basis,
    ptrace,
    tensor,
    trace_channel,
    transpose_map,
)
from .entropy import (
    conditional_entropy,
    legendre_trace_exp,
    relative_entropy,
    variational_lower,
    variational_optimizer_state,
    von_neumann,
)
from .engine import (
    BLDatum,
    OptimizerBudget,
    SamplerConfig,
    VerificationReport,
    analytic_gap,
    bl_membership,
    duality_crosscheck,
    entropic_gap,
    induced_analytic_witness,
    optimal_constant_analytic,
    optimal_constant_entropic,
    tensor_datum,
    tensorization_check,
)
from .gaussian import (
    GaussianState,
    Subspace,
    deficit_trajectory,
    gaussian_entropy,
    gaussian_marginal,
    geometric_bl_deficit,
    geometric_datum_check,
    heat_flow,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
