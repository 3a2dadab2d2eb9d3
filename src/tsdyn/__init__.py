"""Dynamic equations on finite time-scale realizations.

Delta calculus on strictly increasing point sets, the discrete kernel solver
for the two-point Dirichlet problem, positive lower/upper bound
constructions for singular right hand sides, and refinement-family
solvability criteria.
"""

from .calculus import (
    GridFunction,
    delta_derivative,
    delta_integral,
    delta_second,
    sigma_shift,
)
from .criteria import (
    DEFAULT_SEED,
    BoundsPair,
    ConvergenceVerdict,
    CriterionReport,
    LipschitzReport,
    SampleReport,
    ScalingReport,
    Verdict,
    VerificationReport,
    check_lipschitz_bound,
    check_monotone_in_state,
    check_scaling_exponents,
    compute_envelope,
    construct_bounds,
    construct_lower,
    criterion_necessary,
    criterion_sufficient,
    family_quadrature,
    verify_lower,
    verify_upper,
)
from .errors import (
    BracketViolation,
    ConfigError,
    CriterionNotSatisfied,
    DimensionMismatch,
    DomainViolation,
    EnvelopeViolation,
    ExpressionSyntaxError,
    SupportMismatch,
    TsdynError,
    UnknownVariable,
)
from .expressions import ExpressionTree, parse_expression
from .green import (
    affine_interpolant,
    envelope_weight,
    green_apply,
    kernel_lower_weight,
)
from .model import DirichletProblem, Nonlinearity, rhs_matrix
from .solver import (
    SolveConfig,
    SolveReport,
    Status,
    Strategy,
    apply_green_operator,
    residual_norm,
    solve,
)
from .timescale import (
    QUANTUM_FAMILY_DEPTHS,
    UNIFORM_FAMILY_SIZES,
    TimeScale,
    from_points,
    quantum,
    quantum_family,
    same_realization,
    uniform,
    uniform_family,
)

__version__ = "0.1.0"

__all__ = [
    "GridFunction", "delta_derivative", "delta_integral", "delta_second",
    "sigma_shift",
    "DEFAULT_SEED", "BoundsPair", "ConvergenceVerdict", "CriterionReport",
    "LipschitzReport", "SampleReport", "ScalingReport",
    "Verdict", "VerificationReport", "check_lipschitz_bound",
    "check_monotone_in_state", "check_scaling_exponents",
    "compute_envelope", "construct_bounds", "construct_lower",
    "criterion_necessary", "criterion_sufficient", "family_quadrature",
    "verify_lower", "verify_upper",
    "BracketViolation", "ConfigError", "CriterionNotSatisfied",
    "DimensionMismatch", "DomainViolation", "EnvelopeViolation",
    "ExpressionSyntaxError", "SupportMismatch", "TsdynError", "UnknownVariable",
    "ExpressionTree", "parse_expression",
    "affine_interpolant", "envelope_weight", "green_apply",
    "kernel_lower_weight",
    "DirichletProblem", "Nonlinearity", "rhs_matrix",
    "SolveConfig", "SolveReport", "Status", "Strategy",
    "apply_green_operator", "residual_norm", "solve",
    "QUANTUM_FAMILY_DEPTHS", "UNIFORM_FAMILY_SIZES", "TimeScale",
    "from_points", "quantum", "quantum_family", "same_realization", "uniform",
    "uniform_family",
]
