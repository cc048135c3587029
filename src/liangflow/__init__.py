"""Directed information-flow rates between time-series components.

Estimates, for every ordered pair of series, the rate (nats per unit
time) at which the source feeds entropy into the target's marginal
distribution — a signed, quantitative notion of causal influence with a
closed-form estimator under a linear stochastic model. Ships with
significance tests, relative-importance normalization, causal-graph
construction, and a linear-SDE simulator whose stationary solution
provides exact ground truth.
"""

from .core import (
    PanelPairs,
    SampleCovariances,
    TimeSeriesSet,
    cofactor,
    forward_difference,
    sample_covariance_matrix,
    validate_series_set,
)
from .dynamics import (
    LinearSDE,
    StationaryCovariance,
    TheoreticalBudget,
    default_burn_in,
    simulate,
    stationary_covariance,
    theoretical_budget,
    theoretical_flow,
)
from .errors import (
    BadMatrixSpecError,
    ConstantSeriesError,
    DegenerateBudgetError,
    DuplicateNamesError,
    EmptyFileError,
    KTooLargeError,
    LiangFlowError,
    LyapunovResidualError,
    MalformedError,
    NaNsPresentError,
    NonFiniteMomentsError,
    NonFiniteStateError,
    NonRectangularError,
    NotHurwitzError,
    NumericalError,
    SameIndexError,
    SingularCovarianceError,
    TooShortError,
    ValidationError,
    ZeroVarianceWarning,
)
from .estimator import (
    FlowEstimate,
    LinearModelFit,
    NormalizedBudget,
    fit_linear_model,
    flow_bivariate,
    flow_multivariate,
    flow_panel,
    normalize_flows,
    self_contribution,
    significance,
)
from .graph import (
    CausalGraph,
    Edge,
    FlowMatrix,
    SelfLoop,
    all_pairs,
    build_graph,
    emit_dot,
    emit_json,
    flow_matrix_from_json,
)

__version__ = "0.1.0"

__all__ = [
    "TimeSeriesSet", "SampleCovariances", "PanelPairs",
    "validate_series_set", "sample_covariance_matrix", "cofactor", "forward_difference",
    "LinearModelFit", "FlowEstimate", "NormalizedBudget",
    "fit_linear_model", "flow_multivariate", "flow_bivariate", "self_contribution",
    "flow_panel", "significance", "normalize_flows",
    "LinearSDE", "StationaryCovariance", "TheoreticalBudget",
    "simulate", "stationary_covariance", "theoretical_flow", "theoretical_budget",
    "default_burn_in",
    "FlowMatrix", "CausalGraph", "Edge", "SelfLoop",
    "all_pairs", "build_graph", "emit_dot", "emit_json", "flow_matrix_from_json",
    "LiangFlowError", "ValidationError", "NumericalError",
    "NonRectangularError", "NaNsPresentError", "ConstantSeriesError", "TooShortError",
    "DuplicateNamesError", "KTooLargeError", "SameIndexError", "MalformedError",
    "EmptyFileError", "BadMatrixSpecError", "SingularCovarianceError", "NotHurwitzError",
    "NonFiniteMomentsError", "NonFiniteStateError", "DegenerateBudgetError",
    "LyapunovResidualError",
    "ZeroVarianceWarning",
    "__version__",
]
