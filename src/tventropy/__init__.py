"""Sparse nonstationary maximum-entropy regime switching for time series.

The estimator alternates between fitting bounded-domain exponential-family
densities per regime and reassigning observations to regimes through a
linear program with per-regime total-variation budgets, yielding persistent
regime-switching models selected by BIC.
"""

from .diagnostics import (
    ContingencyTable2x2,
    RelationGraph,
    SyntheticCase,
    acf_abs,
    acf_bands,
    classification_error,
    fisher_exact,
    gen_two_regime_gaussian,
    gmw_variance,
    jump_series,
    relative_error,
    simulate_panels,
    simulated_acf,
    transition_graph,
    variance_path,
)
from .errors import (
    DegenerateDimension,
    DegenerateSeries,
    DomainError,
    EmptyInput,
    EmptyRegime,
    ParseError,
    SolverError,
    TvEntropyError,
)
from .estimator import (
    FitResult,
    ModelConfig,
    SelectionReport,
    anneal,
    bic,
    compose_lambda,
    fit,
    grid_search,
    param_count,
    schwarz_weights,
)
from .forecast import VarBacktestResult, assign_regime_online, backtest, kupiec_test, var_forecast
from .gamma_step import build_scores, solve_gamma, tv_norm
from .lambda_step import (
    feature_matrix,
    fit_lambda,
    loglik_gradient,
    project_l1_ball,
    sparsify,
    weighted_loglik,
)
from .maxent import (
    cdf,
    density,
    entropy,
    log_partition,
    moments,
    quantile,
    sample,
)
from .panel import DescriptiveStats, Panel, ScalingMap, descriptive_stats, load_csv, rescale

__version__ = "0.1.0"
