"""Numerical laboratory for central limit behaviour of m-dependent
triangular arrays: model catalogue, condition functionals, an exact
martingale oracle, and Monte Carlo convergence checks."""

import os

# before numpy loads: the program makes no threaded BLAS call, and an idle
# OpenBLAS thread costs about 0.1 s of CPU per process; a caller's value wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .conditions import (
    ConditionReport,
    ConditionValue,
    DegenerateVarianceError,
    InsufficientGridError,
    asymptotic_verdict,
    berk_check,
    component_reports,
    condition_report,
    holds,
    lindeberg_classic,
    lindeberg_mdep,
    lyapunov_ratio,
    orey_ratio,
    rio_functional,
    romano_wolf_check,
)
from .martingale import (
    CheckResult,
    HHReport,
    HypothesisViolationError,
    MartingaleTrace,
    UnsupportedFamilyError,
    build_trace,
    check_bounds,
    check_hh_hypotheses,
    check_structure,
    check_tower,
    check_truncation,
    trace_summary,
)
from .models import (
    ENUMERATION_CAP,
    SAMPLE_CAP,
    ArrayModel,
    ContinuousModelError,
    EnumerationTooLargeError,
    InvalidParameterError,
    OutcomeTable,
    SampleTooLargeError,
    Schedule,
    TruncationSplit,
    build_model,
    enumerate_outcomes,
    exact_sigma2,
    marginal_law_groups,
    model_from_config,
    model_to_config,
    row_rng,
    truncated_model,
    window_variance_max,
)
from .montecarlo import (
    ConvergenceReport,
    EmpiricalDistribution,
    convergence_sweep,
    kolmogorov_band,
    ks_statistic,
    simulate_normalized_sums,
)

__version__ = "0.1.0"
