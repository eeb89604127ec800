"""Numerical laboratory for central limit behaviour of m-dependent
triangular arrays: model catalogue, condition functionals, an exact
martingale oracle, and Monte Carlo convergence checks.

Importing the package executes none of its modules.  Each submodule is
registered in sys.modules unexecuted and runs when one of its attributes
is first read, and each exported name loads its module when it is first
read, so a process compiles and runs only the engines it uses (the CLI
imports each engine inside the command that runs it)."""

import importlib.util
import os
import sys

# before numpy loads: the program makes no threaded BLAS call, and an idle
# OpenBLAS thread costs about 0.1 s of CPU per process; a caller's value wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

#: exported name -> the submodule that defines it (not one that re-exports it)
_EXPORTS = {
    name: module
    for module, names in {
        "conditions": """
            ConditionReport ConditionValue InsufficientGridError asymptotic_verdict
            berk_check component_reports condition_report holds lindeberg_classic
            lindeberg_mdep lyapunov_ratio orey_ratio rio_functional romano_wolf_check
        """,
        "laws": "ENUMERATION_CAP EnumerationTooLargeError",
        "martingale": """
            CheckResult HHReport HypothesisViolationError MartingaleTrace
            UnsupportedFamilyError build_trace check_hh_hypotheses check_trace
            check_truncation trace_summary truncation_threshold
        """,
        "models": """
            SAMPLE_CAP ArrayModel ContinuousModelError DegenerateVarianceError
            InvalidParameterError OutcomeTable SampleTooLargeError Schedule
            build_model enumerate_outcomes exact_sigma2 marginal_law_groups
            model_from_config model_to_config row_rng window_variance_max
        """,
        "montecarlo": """
            ConvergenceReport EmpiricalDistribution convergence_sweep kolmogorov_band
            ks_statistic simulate_normalized_sums
        """,
    }.items()
    for name in names.split()
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def _unexecuted(name: str):
    """The submodule `name`, in sys.modules under its full name, so that
    code which looks a layer up there (perfbench's tracer) finds it, but
    executed only when an attribute of it is first read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# not cli: `python -m mdepclt.cli` would warn that it sits in sys.modules
# before it runs as __main__
laws, models, conditions, martingale, montecarlo = map(
    _unexecuted, ("laws", "models", "conditions", "martingale", "montecarlo")
)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_EXPORTS[name]], name)


def __dir__():
    return sorted([*globals(), *_EXPORTS])
