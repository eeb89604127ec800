"""Sufficient-condition functionals and finite-grid asymptotic verdicts.

Each functional maps (model, n) to a nonnegative scalar whose convergence
to zero (or boundedness) is the hypothesis of one of the limit theorems
under study.  Values are exact, from the per-variable laws.  Verdicts
over an n-grid are rendered by an ordinary least-squares fit of
log(value) against log(n).

Identifier tokens carried in the ``eq`` field, and the verdicts under
which each functional's hypothesis holds (HOLDING_VERDICTS; ``holds``):

====================  ===============  ===================================
condition             eq               holds when the verdict is
====================  ===============  ===================================
lindeberg-classic     tmL              tends-to-zero
lindeberg-mdep        tmnL             tends-to-zero
lyapunov(r)           lyap             tends-to-zero
orey                  cond+            bounded or tends-to-zero
rio                   rio              tends-to-zero
berk moment           berki            bounded or tends-to-zero
berk variance-ratio   berkiii          bounded
berk m-growth         berkiv           tends-to-zero
romano-wolf           RW1, RW5, RWvar  bounded or tends-to-zero
romano-wolf RW3       RW3              bounded or tends-to-zero, and <= 1
romano-wolf RW6       RW6              tends-to-zero
====================  ===============  ===================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (  # DegenerateVarianceError is re-exported
    ArrayModel,
    DegenerateVarianceError,
    _sigma,
    exact_sigma2,
    marginal_law_groups,
    window_variance_max,
)

VERDICTS = ("tends-to-zero", "bounded", "diverges", "inconclusive")
#: smallest verdict margin on the fitted log-log slope
SLOPE_ATOL = 0.02
#: largest 2 * slope std err that still reads "bounded" rather than "inconclusive"
STABLE_SE = 0.05

#: eq token -> the verdicts under which that functional's hypothesis holds
HOLDING_VERDICTS = {
    **dict.fromkeys(("tmL", "tmnL", "lyap", "rio", "berkiv", "RW6"), ("tends-to-zero",)),
    **dict.fromkeys(("cond+", "berki", "RW1", "RW3", "RW5", "RWvar"), ("bounded", "tends-to-zero")),
    "berkiii": ("bounded",),  # sigma_n^2/N_n must converge to a positive constant
}


class InsufficientGridError(ValueError):
    """Verdicts need at least four strictly increasing grid points."""


@dataclass(frozen=True)
class ConditionValue:
    """One evaluation of a condition functional at one n."""

    condition_id: str
    n: int
    value: float
    method: str = "closed-form"  # always; kept for payload stability
    eq: str = ""

    def __post_init__(self):
        if not 0.0 <= self.value < math.inf:
            raise ValueError(
                f"{self.condition_id} at n={self.n} must be a finite float >= 0, got {self.value!r}"
            )


@dataclass(frozen=True)
class ConditionReport:
    """A condition series over an n-grid with slope fit and verdict."""

    condition_id: str
    grid: tuple  # of ConditionValue, in increasing n
    loglog_slope: float
    slope_std_err: float
    verdict: str
    eq: str = ""

    def values(self) -> np.ndarray:
        return np.array([cv.value for cv in self.grid])


# ---------------------------------------------------------------------------
# condition functionals


def _lindeberg(model: ArrayModel, n: int, eps: float, m: int) -> float:
    """(m/sigma_n^2) sum_i E[X_i^2 1{|X_i| > eps*sigma_n/m}]: the classic
    sum at m = 1, where eps*sigma_n/1 and 1*total are exact."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    sigma = _sigma(model, n)
    t = eps * sigma / m
    total = sum(
        count * law.tail_second_moment(t) for count, law in marginal_law_groups(model, n)
    )
    return m * total / sigma**2


def lindeberg_classic(model: ArrayModel, n: int, eps: float) -> ConditionValue:
    """(1/sigma_n^2) sum_i E[X_i^2 1{|X_i| > eps*sigma_n}]."""
    return ConditionValue(f"lindeberg-classic(eps={eps:g})", n, _lindeberg(model, n, eps, 1), eq="tmL")


def lindeberg_mdep(model: ArrayModel, n: int, eps: float) -> ConditionValue:
    """(m_n/sigma_n^2) sum_i E[X_i^2 1{|X_i| > eps*sigma_n/m_n}]; m_n floored
    at 1, since an independent row (m_n = 0) is also 1-dependent."""
    value = _lindeberg(model, n, eps, max(model.m(n), 1))
    return ConditionValue(f"lindeberg-mdep(eps={eps:g})", n, value, eq="tmnL")


def lyapunov_ratio(model: ArrayModel, n: int, r: float) -> ConditionValue:
    """(m_n^(r-1)/sigma_n^r) sum_i E|X_i|^r for fixed r > 2; m_n floored at 1."""
    if not r > 2:
        raise ValueError(f"r must exceed 2, got {r}")
    sigma = _sigma(model, n)
    m = max(model.m(n), 1)
    total = sum(count * law.abs_moment(r) for count, law in marginal_law_groups(model, n))
    return ConditionValue(f"lyapunov(r={r:g})", n, m ** (r - 1) * total / sigma**r, eq="lyap")


def orey_ratio(model: ArrayModel, n: int) -> ConditionValue:
    """sum_i Var X_i / sigma_n^2 (the classical extra condition)."""
    sigma2 = _sigma(model, n) ** 2
    total = sum(count * law.var() for count, law in marginal_law_groups(model, n))
    return ConditionValue("orey", n, total / sigma2, eq="cond+")


def rio_functional(model: ArrayModel, n: int) -> ConditionValue:
    """(m_n/sigma_n^2) sum_i E[X_i^2 min(m_n|X_i|/sigma_n, 1)]; m_n floored at 1."""
    sigma = _sigma(model, n)
    m = max(model.m(n), 1)
    total = sum(
        count * law.capped_second_moment(m / sigma)
        for count, law in marginal_law_groups(model, n)
    )
    return ConditionValue("rio", n, m * total / sigma**2, eq="rio")


def _block_terms(model: ArrayModel, n: int, delta: float) -> tuple:
    """(sigma_n^2, N_n, max(m_n, 1), sup_i E|X_i|^(2+delta)), the terms
    both block criteria read."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    sigma2, N, m = _sigma(model, n) ** 2, model.length(n), max(model.m(n), 1)
    return sigma2, N, m, max(law.abs_moment(2 + delta) for _, law in marginal_law_groups(model, n))


def berk_check(model: ArrayModel, n: int, delta: float) -> list[ConditionValue]:
    """The three quantities entering the bounded-moment block criterion.

    Returned in order: sup_i E|X_i|^(2+delta) (must stay bounded),
    sigma_n^2/N_n (must converge to a positive constant), and
    m_n^(2+2/delta)/N_n (must vanish).
    """
    sigma2, N, m, sup_mom = _block_terms(model, n, delta)
    tag = f"berk(delta={delta:g})"
    return [
        ConditionValue(f"{tag}:moment", n, sup_mom, eq="berki"),
        ConditionValue(f"{tag}:variance-ratio", n, sigma2 / N, eq="berkiii"),
        ConditionValue(f"{tag}:m-growth", n, m ** (2 + 2 / delta) / N, eq="berkiv"),
    ]


def romano_wolf_check(model: ArrayModel, n: int, delta: float) -> list[ConditionValue]:
    """Evaluate the growing-m block-criterion inequalities at one n, with
    the criterion's exponent gamma = 0 (the id keeps "gamma=0").

    Components (HOLDING_VERDICTS says when each holds):

    RW1    sup_i E|X_i|^(2+delta) / Delta_n
    RW3    L_n * N_n / sigma_n^2                       (<= 1 required)
    RW5    Delta_n / L_n^((2+delta)/2)
    RW6    m_n^(1+(1+2/delta)) / N_n                   (-> 0 required)
    RWvar  max_a Var(window of length m_n) * N_n / (m_n * sigma_n^2)

    RWvar combines the criterion's window-variance growth bound with RW3;
    it is the component that rules out rows in which one shared variable
    occupies a whole window, no matter how Delta_n and L_n are chosen.
    Delta_n is the exact supremum of E|X_i|^(2+delta) over the row and L_n
    is sigma_n^2/N_n, the largest admissible choice.  m_n is floored at 1.
    """
    sigma2, N, m, sup_mom = _block_terms(model, n, delta)
    ln = exact_sigma2(model, n) / N
    wvar = window_variance_max(model, n)
    tag = f"romano-wolf(delta={delta:g},gamma=0)"
    return [
        ConditionValue(f"{tag}:RW1", n, sup_mom / sup_mom, eq="RW1"),
        ConditionValue(f"{tag}:RW3", n, ln * N / sigma2, eq="RW3"),
        ConditionValue(f"{tag}:RW5", n, sup_mom / ln ** ((2 + delta) / 2), eq="RW5"),
        ConditionValue(f"{tag}:RW6", n, m ** (1 + (1 + 2 / delta)) / N, eq="RW6"),
        ConditionValue(f"{tag}:window-variance", n, wvar * N / (m * sigma2), eq="RWvar"),
    ]


# ---------------------------------------------------------------------------
# grid evaluation and verdicts


def _ols_loglog(x: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    y = np.log(values)
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ yc) / sxx
    resid = yc - slope * xc
    dof = len(x) - 2
    se = math.sqrt(float(resid @ resid) / dof / sxx) if dof > 0 else 0.0
    return slope, se


def asymptotic_verdict(series) -> ConditionReport:
    """Fit log(value) against log(n) and classify the trend.

    The verdict margin is max(2 * slope std err, SLOPE_ATOL): a slope below
    minus the margin reads "tends-to-zero", above it "diverges", otherwise
    "bounded" when the fit is stable (2 se <= STABLE_SE) and
    "inconclusive" when it is not.  Any exact zero in the series
    short-circuits to "tends-to-zero".
    """
    series = tuple(series)
    if len(series) < 4:
        raise InsufficientGridError(f"need >= 4 grid points, got {len(series)}")
    ns = np.array([cv.n for cv in series])
    if not np.all(np.diff(ns) > 0):
        raise InsufficientGridError("grid must be strictly increasing in n")
    log_ns = np.log(ns.astype(float))
    if not np.ptp(log_ns) > 0:
        raise InsufficientGridError("grid points share one float value of log n")
    values = np.array([cv.value for cv in series])
    if np.any(values < 0):
        raise ValueError("condition values must be >= 0")
    cid = series[0].condition_id
    eq = series[0].eq
    if np.any(values == 0.0):
        return ConditionReport(cid, series, float("nan"), float("nan"), "tends-to-zero", eq)
    slope, se = _ols_loglog(log_ns, values)
    margin = max(2.0 * se, SLOPE_ATOL)
    if slope < -margin:
        verdict = "tends-to-zero"
    elif slope > margin:
        verdict = "diverges"
    elif 2.0 * se <= STABLE_SE:
        verdict = "bounded"
    else:
        verdict = "inconclusive"
    return ConditionReport(cid, series, slope, se, verdict, eq)


def condition_series(func, model: ArrayModel, n_grid, **kwargs) -> list:
    """Evaluate a condition functional over an n-grid.  A float overflow,
    or a divisor that underflowed to zero, is a ValueError naming the call;
    numpy's overflow warnings are silenced, as an infinite moment ends in
    that error or in ConditionValue's finite check."""
    series = []
    with np.errstate(over="ignore"):
        for n in n_grid:
            try:
                series.append(func(model, n, **kwargs))
            except (OverflowError, ZeroDivisionError) as exc:
                call = f"{func.__name__}({', '.join(f'{k}={v}' for k, v in kwargs.items())})"
                raise ValueError(f"{call} at {_name_n(n)} leaves the float range: {exc.args[-1]}") from None
    return series


def _name_n(n: int) -> str:
    """n named as 2^k when a power of two, else by its bit length (such n
    can run to hundreds of digits)."""
    n = int(n)
    if n > 0 and n & (n - 1) == 0:
        return f"n=2^{n.bit_length() - 1}"
    return f"n of {n.bit_length()} bits"


def condition_report(func, model: ArrayModel, n_grid, **kwargs) -> ConditionReport:
    """Series plus verdict in one call."""
    return asymptotic_verdict(condition_series(func, model, n_grid, **kwargs))


def component_reports(func, model: ArrayModel, n_grid, **kwargs) -> dict[str, ConditionReport]:
    """Verdicts for vector-valued checks keyed by component id."""
    per_n = condition_series(func, model, n_grid, **kwargs)
    out: dict[str, ConditionReport] = {}
    for idx in range(len(per_n[0])):
        series = [row[idx] for row in per_n]
        out[series[0].condition_id] = asymptotic_verdict(series)
    return out


def holds(report: ConditionReport) -> bool:
    """Whether the report's verdict is one under which its functional's
    hypothesis holds (HOLDING_VERDICTS); RW3 must also stay <= 1."""
    within_rw3_bound = report.eq != "RW3" or bool(np.all(report.values() <= 1.0 + 1e-9))
    return report.verdict in HOLDING_VERDICTS[report.eq] and within_rw3_bound


# ---------------------------------------------------------------------------
# serialization


def _value_to_dict(cv: ConditionValue) -> dict:
    # field by field: dataclasses.asdict deep-copies every record
    return {
        "condition_id": cv.condition_id,
        "n": cv.n,
        "value": cv.value,
        "method": cv.method,
        "eq": cv.eq,
    }


def report_to_dict(report: ConditionReport) -> dict:
    return {
        "condition_id": report.condition_id,
        "eq": report.eq,
        "grid": [_value_to_dict(cv) for cv in report.grid],
        "loglog_slope": report.loglog_slope,
        "slope_std_err": report.slope_std_err,
        "verdict": report.verdict,
    }
