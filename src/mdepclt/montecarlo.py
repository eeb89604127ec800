"""Monte Carlo study of normalized row sums against the standard normal.

Every row is linear in independent innovations, so S_n/sigma_n is drawn
straight from the weight groups of S_n (models.sum_weight_groups) instead of
summing a sampled row: S_n = a * sum(w * zeta) over groups of c innovations
sharing the weight w, with a = amplitude * scale, and sigma_n =
a * sqrt(sum(c * w^2)), so a cancels.  A Rademacher group contributes
w * (2B - c) with B ~ Bin(c, 1/2), one binomial draw per group with w != 0;
a Gaussian S_n/sigma_n is one standard normal.  The cost of a replicate does
not grow with n.  models.sample_row stays the independent reference: the
tests check that its row sums and these draws agree in law.

S_n is normalized by the exact closed-form sigma_n (never the sample
standard deviation), so the empirical distribution targets exactly the
object whose limit is claimed.  Distance to N(0,1) is the Kolmogorov-Smirnov
sup-statistic, whose distribution-free null band gives usable thresholds
without any rate theory.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .models import (
    ArrayModel,
    _check_reps,
    _check_sample_size,
    _sigma,
    draw_replicates,
    model_to_config,
    sum_weight_groups,
)


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted Monte Carlo replicates of S_n/sigma_n."""

    n: int
    reps: int
    seed: int
    samples: np.ndarray

    def __post_init__(self):
        if len(self.samples) != self.reps:
            raise ValueError("sample count does not match reps")


@dataclass(frozen=True)
class ConvergenceReport:
    """KS distances over an n-grid; final_ks belongs to the largest n."""

    model: ArrayModel
    grid: tuple  # of dicts {n, ks_stat, reps, seed}
    monotone_trend: bool
    final_ks: float


def _sum_sampler(model: ArrayModel, n: int):
    """rng -> one draw of S_n/sigma_n from the nonzero weight groups of row n."""
    if not model.is_discrete:
        return lambda rng: rng.standard_normal()
    groups = [(c, w) for c, w in sum_weight_groups(model, n) if w != 0.0]
    sd = math.sqrt(sum(c * w * w for c, w in groups))
    return lambda rng: sum(w * (2 * rng.binomial(c, 0.5) - c) for c, w in groups) / sd


def simulate_normalized_sums(
    model: ArrayModel, n: int, reps: int, seed: int = 0
) -> EmpiricalDistribution:
    """Draw reps independent values of S_n/sigma_n, sorted ascending.

    S_n/sigma_n is drawn from the weight groups of S_n (see the module
    docstring), not summed from a sampled row and divided.  Each replicate
    has its own counter-based stream, that of row_rng(seed, n, replicate),
    so the result is bit-identical however the replicate range is
    partitioned across workers.
    """
    _check_reps(reps)
    _check_sample_size(model, n)
    _sigma(model, n)  # raises unless 0 < sigma_n^2 < inf
    out = draw_replicates(seed, n, reps, _sum_sampler(model, n))
    out.sort()
    return EmpiricalDistribution(n, reps, seed, out)


def ks_statistic(emp) -> float:
    """sup_x |F_hat(x) - Phi(x)| by the order-statistic formula."""
    samples = emp.samples if isinstance(emp, EmpiricalDistribution) else np.sort(np.asarray(emp))
    r = len(samples)
    if r == 0:
        raise ValueError("empty sample")
    if not np.isfinite(samples).all():
        raise ValueError("sample has a non-finite value")
    # Phi(x) = erfc(-x/sqrt(2))/2, as laws.normal_tail_second_moment takes it
    cdf = 0.5 * np.fromiter(map(math.erfc, -samples / math.sqrt(2.0)), float, r)
    i = np.arange(1, r + 1)
    upper = np.max(i / r - cdf)
    lower = np.max(cdf - (i - 1) / r)
    return float(max(upper, lower))


def kolmogorov_band(reps: int, confidence: float = 0.99) -> float:
    """Threshold b with P(KS <= b) = confidence under the exact-normal null."""
    if isinstance(reps, bool) or not isinstance(reps, numbers.Integral) or reps < 1:
        raise ValueError(f"reps must be an integer >= 1, got {reps!r}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")
    from scipy.special import kolmogi  # scipy stays off the CLI's import path

    return float(kolmogi(1.0 - confidence)) / math.sqrt(reps)


def convergence_sweep(
    model: ArrayModel, n_grid, reps: int = 10_000, seed: int = 0
) -> ConvergenceReport:
    """KS distance per grid point, largest n last."""
    n_grid = list(n_grid)
    if not n_grid or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be nonempty and strictly increasing")
    for n in n_grid:
        _check_sample_size(model, n)
    rows = []
    for n in n_grid:
        emp = simulate_normalized_sums(model, n, reps, seed)
        rows.append({"n": n, "ks_stat": ks_statistic(emp), "reps": reps, "seed": seed})
    monotone = rows[-1]["ks_stat"] <= rows[0]["ks_stat"]
    return ConvergenceReport(model, tuple(rows), monotone, rows[-1]["ks_stat"])


# ---------------------------------------------------------------------------
# serialization


def report_to_dict(report: ConvergenceReport) -> dict:
    return {
        "model": model_to_config(report.model),
        "grid": list(report.grid),
        "monotone_trend": report.monotone_trend,
        "final_ks": report.final_ks,
    }
