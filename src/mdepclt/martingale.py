"""Exact reconstruction of the conditional-expectation martingale.

For a finitely enumerable model row, the filtration generated by
(X_1, ..., X_k) is literally the partition of the outcome table by the
value of that prefix.  Conditional expectations are probability-weighted
cell averages, so every identity of the martingale construction -- the
measurability and independence simplifications, the windowed difference
form, the partial-sum form, the quadratic-variation identity, and the
variance and increment bounds -- can be asserted outcome by outcome.

Large rows (where enumeration is impossible) are handled by a Monte Carlo
path that evaluates the same martingale through closed-form conditional
expectations: one rule for every row whose segments hold one tap each,
and a decoding of the two-scale row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import (
    ArrayModel,
    ContinuousModelError,
    EnumerationTooLargeError,
    OutcomeTable,
    _check_n,
    _check_reps,
    _check_sample_size,
    _enumeration_bits,
    _sigma,
    draw_innovations,
    enumerate_outcomes,
    linear_row,
    row_rng,
    truncated_model,
)

#: cap on outcomes * N * (N+1) entries of the stored tensor (~128 MiB)
TRACE_CELL_CAP = 2**24
#: HH1 needs the 95% quantile of max|dM|/sigma_n to fall by more than this
#: relative margin from the smallest to the largest n, so that last-bit
#: rounding of a constant quantile does not read as a decrease
HH1_Q95_MARGIN = 1e-9
#: HH2 holds when the mean of Q_n/sigma_n^2 at the largest n is this close to 1
HH2_Q_TOL = 0.05


class HypothesisViolationError(ValueError):
    """The bound checks do not apply: the row is not bounded by eps/m_n, or
    eps^2 sigma_n^2 is not a positive float."""


class UnsupportedFamilyError(ValueError):
    """No closed-form conditional expectations for this model."""


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named identity or bound check."""

    name: str
    passed: bool
    max_abs_err: float
    detail: dict | None = None

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return f"{self.name}: {status} (max err {self.max_abs_err:.3e})"


@dataclass
class MartingaleTrace:
    """Per-outcome martingale objects for one enumerable model row.

    Index conventions: W[o, i-1, k] = E(X_i | prefix of length k) on
    outcome o, for i = 1..N and k = 0..N; M[o, k] and dM[o, k-1] follow
    the same k convention; entries with i <= 0 or i > N are identically 0
    and are not stored.
    """

    model: ArrayModel
    n: int
    m: int
    table: OutcomeTable
    W: np.ndarray  # (outcomes, N, N+1)
    M: np.ndarray  # (outcomes, N+1)
    dM: np.ndarray  # (outcomes, N)
    Q: np.ndarray  # (outcomes,)
    q: np.ndarray  # (N,)
    prefix_ids: list  # per k = 0..N: partition cell index of each outcome

    @property
    def sigma2(self) -> float:
        """E S_n^2 computed from the table itself."""
        s = self.table.row_sums()
        return float(self.table.probs @ s**2)


def _require_trace_size(model: ArrayModel, n: int) -> None:
    """Raise unless build_trace fits both the outcome cap and the trace
    tensor cap; decided from the declaration, before any enumeration."""
    _check_n(n)
    count = 2 ** _enumeration_bits(model, n)
    N = model.length(n)
    if count * N * (N + 1) > TRACE_CELL_CAP:
        raise EnumerationTooLargeError(
            f"trace tensor would hold {count * N * (N + 1)} cells (cap {TRACE_CELL_CAP})"
        )


def trace_feasible(model: ArrayModel, n: int) -> bool:
    """Whether build_trace can run: finite support within both the outcome
    cap and the trace tensor cap."""
    try:
        _require_trace_size(model, n)
    except (ContinuousModelError, EnumerationTooLargeError):
        return False
    return True


def build_trace(model: ArrayModel, n: int) -> MartingaleTrace:
    """Enumerate the row and compute W, M, dM, Q, q exactly.

    The prefix partitions are refined one column at a time: the cell of an
    outcome at k is the pair (cell at k-1, X_k), numbered by np.unique of
    cell * (distinct values of X_k) + rank of X_k.  Cells at k-1 are
    numbered in lexicographic prefix order and ranks in value order, so the
    numbering is the one np.unique(rows[:, :k], axis=0) gives, without
    sorting whole prefixes.  Cell means come from per-column weighted
    bincounts, which add in outcome order as np.add.at does.
    """
    _require_trace_size(model, n)
    table = enumerate_outcomes(model, n)
    rows, probs = table.rows, table.probs
    n_out, N = rows.shape
    W = np.empty((n_out, N, N + 1))
    inv = np.zeros(n_out, dtype=np.intp)
    prefix_ids = []
    for k in range(N + 1):
        if k > 0:
            values, rank = np.unique(rows[:, k - 1], return_inverse=True)
            _, inv = np.unique(inv * len(values) + rank, return_inverse=True)
        cellp = np.bincount(inv, weights=probs)
        means = np.empty((len(cellp), N))
        for j in range(N):
            means[:, j] = np.bincount(inv, weights=probs * rows[:, j]) / cellp
        W[:, :, k] = means[inv]
        prefix_ids.append(inv)
    M = W.sum(axis=1)
    dM = np.diff(M, axis=1)
    Q = np.einsum("ok,ok->o", dM, dM)
    q = probs @ dM**2
    return MartingaleTrace(model, n, model.m(n), table, W, M, dM, Q, q, prefix_ids)


def _first_violation(err: np.ndarray, names=("outcome", "i", "k")) -> dict:
    flat = int(np.argmax(err))
    idx = np.unravel_index(flat, err.shape)
    detail = dict(zip(names[: err.ndim], (int(v) for v in idx)))
    detail["err"] = float(err[idx])
    return detail


def _result(name: str, err: np.ndarray, tol: float, names=("outcome", "i", "k")) -> CheckResult:
    worst = float(err.max()) if err.size else 0.0
    if worst <= tol:
        return CheckResult(name, True, worst)
    detail = _first_violation(err, names)
    detail["identity"] = name
    return CheckResult(name, False, worst, detail)


def _sliced_result(name: str, err_at, N: int, tol: float) -> CheckResult:
    """_result of err[o, i, k] = err_at(k)[o, i] for k = 0..N, built one
    k slice at a time.  On a failure the slices that hold the worst value
    are rebuilt to name its first (outcome, i, k) in C order, the index
    np.argmax of the whole tensor gives."""
    maxima = np.array([err_at(k).max() for k in range(N + 1)])
    worst = float(maxima.max())
    if worst <= tol:
        return CheckResult(name, True, worst)
    hits = []
    for k in np.flatnonzero((maxima == worst) | np.isnan(maxima)):
        err = err_at(k)
        o, i = np.unravel_index(int(np.argmax(err)), err.shape)
        hits.append((int(o), int(i), int(k), float(err[o, i])))
    o, i, k, e = min(hits)
    return CheckResult(name, False, worst, {"outcome": o, "i": i, "k": k, "err": e, "identity": name})


def check_structure(trace: MartingaleTrace, tol: float = 1e-10) -> list[CheckResult]:
    """Assert the four structural identities of the martingale, per outcome.

    measurable-past     W[i, k] = X_i for i <= k
    independent-future  W[i, k] = 0 for i > k + m
    window-difference   dM_k = sum_{i=k}^{k+m} (W[i, k] - W[i, k-1])
    partial-sum-form    M_k = sum_{i<=k} X_i + sum_{i=k+1}^{k+m} W[i, k]
    endpoint            M_0 = 0 and M_N = S_n

    The first two are checked one W[:, :, k] slice at a time, so no
    temporary as large as W is built.
    """
    rows = trace.table.rows
    n_out, N = rows.shape
    m = trace.m
    W, M, dM = trace.W, trace.M, trace.dM
    results = []

    ii = np.arange(N)  # W index i holds X_{i+1}
    results.append(
        _sliced_result("measurable-past", lambda k: np.abs(W[:, :, k] - rows) * (ii < k), N, tol)
    )
    results.append(
        _sliced_result("independent-future", lambda k: np.abs(W[:, :, k]) * (ii >= k + m), N, tol)
    )

    recon = np.zeros((n_out, N))
    for k in range(1, N + 1):
        lo = max(k, 1) - 1
        hi = min(k + m, N)
        recon[:, k - 1] = (W[:, lo:hi, k] - W[:, lo:hi, k - 1]).sum(axis=1)
    err = np.abs(dM - recon)
    results.append(_result("window-difference", err, tol, names=("outcome", "k")))

    recon_m = np.zeros((n_out, N + 1))
    csum = np.cumsum(rows, axis=1)
    for k in range(N + 1):
        head = csum[:, k - 1] if k >= 1 else 0.0
        hi = min(k + m, N)
        tail = W[:, k:hi, k].sum(axis=1) if hi > k else 0.0
        recon_m[:, k] = head + tail
    err = np.abs(M - recon_m)
    results.append(_result("partial-sum-form", err, tol, names=("outcome", "k")))

    s = trace.table.row_sums()
    err = np.maximum(np.abs(M[:, 0]), np.abs(M[:, N] - s))
    results.append(_result("endpoint", err, tol, names=("outcome",)))
    return results


def check_bounds(trace: MartingaleTrace, eps: float, tol: float = 1e-12) -> list[CheckResult]:
    """Assert the increment and quadratic-variation bounds.

    Requires the row to satisfy |X_i| <= eps/max(m,1) on every outcome
    (raises HypothesisViolationError otherwise).  Checks, per outcome,
    |W| <= eps/m, |dM_k| <= 4 eps, |T_{i+m} - M_i| <= 2 eps, and globally
    E Q = E S^2 and Var Q <= 48 eps^2 E S^2.  The realized slack ratios
    Var Q/(eps^2 sigma^2) and max|dM|/eps are reported in the details.
    """
    rows = trace.table.rows
    probs = trace.table.probs
    n_out, N = rows.shape
    m_eff = max(trace.m, 1)
    bound = eps / m_eff
    max_x = float(np.abs(rows).max())
    if max_x > bound * (1 + 1e-12):
        raise HypothesisViolationError(
            f"row not bounded by eps/m = {bound:.6g} (max |X| = {max_x:.6g})"
        )
    s2 = trace.sigma2
    if not eps**2 * s2 > 0:
        raise HypothesisViolationError(f"eps^2 sigma_n^2 = {eps**2 * s2:.6g} is not a positive float")
    results = []

    W = trace.W
    results.append(
        _sliced_result("conditional-bound", lambda k: np.maximum(np.abs(W[:, :, k]) - bound, 0.0), N, tol)
    )

    dm_max = float(np.abs(trace.dM).max())
    err = np.maximum(np.abs(trace.dM) - 4.0 * eps, 0.0)
    res = _result("increment-bound", err, tol, names=("outcome", "k"))
    results.append(
        CheckResult(res.name, res.passed, res.max_abs_err, {"max_dm_over_eps": dm_max / eps})
        if res.passed
        else res
    )

    T = np.cumsum(rows, axis=1)
    idx = np.minimum(np.arange(1, N + 1) + trace.m, N) - 1
    gap = np.abs(T[:, idx] - trace.M[:, 1 : N + 1])
    err = np.maximum(gap - 2.0 * eps, 0.0)
    results.append(_result("prefix-gap", err, tol, names=("outcome", "i")))

    eq = float(probs @ trace.Q)
    results.append(_result("mean-quadratic-variation", np.array([abs(eq - s2)]), 1e-10, ("",)))

    var_q = float(probs @ (trace.Q - eq) ** 2)
    cap = 48.0 * eps**2 * s2
    res = _result("variance-bound", np.array([max(var_q - cap, 0.0)]), tol, ("",))
    slack = {"var_q_over_eps2_sigma2": var_q / (eps**2 * s2), "max_dm_over_eps": dm_max / eps}
    results.append(CheckResult(res.name, res.passed, res.max_abs_err, slack))
    return results


def check_tower(trace: MartingaleTrace, tol: float = 1e-12) -> list[CheckResult]:
    """Full conditional-mean-zero test: E[dM_k 1{cell}] = 0 for every
    partition cell of the prefix of length k-1."""
    probs = trace.table.probs
    results = []
    worst = 0.0
    detail = None
    for k in range(1, trace.dM.shape[1] + 1):
        inv = trace.prefix_ids[k - 1]
        cell_sums = np.bincount(inv, weights=probs * trace.dM[:, k - 1])
        w = float(np.abs(cell_sums).max())
        if w > worst:
            worst = w
            detail = {"k": k, "cell": int(np.argmax(np.abs(cell_sums))), "err": w}
    passed = worst <= tol
    results.append(CheckResult("tower-mean-zero", passed, worst, None if passed else detail))
    return results


@dataclass(frozen=True)
class TruncationCheck:
    """Exact verification of the centred truncation split at one (n, eps)."""

    passed: bool
    results: list
    values: dict


def check_truncation(trace: MartingaleTrace, eps: float, tol: float = 1e-12) -> TruncationCheck:
    """Verify the truncation split on the full enumeration the trace holds.

    Checks that X' + X'' recovers X exactly, both parts are mean zero,
    both parts keep the banded covariance (m_n-dependence), and the tail
    sum obeys E[(S'')^2] <= (2 m_n + 1) * sum_i E[X_i^2 1{|X_i| > t}].
    """
    table = trace.table
    split = truncated_model(trace.model, trace.n, eps)
    x_lo, x_hi = split.split_rows(table.rows)
    probs = table.probs
    N = table.rows.shape[1]
    m = trace.m
    results = []

    err = np.abs((x_lo + x_hi) - table.rows)
    results.append(_result("split-additivity", err, 0.0, names=("outcome", "i")))

    mean_lo = probs @ x_lo
    mean_hi = probs @ x_hi
    err = np.maximum(np.abs(mean_lo), np.abs(mean_hi))
    results.append(_result("split-centred", err, tol, names=("i",)))

    idx = np.arange(N)
    beyond_band = np.abs(idx[:, None] - idx[None, :]) > m
    worst = 0.0
    for part in (x_lo, x_hi):
        centred = part - probs @ part
        cov = (centred * probs[:, None]).T @ centred
        worst = max(worst, float(np.abs(cov[beyond_band]).max(initial=0.0)))
    results.append(_result("split-banded", np.array([worst]), tol, ("",)))

    s_hi = x_hi.sum(axis=1)
    lhs = float(probs @ s_hi**2)
    tail_sum = float(sum(probs @ (table.rows[:, i] ** 2 * (np.abs(table.rows[:, i]) > split.threshold)) for i in range(N)))
    rhs = (2 * m + 1) * tail_sum
    results.append(_result("tail-variance-bound", np.array([max(lhs - rhs, 0.0)]), tol, ("",)))

    values = {
        "threshold": split.threshold,
        "mu_max_abs": float(np.abs(split.mu).max()),
        "tail_second_moment_sum": tail_sum,
        "s_tail_second_moment": lhs,
        "bound": rhs,
    }
    return TruncationCheck(all(r.passed for r in results), results, values)


# ---------------------------------------------------------------------------
# closed-form martingale increments for sampled rows


def _two_scale_increments(model: ArrayModel, n: int, innov: np.ndarray) -> np.ndarray:
    """The two-scale row decoded in closed form."""
    alpha = model.params["alpha"]
    xi = innov[:n]
    eta = innov[n:]
    d = eta[1:] - eta[:-1]
    x = n**-0.5 * xi + n**-alpha * d
    # eta_k is knowable from the prefix once any increment was nonzero;
    # before that the conditional expectation of eta_k vanishes
    seen = np.maximum.accumulate(d != 0.0)
    eta_hat = np.where(seen, eta[1:], 0.0)
    w_next = -(n**-alpha) * eta_hat  # E(X_{k+1} | prefix k), k = 1..n
    w_next[-1] = 0.0  # X_{n+1} := 0
    w_prev = np.concatenate([[0.0], w_next[:-1]])  # E(X_k | prefix k-1)
    return model.amplitude * (x + w_next - w_prev)


def _single_tap_increments(model: ArrayModel, n: int, innov: np.ndarray) -> np.ndarray:
    """In a row whose segments hold one tap each, every block of `repeat`
    entries is one innovation times c != 0, and different blocks draw
    different innovations.  So the first entry of a block reveals its whole
    contribution amplitude * scale * repeat * c * zeta_j to S_n, and dM
    is zero everywhere else."""
    _, scale, segments = linear_row(model, n)
    parts = []
    for count, ((j, c),), repeat in segments:
        # scale * repeat is (1/m) * m on block-repeat rows, which rounds to
        # 1.0 for small m: a block's increment then carries no extra rounding
        part = np.zeros(count)
        part[::repeat] = (model.amplitude * (scale * repeat)) * (c * innov[j : j + count // repeat])
        parts.append(part)
    return np.concatenate(parts)


def _increment_rule(model: ArrayModel, n: int):
    """The closed-form increments of row n: the two-scale decoding, or the
    rule for rows of single-tap segments.  Any other row raises
    UnsupportedFamilyError, decided from the declaration alone."""
    if model.family == "two-scale":
        return _two_scale_increments
    if any(len(taps) > 1 for _, taps, _ in linear_row(model, n)[2]):
        raise UnsupportedFamilyError(
            f"no closed-form conditional expectations for {model.describe()}"
        )
    return _single_tap_increments


def increments_from_innovations(model: ArrayModel, n: int, innov: np.ndarray) -> np.ndarray:
    """(dM_1, ..., dM_N) from raw innovations, in sample_row's layout, via
    closed-form conditional expectations (see _increment_rule)."""
    return _increment_rule(model, n)(model, n, innov)


@dataclass(frozen=True)
class HHReport:
    """Empirical behaviour of the martingale-CLT hypotheses over an n-grid.

    rows: per-n dicts with quantiles of max|dM|/sigma, the mean and spread
    of Q/sigma^2, and E[max dM^2]/sigma^2.
    """

    model: ArrayModel
    reps: int
    seed: int
    rows: list
    max_increment_vanishes: bool
    quadratic_variation_concentrates: bool
    max_square_bounded: bool

    @property
    def passed(self) -> bool:
        return (
            self.max_increment_vanishes
            and self.quadratic_variation_concentrates
            and self.max_square_bounded
        )


def check_hh_hypotheses(model: ArrayModel, n_grid, reps: int = 2000, seed: int = 0) -> HHReport:
    """Monte Carlo check of the three martingale-CLT hypotheses.

    For each n: max_k |dM_k|/sigma_n should trend to zero (HH1, a fall of
    its 95% quantile by more than HH1_Q95_MARGIN, or a value below 0.05),
    Q_n/sigma_n^2 should concentrate at 1 (HH2, within HH2_Q_TOL at the
    largest n), and E[max_k dM_k^2]/sigma_n^2 should stay bounded (HH3).
    """
    n_grid = sorted(n_grid)
    if not n_grid:
        raise ValueError("n_grid must be nonempty")
    _check_reps(reps)
    for n in n_grid:
        _check_sample_size(model, n)
        _increment_rule(model, n)
    sigmas = [_sigma(model, n) for n in n_grid]
    rows = []
    for n, sigma in zip(n_grid, sigmas):
        max_abs = np.empty(reps)
        q_norm = np.empty(reps)
        for r in range(reps):
            innov = draw_innovations(model, n, row_rng(seed, n, r))
            dm = increments_from_innovations(model, n, innov) / sigma
            max_abs[r] = np.abs(dm).max()
            q_norm[r] = dm @ dm
        rows.append(
            {
                "n": n,
                "max_dm_mean": float(max_abs.mean()),
                "max_dm_q95": float(np.quantile(max_abs, 0.95)),
                "q_mean": float(q_norm.mean()),
                "q_sd": float(q_norm.std(ddof=1)),
                "max_dm2_mean": float((max_abs**2).mean()),
            }
        )
    q95_first, q95_last = rows[0]["max_dm_q95"], rows[-1]["max_dm_q95"]
    hh1 = q95_last < q95_first * (1.0 - HH1_Q95_MARGIN) or q95_last < 0.05
    hh2 = abs(rows[-1]["q_mean"] - 1.0) <= HH2_Q_TOL
    first, last = rows[0]["max_dm2_mean"], rows[-1]["max_dm2_mean"]
    hh3 = last <= max(first, 1.0)
    return HHReport(model, reps, seed, rows, hh1, hh2, hh3)


# ---------------------------------------------------------------------------
# export


def trace_summary(trace: MartingaleTrace) -> dict:
    """Compact JSON-ready summary of a trace and its checks, the bound
    checks included at the smallest eps they apply to, max(m, 1) * max|X|."""
    eps = max(trace.m, 1) * float(np.abs(trace.table.rows).max())
    structure = check_structure(trace)
    tower = check_tower(trace)
    bounds = check_bounds(trace, eps)
    probs = trace.table.probs
    eq = float(probs @ trace.Q)
    var_q = float(probs @ (trace.Q - eq) ** 2)
    out = {
        "n": trace.n,
        "m": trace.m,
        "outcomes": int(trace.table.rows.shape[0]),
        "sigma2": trace.sigma2,
        "sum_q": float(trace.q.sum()),
        "var_q": var_q,
        "max_abs_dm": float(np.abs(trace.dM).max()),
        "structure_passed": all(r.passed for r in structure),
        "tower_passed": all(r.passed for r in tower),
        "checks": {r.name: r.passed for r in structure + tower + bounds},
        "eps": eps,
        "bounds_passed": all(r.passed for r in bounds),
    }
    out.update(bounds[-1].detail)
    return out
