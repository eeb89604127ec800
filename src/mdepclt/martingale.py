"""Exact reconstruction of the conditional-expectation martingale.

For a finitely enumerable model row, the filtration generated by
(X_1, ..., X_k) is literally the partition of the outcome table by the
value of that prefix.  Conditional expectations are probability-weighted
cell averages, so every identity of the martingale construction -- the
measurability and independence simplifications, the windowed difference
form, the partial-sum form, the quadratic-variation identity, and the
variance and increment bounds -- can be asserted outcome by outcome.

At large n, where enumeration is impossible, the martingale-CLT hypotheses
are read from the exact law of (max_k |dM_k|/sigma_n, Q_n/sigma_n^2),
which the closed-form conditional expectations give in O(1) per n: one
atom, or the CDF of a maximum of Gaussians, for every row whose segments
hold one tap each, and at most 7 atoms for the two-scale row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate, chain, repeat

import numpy as np

from .laws import sign_combination_law
from .models import (
    _C_BLOCK,
    ArrayModel,
    EnumerationTooLargeError,
    InvalidParameterError,
    OutcomeTable,
    _check_n,
    _enumeration_bits,
    _row_sums,
    _sigma,
    enumerate_outcomes,
    exact_sigma2,
    linear_row,
    sum_weight_groups,
)

#: a point whose whole W, outcomes * N * (N+1) entries, fits within this
#: is feasible whatever the two caps below say.  No path stores W: what
#: this cap does is admit the one-block rows, of two outcomes, with
#: 2048 <= N <= 2895, which TRACE_CELL_CAP alone would refuse
TRACE_TENSOR_CAP = 2**24
#: cap on the cells of the largest array the oracle holds,
#: max(outcomes, N) * (N+1): the prefix partitions hold outcomes * (N+1)
#: ids, one to four bytes each (at most 16 MiB at the cap), M's cell
#: values at most as many floats and usually far fewer, the table one
#: float fewer per outcome, and the truncation check's covariances N * N
#: floats; the walk of the checks holds one block of W at a time, at most
#: max(outcomes, _C_BLOCK) entries;
#: no array of dM or of M per outcome is kept, nor a probability per outcome
TRACE_CELL_CAP = 2**22
#: cap on the entries of W, outcomes * N * (N+1), that each walk of the
#: checks computes one block at a time (several seconds at the cap)
TRACE_WORK_CAP = 2**30
#: keys per outcome up to which _refine numbers the prefix cells by a
#: running count over the whole key space, one int32 per key, so that its
#: array takes no more bytes than one float column of the table
_RELABEL_SPAN = 2
#: tolerances of the structure identities, of the bounds, and of the tower
#: and truncation checks
_STRUCTURE_TOL = 1e-10
_BOUND_TOL = 1e-12
_EXPECTATION_TOL = 1e-12


class HypothesisViolationError(ValueError):
    """The bound checks do not apply: the row is not bounded by eps/m_n, or
    eps^2 sigma_n^2 is not a positive finite float."""


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
    """Martingale objects for one enumerable model row.

    Index conventions: W[o, i-1, k] = E(X_i | prefix of length k) on
    outcome o, for i = 1..N and k = 0..N; M_k and dM_k = M_k - M_{k-1}
    follow the same k convention; entries with i <= 0 or i > N are
    identically 0 and are not stored.  The filtration is the prefix
    partitions: prefix_ids[k] is the cell of each outcome in the partition
    by (X_1, ..., X_k), in the narrowest unsigned dtype that holds its
    cell count.  M_k is constant on those cells, so M_cells[k] holds one
    value per cell, and build_trace's q pass and the one walk of every
    check read M_k on the outcomes through m_columns(), which gathers it.
    W is not stored: w_blocks(k) computes W[:, :, k] one block of
    consecutive variables at a time, from their cell means over
    prefix_ids[k].  A trace keeps the table, Q, q, the partitions and M's
    cell values, so it takes O(outcomes * N) memory, about the table and
    one narrow index per outcome and k; the walk of the checks holds one
    block, the at most m+1 rows of the slice before that the window
    identity reads, and O(outcomes) columns.  A block is laid out
    variables by outcomes, as the table is: C-contiguous, one row of X_i's
    conditional means on every outcome per variable.
    """

    model: ArrayModel
    n: int
    m: int
    table: OutcomeTable
    M_cells: list  # per k = 0..N: M_k on each cell of prefix_ids[k]
    Q: np.ndarray  # (outcomes,)
    q: np.ndarray  # (N,)
    prefix_ids: list  # per k = 0..N: partition cell index of each outcome

    def m_columns(self):
        """Yield M_0, M_1, ..., M_N on every outcome, in order.  Each is
        gathered once, through prefix_ids[k], into one of two buffers in
        turn, so M_{k-1} stays valid beside M_k until the next column is
        yielded; a caller that keeps a column longer copies it."""
        out = np.empty((2, len(self.prefix_ids[0])))
        for k, (cells, ids) in enumerate(zip(self.M_cells, self.prefix_ids)):
            yield cells.take(ids, out=out[k % 2], mode="clip")  # every index is in range

    @property
    def sigma2(self) -> float:
        """E S_n^2 computed from the table itself."""
        return float(self.table.prob * np.sum(self.table.row_sums() ** 2))

    def w_blocks(self, k: int):
        """Yield (i0, block) for blocks of consecutive variables covering
        1..N in order, block = W[:, i0:i1, k].T, C-contiguous, its row
        i - i0 holding E(X_{i+1} | prefix k) on every outcome.  The blocks
        are gathered into one buffer, so each is valid until the next is
        yielded.  A block holds at most max(outcomes, _C_BLOCK) entries:
        one variable at two-scale n = 8 (2^17 outcomes), the whole slice on
        a row of few outcomes, whose small calls would cost more than
        their entries.  Its cell means are one weighted bincount over the
        bins (variable, cell), which adds each bin in outcome order, as a
        bincount per variable does, over the cell's count, gathered back
        through the same (variable, outcome) index."""
        ids, cols = self.prefix_ids[k], self.table.columns
        N, n_out = cols.shape
        rows = min(N, max(n_out, _C_BLOCK) // n_out)
        cells = len(self.M_cells[k])
        index = np.add.outer(np.arange(0, rows * cells, cells), ids).ravel()
        counts = np.bincount(index[:n_out]).astype(float)  # once: an int64 divisor is slower
        out = np.empty(index.size)
        for i0 in range(0, N, rows):
            x = cols[i0 : i0 + rows]
            idx = index[: x.size]
            means = np.bincount(idx, weights=x.ravel()).reshape(len(x), -1)
            means /= counts
            block = means.ravel().take(idx, out=out[: x.size], mode="clip")  # every index is in range; "raise" would buffer
            means = None  # dropped before the next bincount
            yield i0, block.reshape(x.shape)


def _steps(trace: MartingaleTrace):
    """Yield (M_k, dM_k) for k = 1..N from one pass of trace.m_columns(),
    dM_k = M_k - M_{k-1} as np.diff computes it, in one buffer that the
    next step overwrites."""
    columns = trace.m_columns()
    prev = next(columns)
    d = np.empty_like(prev)
    for column in columns:
        yield column, np.subtract(column, prev, out=d)
        prev = column


def _refine(inv: np.ndarray, cells: int, column: np.ndarray, atoms: np.ndarray | None = None) -> np.ndarray:
    """The partition inv, of `cells` cells, refined by the values of one
    more entry: the cell of an outcome is the pair (cell, X_k), numbered
    in the order of its key cell * (values of X_k) + rank of X_k, as
    np.unique(key, return_inverse=True) numbers it.  Given the entry's
    sorted atoms, the ranks are read without a sort, by np.searchsorted,
    and kept only if every value is the atom of its rank exactly; atoms
    absent from the column leave gaps in the key space, which the
    numbering by key order skips.  Without atoms, or if a value is not an
    atom (a NaN included), the values and ranks come from np.unique.  A
    key space of at most _RELABEL_SPAN keys per outcome is numbered
    without a sort: the keys that occur are marked in it, and a key's
    cell is the running count of marks up to it, minus 1.  The ids of a
    larger key space come from np.unique with return_inverse, which,
    unlike plain np.unique, does not import numpy.ma."""
    if atoms is not None:
        rank = np.searchsorted(atoms, column)
        if not np.array_equal(atoms.take(rank, mode="clip"), column):  # a value above every atom has rank len(atoms)
            atoms = None
    if atoms is None:
        atoms, rank = np.unique(column, return_inverse=True)
    key = inv * len(atoms)
    key += rank
    space = cells * len(atoms)
    if space > _RELABEL_SPAN * len(key):
        return np.unique(key, return_inverse=True)[1]
    count = np.zeros(space, dtype=np.int32)
    count[key] = 1
    np.cumsum(count, out=count)
    return np.subtract(count.take(key), 1, out=key)


def _max_abs(x: np.ndarray) -> float:
    """max |x| without a temporary the size of x, NaN if x holds one."""
    return abs(float(max(x.max(), -x.min())))


def _require_trace_size(model: ArrayModel, n: int) -> None:
    """Raise unless build_trace fits the outcome cap and either the cap on
    the whole of W or both the cap on stored cells and the cap on computed
    entries of W; decided from the declaration, before any enumeration."""
    _check_n(n)
    count = 2 ** _enumeration_bits(model, n)
    N = model.length(n)
    entries = count * N * (N + 1)
    if entries <= TRACE_TENSOR_CAP:
        return
    if max(count, N) * (N + 1) > TRACE_CELL_CAP:
        raise EnumerationTooLargeError(
            f"trace at n={n} would store {max(count, N) * (N + 1)} cells per array (cap TRACE_CELL_CAP = {TRACE_CELL_CAP})"
        )
    if entries > TRACE_WORK_CAP:
        raise EnumerationTooLargeError(
            f"trace checks at n={n} would compute {entries} entries of W (cap TRACE_WORK_CAP = {TRACE_WORK_CAP})"
        )


def _largest_trace_n(model: ArrayModel, below: int) -> int | None:
    """The largest n < below that _require_trace_size admits, or None,
    decided from the declaration alone; continuous marginals raise.  A
    row of N entries is admitted only if N (N+1) <= TRACE_TENSOR_CAP, and
    every row holds more than n/2 entries, so the search starts below
    2 * isqrt(TRACE_TENSOR_CAP)."""
    for n in range(min(below, 2 * math.isqrt(TRACE_TENSOR_CAP)) - 1, 0, -1):
        try:
            _require_trace_size(model, n)
        except (EnumerationTooLargeError, InvalidParameterError):
            continue
        return n
    return None


def build_trace(model: ArrayModel, n: int) -> MartingaleTrace:
    """Enumerate the row and compute M, Q, q and the prefix partitions
    exactly.

    The prefix partitions are refined one column at a time (_refine).
    Cells at k-1 are numbered in lexicographic prefix order and ranks in
    value order, so the numbering is the one np.unique(rows[:, :k], axis=0)
    gives, without sorting whole prefixes.  M_k = E(S_n | X_1..X_k) is
    taken as defined: the mean of the row sums S_n over each cell of the
    partition k, one bincount per level, so no block of W is built here
    and M does not share a sum with w_blocks.  q is summed one column
    of dM at a time, gathered from the cells; Q one block of outcomes at a
    time: M_0..M_N are gathered into the rows of one reused block, dM into
    one reused C-contiguous block, whose rows np.einsum adds as it adds
    the rows of the whole array.

    Each entry's ranks are read from the sorted atoms of its law, which
    sign_combination_law gives bit-equal to the entries enumerate_outcomes
    forms, one law per segment of linear_row.  A row whose sigma_n^2 is
    not a positive finite float raises DegenerateVarianceError before the
    enumeration.
    """
    _require_trace_size(model, n)
    _sigma(model, n)  # a degenerate sigma_n raises before the enumeration
    table = enumerate_outcomes(model, n)
    cols = table.columns
    N, n_out = cols.shape
    _, scale, segments = linear_row(model, n)
    laws = (sign_combination_law([c for _, c in taps], model.amplitude * scale) for _, taps, _ in segments)
    entry_atoms = chain.from_iterable(repeat(law.values, count) for (count, _, _), law in zip(segments, laws))
    sums = table.row_sums()
    inv = np.zeros(n_out, dtype=np.intp)
    M_cells, prefix_ids = [], []
    for k, atoms in enumerate(chain([None], entry_atoms)):
        if k > 0:
            inv = _refine(inv, len(M_cells[k - 1]), cols[k - 1], atoms)
        # every outcome has the same probability, a power of two, so the
        # plain mean over a cell, a bincount in outcome order over its
        # count, is exactly the probability-weighted one
        counts = np.bincount(inv)
        M_cells.append(np.bincount(inv, weights=sums) / counts)
        prefix_ids.append(inv.astype(np.min_scalar_type(len(counts) - 1)))
    del inv, counts, sums  # the last level's ids and counts, and S_n
    trace = MartingaleTrace(model, n, model.m(n), table, M_cells, np.empty(n_out), np.empty(N), prefix_ids)
    with np.errstate(over="ignore"):  # an infinite q fails the summary's sigma_n^2 check
        for i, (_, d) in enumerate(_steps(trace)):
            trace.q[i] = table.prob * np.sum(d**2)
    step = min(n_out, max(1, _C_BLOCK // (N + 1)))
    block, dM = np.empty((N + 1, step)), np.empty((step, N))
    for lo in range(0, n_out, step):
        width = min(step, n_out - lo)
        for cells, ids, row in zip(M_cells, prefix_ids, block):
            cells.take(ids[lo : lo + width], out=row[:width], mode="clip")  # every index is in range
        d = np.subtract(block[1:, :width].T, block[:-1, :width].T, out=dM[:width])
        np.einsum("ok,ok->o", d, d, out=trace.Q[lo : lo + width])
    return trace


def _scalar_result(name: str, lhs: float, rhs: float, err: float, tol: float, detail: dict | None = None) -> CheckResult:
    """The check of one scalar comparison of lhs with rhs, err its
    violation; a failure adds both sides to the detail."""
    if err <= tol:
        return CheckResult(name, True, err, detail)
    return CheckResult(name, False, err, {**(detail or {}), "lhs": lhs, "rhs": rhs, "err": err, "identity": name})


class _SliceErrors:
    """One identity's errors along a walk over slices (or columns) j, each
    added whole or in blocks, the error of a residual r being
    max(|r| - allowance, 0): the largest |r| of every block, and the first
    worst entry of each block whose error fails tol.  An identity given no
    entry has error 0."""

    __slots__ = ("name", "tol", "names", "allowance", "maxima", "hits")

    def __init__(self, name: str, tol: float, names=("outcome", "i", "k"), allowance: float = 0.0):
        self.name, self.tol, self.names, self.allowance = name, tol, names, allowance
        self.maxima, self.hits = [], []

    def add(self, j: int, block: np.ndarray, i0: int = 0) -> None:
        """Slice j's residuals, or a block of them, laid out (outcomes,) or
        (i - i0, outcomes)."""
        self.maxima.append(_max_abs(block) if block.size else 0.0)
        worst = np.maximum(self.maxima[-1] - self.allowance, 0.0)
        if not worst <= self.tol:  # NaN included
            err = np.abs(block.T)  # (outcome, i) in C order
            err -= self.allowance
            np.maximum(err, 0.0, out=err)
            idx = np.unravel_index(int(np.argmax(err)), err.shape)
            index = (int(idx[0]), *(int(i) + i0 for i in idx[1:]), j)
            self.hits.append((worst, (*index, float(err[idx]))))

    def result(self) -> CheckResult:
        """The check of the whole error array; a failure names its first
        worst entry in C order, the one np.argmax over it gives.  Taking
        the allowance from the largest |r| gives the largest error, as
        rounding keeps the order of the |r|."""
        worst = float(np.maximum(np.max(self.maxima, initial=0.0) - self.allowance, 0.0))
        if worst <= self.tol:
            return CheckResult(self.name, True, worst)
        *index, e = min(hit for w, hit in self.hits if w == worst or math.isnan(w))
        return CheckResult(self.name, False, worst, {**dict(zip(self.names, index)), "err": e, "identity": self.name})


def check_trace(trace: MartingaleTrace, eps: float | None = None) -> list[CheckResult]:
    """Assert every identity and bound of the martingale, per outcome, at
    eps, by default max(m, 1) * max|X|, the smallest eps the bounds apply
    to.  The eleven results, in order:

    measurable-past          W[i, k] = X_i for i <= k
    independent-future       W[i, k] = 0 for i > k + m
    window-difference        dM_k = sum_{i=k}^{k+m} (W[i, k] - W[i, k-1])
    partial-sum-form         M_k = sum_{i<=k} X_i + sum_{i=k+1}^{k+m} W[i, k]
    endpoint                 M_0 = 0 and M_N = S_n
    tower-mean-zero          E[dM_k 1{cell}] = 0 on every cell of the
                             prefix partition k-1 (a NaN cell sum fails it,
                             and the detail names the first k holding one)
    conditional-bound        |W| <= eps/max(m, 1)
    increment-bound          |dM_k| <= 4 eps
    prefix-gap               |T_{i+m} - M_i| <= 2 eps
    mean-quadratic-variation E Q = E S^2
    variance-bound           Var Q <= 48 eps^2 E S^2

    The row must satisfy |X_i| <= eps/max(m, 1) on every outcome and
    eps^2 sigma_n^2 must be a positive finite float; otherwise this raises
    HypothesisViolationError, even for a caller that reads only the
    structure identities.  The realized slack ratios Var Q/(eps^2 sigma^2)
    and max|dM|/eps are reported in the details.  Every check comes from
    one walk (_walk), which builds each slice of W once, block by block.
    """
    return _walk(trace, eps)[0]


def _walk(trace: MartingaleTrace, eps: float | None = None) -> tuple:
    """Every check of check_trace from one walk over k that reads each
    column M_k once and builds each slice W[:, :, k] once: (results, eps,
    sigma_n^2, Var Q, max |dM|), eps None meaning max(m, 1) * max|X|.
    max|X| is taken once and checked against eps/max(m, 1) before any
    slice, eps^2 sigma_n^2 after the walk; either failing raises
    HypothesisViolationError.

    At each k >= 1, before the slice, dM_k = M_k - M_{k-1} is a transient
    column for the checks that read it alone: the tower's cell sums over
    the prefix partition k-1 (a NaN ends their search), |dM_k| <= 4 eps,
    and |T_{k+m} - M_k| <= 2 eps, T_{k+m} being the running T_k, added in
    order, plus one sum of the next m columns.  Neither is held across
    the slice, where the walk peaks.  No whole slice is held: each block
    of Wt = W[:, :, k].T that w_blocks yields, whose row i holds
    E(X_{i+1} | prefix k) on every outcome, is checked as it comes, each
    identity over its own rows only (past i < k, future i >= k + m, and
    the window in between).  The window's rows are subtracted from the at
    most m + 1 kept rows of the slice before, in place, and added row
    after row, the sum so far carried into a block's first row, so the
    sum is the one numpy's axis-0 sum of the whole window gives; the
    kept rows then take rows k..k+m of this slice, from which the partial
    sum is read once the blocks are done.  A block's errors, indexed
    (outcome, i), are built only when its maximum fails, to name its
    first worst entry.  The past residuals are taken in place, after
    every other read of the block.  The endpoint check reads M_0 first
    and M_N last, against S_n, taken once the last slice is done, and
    S_n gives sigma_n^2."""
    cols, p = trace.table.columns, trace.table.prob
    N, n_out = cols.shape
    m = trace.m
    past = _SliceErrors("measurable-past", _STRUCTURE_TOL)
    future = _SliceErrors("independent-future", _STRUCTURE_TOL)
    window = _SliceErrors("window-difference", _STRUCTURE_TOL, names=("outcome", "k"))
    partial = _SliceErrors("partial-sum-form", _STRUCTURE_TOL, names=("outcome", "k"))
    endpoint = _SliceErrors("endpoint", _STRUCTURE_TOL, names=("outcome",))  # M_0 = 0, then M_N = S_n
    max_x = _max_abs(trace.table.rows)
    if eps is None:
        eps = max(m, 1) * max_x
    bound = eps / max(m, 1)
    if max_x > bound * (1 + 1e-12):
        raise HypothesisViolationError(f"row not bounded by eps/m = {bound:.6g} (max |X| = {max_x:.6g})")
    bounded = _SliceErrors("conditional-bound", _BOUND_TOL, allowance=bound)
    increment = _SliceErrors("increment-bound", _BOUND_TOL, names=("outcome", "k"), allowance=4.0 * eps)
    gap = _SliceErrors("prefix-gap", _BOUND_TOL, names=("outcome", "i"), allowance=2.0 * eps)
    worst, detail = 0.0, None  # the tower's
    head = np.zeros(n_out)  # T_k = X_1 + ... + X_k, added in order
    # rows k-1..k-1+m of slice k-1, which the window reads and turns into
    # differences as slice k's blocks come in, each slot then taking row
    # k+j of slice k; the partial sum reads rows k..hi-1 from it last
    kept = np.empty((min(m + 1, N), n_out))
    for k, Mk in enumerate(trace.m_columns()):
        hi = min(k + m, N)
        if k > 0:
            head += cols[k - 1]
            d = Mk - M_prev
            if not math.isnan(worst):
                err = np.abs(np.bincount(trace.prefix_ids[k - 1], weights=d) * p)
                if not (w := float(err.max())) <= worst:
                    worst, detail = w, {"k": k, "cell": int(np.argmax(err)), "err": w}
            increment.add(k - 1, d)
            t = cols[k:hi].sum(axis=0)
            t += head
            gap.add(k - 1, np.subtract(t, Mk, out=t))  # T_{k+m} - M_k
            d = err = t = None  # dropped before the blocks
        else:
            endpoint.add(k, Mk)
        dsum = None  # sum of W[i, k] - W[i, k-1] over the window, row after row
        for i0, Wt in trace.w_blocks(k):
            i1 = i0 + len(Wt)
            bounded.add(k, Wt, i0)
            if i1 > k + m:
                a = max(k + m, i0)
                future.add(k, Wt[a - i0 :], a)
            a, b = max(k - 1, i0), min(hi, i1)
            if k > 0 and a < b:
                d = np.subtract(Wt[a - i0 : b - i0], kept[a - k + 1 : b - k + 1], out=kept[a - k + 1 : b - k + 1])
                if dsum is None:
                    dsum = d.sum(axis=0)
                else:  # carried into the first row, so that the rows add in order
                    d[0] += dsum
                    d.sum(axis=0, out=dsum)
            a, b = max(k, i0), min(k + m + 1, i1)
            if a < b:
                kept[a - k : b - k] = Wt[a - i0 : b - i0]
            if i0 < k:  # last, as nothing else reads them: the past residuals in place
                b = min(k, i1)
                past.add(k, np.subtract(Wt[: b - i0], cols[i0:b], out=Wt[: b - i0]), i0)
        Wt = None  # the reader's buffer
        if k > 0:
            r = Mk - M_prev
            window.add(k - 1, np.subtract(r, dsum, out=r))
        r = kept[: hi - k].sum(axis=0)  # zeros if hi = k
        r += head
        partial.add(k, np.subtract(Mk, r, out=r))
        M_prev = Mk
        dsum = r = None  # dropped before the next tower

    sums = trace.table.row_sums()
    endpoint.add(N, M_prev - sums)  # M_prev is M_N
    passed = worst <= _EXPECTATION_TOL
    results = [w.result() for w in (past, future, window, partial, endpoint)]
    results.append(CheckResult("tower-mean-zero", passed, worst, None if passed else detail))
    with np.errstate(over="ignore"):  # reported below
        s2 = float(p * np.sum(sums**2))
    if not 0 < eps * eps * s2 < math.inf:
        raise HypothesisViolationError(f"eps^2 sigma_n^2 = {eps * eps * s2:.6g} is not a positive finite float")
    dm_max = float(np.max(increment.maxima))
    res = increment.result()
    if res.passed:
        res = replace(res, detail={"max_dm_over_eps": dm_max / eps})
    results += [bounded.result(), res, gap.result()]

    eq = float(p * np.sum(trace.Q))
    results.append(_scalar_result("mean-quadratic-variation", eq, s2, abs(eq - s2), 1e-10))

    var_q = float(p * np.sum((trace.Q - eq) ** 2))
    cap = 48.0 * eps**2 * s2
    slack = {"var_q_over_eps2_sigma2": var_q / (eps**2 * s2), "max_dm_over_eps": dm_max / eps}
    results.append(_scalar_result("variance-bound", var_q, cap, max(var_q - cap, 0.0), _BOUND_TOL, slack))
    return results, eps, s2, var_q, dm_max


def truncation_threshold(model: ArrayModel, n: int, eps: float) -> float:
    """The threshold t = eps * sigma_n / max(m_n, 1) at which the proof
    splits each entry, X = X' + X'' with X' = X 1{|X| <= t}."""
    if not eps > 0:
        raise InvalidParameterError("eps must be positive")
    _check_n(n)
    return eps * math.sqrt(exact_sigma2(model, n)) / max(model.m(n), 1)


def _beyond(x: np.ndarray, threshold: float, work: np.ndarray | None = None) -> np.ndarray:
    """Where the entries x go to X'': not |x| <= threshold, so NaN included;
    |x| is taken into the buffer work, if given."""
    return ~(np.abs(x, out=work) <= threshold)


@dataclass(frozen=True)
class TruncationCheck:
    """Exact verification of the truncation split at one (n, eps)."""

    passed: bool
    results: list
    values: dict


def check_truncation(trace: MartingaleTrace, eps: float) -> TruncationCheck:
    """Verify the truncation split X = X' + X'' at
    t = truncation_threshold(model, n, eps) on the full enumeration the
    trace holds: X' = X 1{|X| <= t}, and X'' = X 1{not |X| <= t} takes
    every other entry, a NaN included (_beyond).

    Checks that X' + X'' recovers X exactly, both parts are mean zero,
    both parts keep the banded covariance (m_n-dependence), and the tail
    sum obeys E[(S'')^2] <= (2 m_n + 1) * sum_i E[X_i^2 1{|X_i| > t}].
    The split shifts neither part: every entry law is symmetric, so the
    proof's centring mu_i = E[X_i 1{|X_i| <= t}] is 0, and split-centred
    fails on the first entry whose law is not.  The split enters only
    through which entries go beyond the threshold: each column's mask is
    taken for X' and again for X'', and two eps whose masks
    agree give the same results and values but for the threshold, which
    is how check_truncations runs one check per distinct split.
    """
    table = trace.table
    threshold = truncation_threshold(trace.model, trace.n, eps)
    cols, p = table.columns, table.prob
    N, n_out = cols.shape
    m = trace.m

    # one part of the split at a time, X' then X'', in one buffer laid out
    # as the table's columns, (N, outcomes), filled row by row from one
    # column at a time and centred in place.  Every outcome has probability
    # p, a power of two, so the means and covariances are plain sums times
    # p, exactly the probability-weighted sums
    part = np.empty((N, n_out))
    banded = np.zeros((N, N))  # the larger |Cov| of the two parts beyond the band, j > i + m; NaN wins
    centred = _SliceErrors("split-centred", _EXPECTATION_TOL, names=("i",))

    def centre_and_band(part):
        mean = part.sum(axis=1) * p
        centred.add(0, mean)
        part -= mean[:, None]
        # einsum rather than a BLAS product, whose sums vary with the thread
        # count, over the pairs j > i + m only, one row i at a time, scaled
        # and made absolute in place.  Each sum over outcomes is the one the
        # whole N x N product takes, a symmetric matrix whose first worst
        # pair lies in this upper triangle; a single row j would be summed
        # in another order, so a row's call reads at least two
        for i in range(N - m - 1):
            out = banded[i, i + m + 1 :]
            cov = np.einsum("jo,o->j", part[min(i + m + 1, N - 2) :], part[i])[-len(out) :]
            cov *= p
            np.maximum(out, np.abs(cov, out=cov), out=out)

    # X' from the table's contiguous columns, one mask at a time, and X''_i
    # in one row buffer, from which additivity reads, and then, formed
    # again and squared in place, the tail sum
    additivity = _SliceErrors("split-additivity", 0.0, names=("outcome", "i"))
    tail_sum = 0.0
    row = np.empty(n_out)
    for i, x in enumerate(cols):
        beyond = _beyond(x, threshold, row)
        np.multiply(x, ~beyond, out=part[i])
        np.multiply(x, beyond, out=row)
        np.add(part[i], row, out=row)
        additivity.add(i, np.subtract(row, x, out=row))
        np.multiply(x, beyond, out=row)
        tail_sum += p * np.sum(np.square(row, out=row))
    row = beyond = None
    centre_and_band(part)
    # X'', each column's mask taken again
    for x, out in zip(cols, part):
        np.multiply(x, _beyond(x, threshold), out=out)
    # E (S'')^2, each outcome's row summed as a C-contiguous row, in the
    # order numpy sums it, one block of outcomes at a time
    s = _row_sums(part.T)
    lhs = float(p * np.sum(np.square(s, out=s)))
    s = None
    centre_and_band(part)
    tail_sum = float(tail_sum)
    band = _SliceErrors("split-banded", _EXPECTATION_TOL, names=("i", "j"))
    band.add(0, banded.T)  # its (outcome, i) order is banded's (i, j)
    results = [additivity.result(), centred.result(), band.result()]

    rhs = (2 * m + 1) * tail_sum
    results.append(_scalar_result("tail-variance-bound", lhs, rhs, max(lhs - rhs, 0.0), _EXPECTATION_TOL))

    values = {
        "threshold": threshold,
        "tail_second_moment_sum": tail_sum,
        "s_tail_second_moment": lhs,
        "bound": rhs,
    }
    return TruncationCheck(all(r.passed for r in results), results, values)


def check_truncations(trace: MartingaleTrace, eps_list) -> list[TruncationCheck]:
    """check_truncation(trace, eps) for each eps of eps_list, in order,
    run once per distinct split.  Thresholds grow with eps, and an entry
    beyond a threshold is beyond every smaller one (a NaN beyond every
    threshold), so the splits of two eps are nested, and equal exactly
    when they put as many entries of the table beyond.  Equal splits give
    equal results and values but for the threshold, which each eps gets
    as its own."""
    thresholds = [truncation_threshold(trace.model, trace.n, eps) for eps in eps_list]
    counts = [0] * len(thresholds)  # entries beyond each threshold
    for x in trace.table.columns:
        for j, t in enumerate(thresholds):
            counts[j] += int(np.count_nonzero(_beyond(x, t)))
    checks = {}
    out = []
    for eps, t, count in zip(eps_list, thresholds, counts):
        if count not in checks:
            checks[count] = check_truncation(trace, eps)
        out.append(replace(checks[count], values={**checks[count].values, "threshold": t}))
    return out


# ---------------------------------------------------------------------------
# the martingale-CLT hypotheses, from the exact law of the increments


def _increment_law(model: ArrayModel, n: int) -> tuple:
    """(groups, atoms): the weight groups [(count, |w|), ...] of S_n, all
    nonzero, in units of sigma_n, and the law of (max_k |dM_k|/sigma_n,
    Q_n/sigma_n^2) as atoms [(max, q, probability), ...], or None on a
    Gaussian row, whose law the groups give.

    In a row of one-tap segments each innovation zeta is first seen at the
    first entry of its block, which reveals its whole share w * zeta of
    S_n: dM is w * zeta there and zero elsewhere.  Other rows raise
    UnsupportedFamilyError, two-scale aside.  There, with a and b the
    weights of xi_k and eta_n and K the first k with eta_k != eta_{k-1}
    (P(K = k) = 2^-k; no change, 2^-n), dM_k = a xi_k except dM_K =
    a xi_K + b eta_K and dM_n = a xi_n + b eta_n, independent, if K < n,
    and dM_n = a xi_n + 2 b eta_n if K = n."""
    _sigma(model, n)  # a degenerate sigma_n raises
    groups = [(c, abs(w)) for c, w in sum_weight_groups(model, n)]
    s = math.sqrt(sum(c * w * w for c, w in groups))
    groups = [(c, w / s) for c, w in groups]
    if model.family != "two-scale":
        if any(len(taps) > 1 for _, taps, _ in linear_row(model, n)[2]):
            raise UnsupportedFamilyError(f"no closed-form conditional expectations for {model.describe()}")
        return groups, [(max(w for _, w in groups), 1.0, 1.0)] if model.is_discrete else None
    a, b = groups[0][1], groups[-1][1]

    def atom(p, plain, *special):  # `plain` increments of size a, then the special ones
        return (max(special + ((a,) if plain else ())), plain * a * a + sum(x * x for x in special), p)

    sizes = (a + b, abs(b - a))  # the two values of |a xi + b eta|
    early = [atom((1.0 - 2.0 ** (1 - n)) / 4, n - 2, x, y) for x in sizes for y in sizes] if n > 1 else []
    last = [atom(2.0**-n / 2, n - 1, x) for x in (a + 2 * b, abs(2 * b - a))]
    return groups, early + last + [atom(2.0**-n, n)]


def _gaussian_max_moments(groups: list) -> dict:
    """The 95 % quantile, mean and second moment of max |w Z| over
    independent standard normals, count of them per weight w in groups,
    from the CDF F(t) = prod erf(t / (w sqrt 2))^count: the quantile by
    bisection, the moments by Simpson's rule on 2048 steps for the
    integrals of 1 - F and 2t (1 - F) between the 2^-60 and 1 - 2^-60
    quantiles."""

    def log_cdf(t):
        tails = [math.erfc(t / (w * math.sqrt(2.0))) for _, w in groups]
        return -math.inf if max(tails) >= 1.0 else sum(c * math.log1p(-e) for (c, _), e in zip(groups, tails))

    def quantile(log_p):
        lo, hi = 0.0, 40.0 * max(w for _, w in groups)
        while lo < (mid := (lo + hi) / 2) < hi:
            lo, hi = (mid, hi) if log_cdf(mid) < log_p else (lo, mid)
        return hi

    lo, hi = quantile(-60 * math.log(2.0)), quantile(-(2.0**-60))
    ts = np.linspace(lo, hi, 2049)
    tail = np.array([-math.expm1(log_cdf(t)) for t in ts])
    weights = np.r_[1.0, np.tile([4.0, 2.0], 1024)] * (ts[1] - ts[0]) / 3
    weights[-1] = weights[0]
    return {
        "max_dm_q95": quantile(math.log(0.95)),
        "max_dm_mean": lo + float(np.sum(weights * tail)),
        "max_dm2_mean": lo * lo + float(np.sum(weights * (2 * ts * tail))),
    }


def _hh_row(model: ArrayModel, n: int) -> dict:
    """The keys check_hh_hypotheses reports at n, from _increment_law; on a
    Gaussian row Q_n/sigma_n^2 has mean 1 and variance 2 sum c w^4."""
    groups, atoms = _increment_law(model, n)
    if atoms is None:
        q_sd = math.sqrt(2.0 * sum(c * w**4 for c, w in groups))
        return {"n": n, **_gaussian_max_moments(groups), "q_mean": 1.0, "q_sd": q_sd}
    atoms.sort()
    q_mean = sum(p * q for _, q, p in atoms)
    return {
        "n": n,
        "max_dm_q95": next(x for (x, _, _), c in zip(atoms, accumulate(p for *_, p in atoms)) if c >= 0.95),
        "max_dm_mean": sum(p * x for x, _, p in atoms),
        "max_dm2_mean": sum(p * x * x for x, _, p in atoms),
        "q_mean": q_mean,
        "q_sd": math.sqrt(sum(p * (q - q_mean) ** 2 for _, q, p in atoms)),
    }


@dataclass(frozen=True)
class HHReport:
    """The martingale-CLT hypotheses over an n-grid.

    rows: per-n dicts with the 95 % quantile and mean of max|dM|/sigma,
    the mean and sd of Q/sigma^2, and E[max dM^2]/sigma^2, all exact.
    """

    model: ArrayModel
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


def check_hh_hypotheses(model: ArrayModel, n_grid) -> HHReport:
    """The three martingale-CLT hypotheses of Hall & Heyde (1980) on
    M_k = E(S_n | X_1..X_k), read from the exact law of (max_k |dM_k|/sigma_n,
    Q_n/sigma_n^2) at each n through asymptotic_verdict, so the grid needs at
    least four points: the 95 % quantile of max_k |dM_k|/sigma_n tends to
    zero (HH1), the sd of Q_n/sigma_n^2 tends to zero while its mean is 1
    (HH2), and E[max_k dM_k^2]/sigma_n^2 stays bounded (HH3).  Rows are
    supported as by _increment_law."""
    from .conditions import ConditionValue, asymptotic_verdict

    rows = [_hh_row(model, n) for n in sorted(n_grid)]

    hh1, hh2, hh3 = (
        asymptotic_verdict([ConditionValue(key, row["n"], row[key]) for row in rows]).verdict
        for key in ("max_dm_q95", "q_sd", "max_dm2_mean")
    )
    return HHReport(model, rows, hh1 == "tends-to-zero", hh2 == "tends-to-zero", hh3 in ("bounded", "tends-to-zero"))


# ---------------------------------------------------------------------------
# export


def trace_summary(trace: MartingaleTrace) -> dict:
    """Compact JSON-ready summary of a trace and its checks, the bound
    checks included at the smallest eps they apply to, max(m, 1) * max|X|:
    the numbers of the one walk of check_trace (_walk)."""
    results, eps, s2, var_q, dm_max = _walk(trace)
    structure, tower, bounds = results[:5], results[5], results[6:]
    out = {
        "n": trace.n,
        "m": trace.m,
        "outcomes": int(trace.table.rows.shape[0]),
        "sigma2": s2,
        "sum_q": float(trace.q.sum()),
        "var_q": var_q,
        "max_abs_dm": dm_max,
        "structure_passed": all(r.passed for r in structure),
        "tower_passed": tower.passed,
        "checks": {r.name: r.passed for r in results},
        "eps": eps,
        "bounds_passed": all(r.passed for r in bounds),
    }
    slack = bounds[-1].detail
    out.update({key: slack[key] for key in ("var_q_over_eps2_sigma2", "max_dm_over_eps")})
    return out
