"""Shared pytest plumbing: collected acceptance lines are echoed in the
terminal summary so each criterion shows one pass/fail line.  Also the
independent references the tests compare the library against: a whole
sampled row, the law of one entry, the law of a sign combination over
every sign pattern, the covariance band, the window variance summed from
it, Var S_n over enumerated outcomes, the outcome table from one matrix of
every innovation's signs, the martingale M stored per outcome, and the
per-outcome M, dM, slices of W and truncation parts of a trace."""

from __future__ import annotations

import numpy as np

from mdepclt.laws import DiscreteLaw, tap_sum
from mdepclt.models import _tap_law, linear_row, row_rng

_ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def _innovations(rng: Generator, kind: str, size: int) -> np.ndarray:
    """size innovations from rng.  Rademacher signs are read 64 per raw
    Philox word, little-endian: sign i is +1 when bit i % 64 of word
    i // 64 is set, so the layout does not depend on the host's byte order."""
    if kind == "rademacher":
        words = rng.bit_generator.random_raw(-(-size // 64)).astype("<u8")
        signs = np.unpackbits(words.view(np.uint8), count=size, bitorder="little").astype(float)
        signs *= 2.0
        signs -= 1.0
        return signs
    return rng.standard_normal(size)


def draw_innovations(model: ArrayModel, n: int, rng: Generator) -> np.ndarray:
    """The innovations of row n, in declaration order, drawn from rng."""
    return _innovations(rng, model.innovation, linear_row(model, n)[0])


def row_entries(model, n, innov):
    """Map raw innovations (array or matrix with trailing axis) to row values.

    Taps sharing a coefficient magnitude are summed before they are scaled,
    and the amplitude * scale factor is applied once, so entries equal in
    exact arithmetic are bit-equal (the oracle partitions on exact values).
    """
    _, scale, segments = linear_row(model, n)
    parts = []
    for count, taps, repeat in segments:
        width = count // repeat
        part = tap_sum([c for _, c in taps], [innov[..., j : j + width] for j, _ in taps])
        parts.append(np.repeat(part, repeat, axis=-1) if repeat > 1 else part)
    row = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
    factor = model.amplitude * scale
    if np.may_share_memory(row, innov):
        return factor * row  # a new array even when factor is 1.0
    if factor != 1.0:
        row *= factor  # rounds as factor * row does
    return row


def sample_row(model, n, seed=0, replicate=0):
    """Row n as the entries of the innovations drawn from row_rng(seed, n,
    replicate): the whole-row reference for the Monte Carlo's direct draws
    of S_n, which never build a row."""
    return row_entries(model, n, draw_innovations(model, n, row_rng(seed, n, replicate)))


def marginal_law(model, n, i):
    """Exact law of the entry X_{n,i}, i = 1..N_n, from the segment that holds it."""
    _, scale, segments = linear_row(model, n)
    for count, taps, _ in segments:
        if i <= count:
            return _tap_law(model, model.amplitude * scale, tuple(c for _, c in taps))
        i -= count
    raise IndexError("the entry index lies past the row")


def sign_pattern_law(coeffs):
    """Law of sum(c_l * s_l) over independent signs s_l in {-1, +1}, from
    all 2^k sign patterns with atoms formed by tap_sum: the reference for
    laws.sign_combination_law's binomial lattice."""
    coeffs = [float(c) for c in coeffs]
    k = len(coeffs)
    idx = np.arange(2**k, dtype=np.uint32)
    signs = ((idx[:, None] >> np.arange(k)) & 1).astype(float) * 2.0 - 1.0
    return DiscreteLaw.from_points(tap_sum(coeffs, signs.T), np.full(2**k, 2.0**-k))


def exact_cov(model, n, i, j):
    """Cov(X_{n,i}, X_{n,j}), i, j = 1..N_n, read from the band at lag |i - j|."""
    return float(cov_band(model, n, abs(i - j))[min(i, j) - 1])


def _entry_taps(model, n):
    """(innovation index, coefficient) of every tap of every entry, as two
    (taps, N_n) arrays; segments with fewer taps are padded with coefficient 0."""
    _, _, segments = linear_row(model, n)
    width = max(len(taps) for _, taps, _ in segments)
    idx, coef = [], []
    for count, taps, repeat in segments:
        pad = width - len(taps)
        block = np.arange(count) // repeat
        idx.append(np.array([j + block for j, _ in taps] + [np.full(count, -1)] * pad))
        coef.append(np.array([np.full(count, c) for _, c in taps] + [np.zeros(count)] * pad))
    return np.concatenate(idx, axis=1), np.concatenate(coef, axis=1)


def cov_band(model, n, d):
    """Vector of Cov(X_{n,i}, X_{n,i+d}) for i = 1..N_n-d and 0 <= d < N_n,
    exact, from the taps of every entry pair; O(N_n * taps^2) per lag."""
    N = model.length(n)
    idx, coef = _entry_taps(model, n)
    band = np.zeros(N - d)
    for s in range(len(idx)):
        for t in range(len(idx)):
            band += (idx[s, : N - d] == idx[t, d:]) * coef[s, : N - d] * coef[t, d:]
    a = model.amplitude * linear_row(model, n)[1]
    return a * a * band


def _sliding_sum(x, width):
    c = np.concatenate([[0.0], np.cumsum(x)])
    return c[width:] - c[:-width]


def window_variance_max_generic(model, n):
    """max over a of Var(X_{n,a} + ... + X_{n,a+k-1}) at k = max(m_n, 1)
    (at most N_n), summed from the covariance band: the reference for
    models.window_variance_max's closed forms."""
    N = model.length(n)
    k = min(max(model.m(n), 1), N)
    total = _sliding_sum(cov_band(model, n, 0), k)
    for d in range(1, min(model.m(n), k - 1) + 1):
        total = total + 2.0 * _sliding_sum(cov_band(model, n, d), k - d)
    return float(total.max())


def weighted_sum(table, x):
    """E x over the outcomes of an OutcomeTable, x one value per outcome,
    as the pairwise numpy sum of x weighted by the broadcast probabilities:
    the reference for the oracle's probability times a plain sum."""
    return np.sum(table.probs * x)


def enumerated_var_sum(table):
    """Var S_n over the outcomes of an OutcomeTable, from its row sums."""
    s = table.row_sums()
    mu = weighted_sum(table, s)
    return float(weighted_sum(table, (s - mu) ** 2))


def sign_matrix_rows(model, n):
    """The (outcomes, N_n) rows of every outcome of a Rademacher row, from
    one (bits, outcomes) matrix of signs, innovation j of outcome o being
    +1 where (o >> j) & 1 is set, mapped to entries by row_entries all at
    once: the reference for models.enumerate_outcomes, which builds the
    table one variable at a time."""
    bits = linear_row(model, n)[0]
    idx = np.arange(2**bits, dtype=np.uint64)
    signs = np.empty((bits, 2**bits))
    for j, row in enumerate(signs):
        row[:] = (idx >> np.uint64(j)) & np.uint64(1)
    signs *= 2.0
    signs -= 1.0
    return row_entries(model, n, signs.T)


def per_outcome_M(table):
    """M[:, k] = E(S_n | X_1..X_k) on every outcome of an OutcomeTable, as
    one (outcomes, N+1) array: the cells of each prefix from np.unique over
    whole prefixes, and M_k the mean of the row sums S_n over each cell, its
    bincount over the cell's count, gathered per outcome.  The reference for
    trace_M, which gathers M from the trace's one value per cell."""
    rows = table.rows
    n_out, N = rows.shape
    sums = table.row_sums()
    M = np.empty((n_out, N + 1))
    for k in range(N + 1):
        inv = np.zeros(n_out, dtype=np.intp)
        if k > 0:
            inv = np.unique(rows[:, :k], axis=0, return_inverse=True)[1].ravel()
        M[:, k] = (np.bincount(inv, weights=sums) / np.bincount(inv))[inv]
    return M


def trace_M(trace):
    """(outcomes, N+1): M[:, k] = M_k on every outcome, as the trace's
    m_columns() gathers it, copied column by column."""
    return np.stack(list(map(np.copy, trace.m_columns())), axis=1)


def w_slice(trace, k):
    """W[:, :, k] as an (outcomes, N) array whose transpose is C-contiguous,
    from the trace's blocks of it, each copied as it comes."""
    return np.concatenate([block.copy() for _, block in trace.w_blocks(k)]).T


def trace_dM(trace):
    """(outcomes, N): dM[:, k-1] = M_k - M_{k-1} on every outcome."""
    return np.diff(trace_M(trace), axis=1)


def split_rows(threshold, rows):
    """(X', X'') of an array of entries split at threshold, laid out in
    memory as rows is: X'' takes every entry not within the threshold."""
    beyond = ~(np.abs(rows) <= threshold)
    return rows * ~beyond, rows * beyond
