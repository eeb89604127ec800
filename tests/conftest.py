"""Shared pytest plumbing: collected acceptance lines are echoed in the
terminal summary so each criterion shows one pass/fail line.  Also the
independent references the tests compare the library against: a whole
sampled row, the law of one entry and one covariance."""

from __future__ import annotations

import numpy as np

from mdepclt.models import _innovation_count, _row_entries, _tap_law, cov_band, linear_row, row_rng

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
    return _innovations(rng, model.innovation, _innovation_count(model, n))


def sample_row(model, n, seed=0, replicate=0):
    """Row n as the entries of the innovations drawn from row_rng(seed, n,
    replicate): the whole-row reference for the Monte Carlo's direct draws
    of S_n, which never build a row."""
    return _row_entries(model, n, draw_innovations(model, n, row_rng(seed, n, replicate)))


def marginal_law(model, n, i):
    """Exact law of the entry X_{n,i}, i = 1..N_n, from the segment that holds it."""
    _, scale, segments = linear_row(model, n)
    for count, taps, _ in segments:
        if i <= count:
            return _tap_law(model, model.amplitude * scale, tuple(c for _, c in taps))
        i -= count
    raise IndexError("the entry index lies past the row")


def exact_cov(model, n, i, j):
    """Cov(X_{n,i}, X_{n,j}), i, j = 1..N_n, read from the band at lag |i - j|."""
    return float(cov_band(model, n, abs(i - j))[min(i, j) - 1])
