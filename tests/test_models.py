"""Model catalogue: second-moment structure, sampling, enumeration,
truncation."""

import importlib
import inspect
import json
import math
import re
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mdepclt as m
from mdepclt import models
from mdepclt.cli import catalogue
from mdepclt.laws import DiscreteLaw, GaussianLaw
from mdepclt.models import (
    _enumeration_bits,
    _spike_scale,
    row_rng,
)

from conftest import (
    _innovations,
    enumerated_var_sum,
    exact_cov,
    marginal_law,
    row_entries,
    sample_row,
    sign_matrix_rows,
    split_rows,
    window_variance_max_generic,
)

ALPHA = 0.25


def small_catalogue():
    """One representative of every family, enumerable where possible."""
    return [
        (m.build_model("iid-baseline"), 8),
        (m.build_model("two-scale", alpha=ALPHA), 6),
        (m.build_model("block-repeat", m_schedule=2), 8),
        (m.build_model("block-repeat", m_schedule=3, spike_frac=0.5), 9),
        (m.build_model("moving-average", coeffs=(1.0, 0.5)), 7),
        (m.build_model("tail-coupled", m_schedule=2), 9),
    ]


def discrete_catalogue():
    return [(model, n) for model, n in small_catalogue() if model.is_discrete]


# ---------------------------------------------------------------------------
# construction and validation


@pytest.mark.parametrize("alpha", [-0.1, 0.0, 0.5, 0.7])
def test_two_scale_alpha_range(alpha):
    with pytest.raises(m.InvalidParameterError):
        m.build_model("two-scale", alpha=alpha)


def test_build_rejects_unknown_family_and_params():
    with pytest.raises(m.InvalidParameterError):
        m.build_model("stationary")
    with pytest.raises(m.InvalidParameterError):
        m.build_model("iid-baseline", alpha=0.2)
    with pytest.raises(m.InvalidParameterError):
        m.build_model("block-repeat", m_schedule=0)
    with pytest.raises(m.InvalidParameterError):
        m.Schedule("power", 1.2)


def test_build_rejects_non_finite_parameters():
    inf, nan = float("inf"), float("nan")
    with pytest.raises(m.InvalidParameterError):
        m.build_model("two-scale", alpha=nan)
    with pytest.raises(m.InvalidParameterError):
        m.build_model("moving-average", coeffs=(1.0, inf))
    with pytest.raises(m.InvalidParameterError):
        m.build_model("iid-baseline", amplitude=inf)
    with pytest.raises(m.InvalidParameterError):
        m.build_model("block-repeat", spike_frac=nan)
    with pytest.raises(m.InvalidParameterError):
        m.model_from_config({"family": "block-repeat", "m": 2.7})
    with pytest.raises(m.InvalidParameterError):
        m.row_rng(2**64, 8, 0)


def test_parameters_take_numbers_only():
    # inf and nan are not whole numbers, and a bool is an int to Python but
    # not a number in a JSON config
    for value in (math.inf, math.nan, True):
        with pytest.raises(m.InvalidParameterError, match="constant schedule"):
            m.Schedule("constant", value)
    with pytest.raises(m.InvalidParameterError, match="expected Schedule or int"):
        m.build_model("block-repeat", m_schedule=True)
    with pytest.raises(m.InvalidParameterError, match="alpha must be finite"):
        m.build_model("two-scale", alpha="0.25")
    with pytest.raises(m.InvalidParameterError, match="amplitude must be finite"):
        m.build_model("iid-baseline", amplitude=10**400)  # beyond the float range


def test_innovation_is_the_drawn_law():
    assert m.build_model("two-scale", alpha=ALPHA).innovation == "rademacher"
    assert m.build_model("tail-coupled").innovation == "normal"
    assert m.build_model("moving-average", innovation="normal").innovation == "normal"
    assert [mod.is_discrete for mod, _ in small_catalogue()] == [True] * 5 + [False]


def test_family_shapes():
    ts = m.build_model("two-scale", alpha=ALPHA)
    assert ts.m(100) == 1 and ts.length(100) == 100
    iid = m.build_model("iid-baseline")
    assert iid.m(10) == 0
    br = m.build_model("block-repeat", m_schedule=3)
    assert br.length(10) == 9 and br.blocks(10) == 3  # whole blocks only
    tc = m.build_model("tail-coupled", m_schedule=m.Schedule("power", 0.25))
    assert tc.length(16) == 16 + 2 and tc.m(16) == 2
    ma = m.build_model("moving-average", coeffs=(1.0, 0.3, 0.1))
    assert ma.m(50) == 2


# ---------------------------------------------------------------------------
# exact second moments


def test_two_scale_sigma2_closed_form():
    ts = m.build_model("two-scale", alpha=ALPHA)
    for n in (4, 16, 64, 1024):
        assert m.exact_sigma2(ts, n) == pytest.approx(1 + 2 * n ** (-2 * ALPHA), abs=1e-14)
    # n = 16, alpha = 1/4: 1 + 2/4 = 1.5
    assert m.exact_sigma2(ts, 16) == pytest.approx(1.5, abs=1e-15)


def test_tail_coupled_sigma2():
    tc = m.build_model("tail-coupled", m_schedule=2)
    assert m.exact_sigma2(tc, 16) == pytest.approx(20.0, abs=1e-12)  # n + m^2


def test_iid_sigma2_is_one():
    iid = m.build_model("iid-baseline")
    for n in (1, 9, 100):
        assert m.exact_sigma2(iid, n) == pytest.approx(1.0, abs=1e-14)


def test_two_scale_neighbour_covariance():
    # derived by expanding the defining sum: only the shared eta survives,
    # with opposite signs, so the lag-1 covariance is -n^(-2 alpha)
    ts = m.build_model("two-scale", alpha=ALPHA)
    assert exact_cov(ts, 16, 3, 4) == pytest.approx(-(16 ** (-2 * ALPHA)), abs=1e-15)
    assert exact_cov(ts, 16, 3, 4) == pytest.approx(-0.25, abs=1e-15)


def test_block_repeat_same_block_covariance():
    br = m.build_model("block-repeat", m_schedule=3)
    # entries in one block are equal copies of Y_j / m
    assert exact_cov(br, 9, 4, 6) == pytest.approx(1 / 9, abs=1e-15)
    assert exact_cov(br, 9, 3, 4) == 0.0  # adjacent but different blocks


@pytest.mark.parametrize("model,n", small_catalogue())
def test_banded_covariance_beyond_m(model, n):
    N = model.length(n)
    mn = model.m(n)
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if abs(i - j) > mn:
                assert exact_cov(model, n, i, j) == 0.0


@pytest.mark.parametrize("model,n", small_catalogue())
def test_sigma2_equals_covariance_sum(model, n):
    # independent route: sigma^2 = sum of the full covariance matrix
    N = model.length(n)
    total = sum(
        exact_cov(model, n, i, j) for i in range(1, N + 1) for j in range(1, N + 1)
    )
    assert total == pytest.approx(m.exact_sigma2(model, n), rel=1e-12)


# ---------------------------------------------------------------------------
# enumeration oracle


@pytest.mark.parametrize("model,n", discrete_catalogue())
def test_enumeration_matches_closed_forms(model, n):
    table = m.enumerate_outcomes(model, n)
    probs, rows = table.probs, table.rows
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert abs(probs @ table.row_sums()) < 1e-12
    assert enumerated_var_sum(table) == pytest.approx(m.exact_sigma2(model, n), abs=1e-10)
    means = probs @ rows
    assert np.abs(means).max() < 1e-12
    centred = rows - means
    cov = centred.T @ (probs[:, None] * centred)
    N = model.length(n)
    for i in range(1, N + 1):
        for j in range(i, N + 1):
            assert cov[i - 1, j - 1] == pytest.approx(exact_cov(model, n, i, j), abs=1e-12)


@pytest.mark.parametrize("model,n", [*discrete_catalogue(), (m.build_model("two-scale", alpha=ALPHA), 7)])
def test_enumerated_table_is_variable_major_and_uniform(model, n):
    # one (N, outcomes) buffer, one probability: probs is a read-only view
    # of exactly 2^-bits, and the row sums add each row as a C-contiguous
    # row, in blocks of outcomes (several at two-scale n = 7, 2^15 outcomes)
    table = m.enumerate_outcomes(model, n)
    bits = models.linear_row(model, n)[0]
    assert table.columns.flags.c_contiguous and np.shares_memory(table.columns, table.rows)
    assert table.prob == 2.0**-bits
    assert np.all(table.probs == 2.0**-bits) and len(table.probs) == 2**bits
    assert not table.probs.flags.writeable
    want = np.ascontiguousarray(table.rows).sum(axis=1)
    assert table.row_sums().tobytes() == want.tobytes()


def _enumerated_rows():
    """(model, n): every discrete catalogue row, the spiked block-repeat
    row and the benchmark's two-scale config (the catalogue's two-scale
    row), at each n of a fixed list where the row is defined and has at
    most 2^17 outcomes."""
    config = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "two-scale.json"
    spiked = m.build_model("block-repeat", m_schedule=3, spike_frac=0.5)
    rows = [*(mod for mod in catalogue().values() if mod.is_discrete), spiked]
    rows.append(m.model_from_config(json.loads(config.read_text())))
    return [
        (model, n)
        for model in dict.fromkeys(rows)
        for n in (1, 2, 3, 4, 6, 7, 8, 9, 12, 16)
        if not (model is spiked and model.blocks(n) < 2) and models.linear_row(model, n)[0] <= 17
    ]


@pytest.mark.parametrize(
    "model,n", _enumerated_rows(), ids=lambda v: v.describe() if isinstance(v, m.ArrayModel) else str(v)
)
def test_enumeration_is_the_sign_matrix_table_byte_for_byte(model, n):
    # built one variable at a time, the table holds the very bytes of the
    # rows mapped from one matrix of every innovation's signs
    table = m.enumerate_outcomes(model, n)
    want = sign_matrix_rows(model, n)
    assert table.rows.shape == want.shape
    assert table.rows.tobytes() == want.tobytes()
    assert table.columns.flags.c_contiguous


def test_a_table_keeps_rows_in_its_layout():
    # rows laid out outcome-major are copied once into the variable-major
    # buffer, and writes through rows reach it
    table = m.enumerate_outcomes(m.build_model("iid-baseline"), 4)
    copy = m.OutcomeTable(table.n, np.ascontiguousarray(table.rows), table.prob)
    assert copy.columns.flags.c_contiguous and np.array_equal(copy.rows, table.rows)
    copy.rows[3, 1] = 7.0
    assert copy.columns[1, 3] == 7.0


def test_two_scale_outcome_count_and_support():
    ts = m.build_model("two-scale", alpha=ALPHA)
    table = m.enumerate_outcomes(ts, 3)
    assert table.rows.shape == (2 ** (2 * 3 + 1), 3)  # xi_1..3 and eta_0..3
    assert np.allclose(table.probs, 2.0 ** -7)
    # every entry lies in the 6-point support +-1/sqrt(n) + {-2,0,2}/n^alpha
    support = {
        round(s / math.sqrt(3) + d * 3**-ALPHA, 12)
        for s in (-1, 1)
        for d in (-2, 0, 2)
    }
    seen = {round(v, 12) for v in table.rows.ravel()}
    assert seen <= support


def test_iid_enumeration_count():
    table = m.enumerate_outcomes(m.build_model("iid-baseline"), 10)
    assert table.rows.shape[0] == 1024
    assert table.probs.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all(np.abs(table.rows) == pytest.approx(1 / math.sqrt(10)))


def test_block_repeat_rows_are_blockwise_constant():
    br = m.build_model("block-repeat", m_schedule=3)
    table = m.enumerate_outcomes(br, 6)
    rows = table.rows
    assert rows.shape == (4, 6)
    assert np.array_equal(rows[:, 0], rows[:, 1]) and np.array_equal(rows[:, 1], rows[:, 2])
    assert np.array_equal(rows[:, 3], rows[:, 4]) and np.array_equal(rows[:, 4], rows[:, 5])


def test_enumeration_rejects_continuous_and_large():
    with pytest.raises(m.ContinuousModelError):
        m.enumerate_outcomes(m.build_model("tail-coupled", m_schedule=2), 8)
    with pytest.raises(m.ContinuousModelError):
        m.enumerate_outcomes(m.build_model("block-repeat", m_schedule=2, innovation="normal"), 8)
    with pytest.raises(m.EnumerationTooLargeError):
        m.enumerate_outcomes(m.build_model("iid-baseline"), 23)


def test_enumeration_cap_is_checked_on_the_exponent():
    # 2^bits is never built, so a huge n is rejected at once
    iid = m.build_model("iid-baseline")
    assert _enumeration_bits(iid, 22) == 22
    for n in (23, 2**62):
        with pytest.raises(m.EnumerationTooLargeError):
            _enumeration_bits(iid, n)


# ---------------------------------------------------------------------------
# sampling


@pytest.mark.parametrize("model,n", small_catalogue())
def test_sampling_is_deterministic(model, n):
    a = sample_row(model, n, seed=7, replicate=3)
    b = sample_row(model, n, seed=7, replicate=3)
    assert np.array_equal(a, b)
    c = sample_row(model, n, seed=7, replicate=4)
    assert not np.array_equal(a, c)
    d = sample_row(model, n, seed=8, replicate=3)
    assert not np.array_equal(a, d)


def test_sample_length_matches_schedule():
    for model, n in small_catalogue():
        assert sample_row(model, n, seed=0).shape == (model.length(n),)


def test_iid_rademacher_magnitudes():
    iid = m.build_model("iid-baseline")
    row = sample_row(iid, 9, seed=0)
    assert np.allclose(np.abs(row), 1 / 3)


def test_block_repeat_sample_blocks():
    br = m.build_model("block-repeat", m_schedule=3, innovation="normal")
    row = sample_row(br, 6, seed=5)
    assert row[0] == row[1] == row[2] and row[3] == row[4] == row[5]


def test_two_scale_sample_support():
    ts = m.build_model("two-scale", alpha=ALPHA)
    row = sample_row(ts, 4, seed=11)
    support = {
        round(s / 2.0 + d * 4**-ALPHA, 12) for s in (-1, 1) for d in (-2, 0, 2)
    }
    assert {round(v, 12) for v in row} <= support


@pytest.mark.parametrize("size", [1, 63, 64, 65, 2 * 100 + 1])
def test_rademacher_signs_are_the_raw_bits_little_endian(size):
    # sign i is +1 exactly when bit i % 64 of raw Philox word i // 64 is set
    words = row_rng(5, 100, 2).bit_generator.random_raw(-(-size // 64))
    expected = [1.0 if int(words[i // 64]) >> (i % 64) & 1 else -1.0 for i in range(size)]
    signs = _innovations(row_rng(5, 100, 2), "rademacher", size)
    assert signs.dtype == np.float64
    assert signs.tolist() == expected


def test_two_scale_row_draws_its_signs_from_the_raw_stream():
    ts = m.build_model("two-scale", alpha=ALPHA)
    n = 100
    words = row_rng(3, n, 1).bit_generator.random_raw(4)
    bits = [int(words[i // 64]) >> (i % 64) & 1 for i in range(2 * n + 1)]
    innov = np.array(bits, dtype=float) * 2.0 - 1.0
    row = sample_row(ts, n, seed=3, replicate=1)
    assert np.array_equal(row, row_entries(ts, n, innov))


def _factor_one_rows():
    # amplitude * scale is 1.0 here, so an entry can be an innovation itself
    cases = [
        (m.build_model("block-repeat", m_schedule=1), 1),
        (m.build_model("block-repeat", m_schedule=1), 16),
        (m.build_model("block-repeat", m_schedule=1, innovation="normal"), 1),
        (m.build_model("tail-coupled", m_schedule=2), 1),
        (m.build_model("tail-coupled", m_schedule=2), 16),
        (m.build_model("iid-baseline"), 1),
    ]
    return [pytest.param(model, n, id=f"{model.describe()}-{n}") for model, n in cases]


@pytest.mark.parametrize("model,n", small_catalogue() + _factor_one_rows())
def test_row_map_leaves_the_innovations_alone(model, n):
    # the sampled rows and the enumeration reference rely on this: a row
    # never aliases, nor writes to, the innovations it is mapped from
    rng = np.random.default_rng(n)
    innov = rng.standard_normal((3, models.linear_row(model, n)[0]))
    kept = innov.copy()
    rows = row_entries(model, n, innov)
    row = row_entries(model, n, innov[1])
    assert np.array_equal(innov, kept)
    assert not np.shares_memory(rows, innov) and not np.shares_memory(row, innov)
    assert np.array_equal(rows[1], row)


@pytest.mark.parametrize(
    "model,n",
    [
        (m.build_model("two-scale", alpha=0.3), 512),
        (m.build_model("tail-coupled", m_schedule=m.Schedule("power", 0.25)), 512),
        (m.build_model("moving-average", coeffs=(1.0, 0.5), innovation="normal"), 512),
    ],
)
def test_monte_carlo_variance_matches_exact(model, n):
    reps = 3000
    sums = np.array(
        [sample_row(model, n, seed=123, replicate=r).sum() for r in range(reps)]
    )
    target = m.exact_sigma2(model, n)
    est = sums @ sums / reps  # mean is exactly 0 in expectation
    se = np.std(sums**2, ddof=1) / math.sqrt(reps)
    assert abs(est - target) <= 4 * se


# ---------------------------------------------------------------------------
# truncation split


@pytest.mark.parametrize("model,n", discrete_catalogue())
def test_truncation_algebra_on_enumeration(model, n):
    table = m.enumerate_outcomes(model, n)
    split = m.truncated_model(model, n, eps=0.4)
    x_lo, x_hi = split_rows(split, table.rows)
    assert np.array_equal(x_lo + x_hi, table.rows)  # exact recovery
    assert np.max(np.abs(table.probs @ x_lo)) < 1e-12
    assert np.max(np.abs(table.probs @ x_hi)) < 1e-12
    # bounded part obeys the doubled threshold
    assert np.abs(x_lo).max() <= 2 * split.threshold + 1e-15


def test_truncation_threshold_above_support_keeps_everything():
    iid = m.build_model("iid-baseline")
    table = m.enumerate_outcomes(iid, 4)
    eps = 10.0  # threshold far above max |X| = 1/2
    split = m.truncated_model(iid, 4, eps)
    x_lo, x_hi = split_rows(split, table.rows)
    assert np.array_equal(x_lo, table.rows)
    assert not x_hi.any()


def test_truncation_threshold_below_support_moves_everything():
    # Rademacher atoms above the threshold: mu = 0 by symmetry, X' vanishes
    iid = m.build_model("iid-baseline")
    table = m.enumerate_outcomes(iid, 4)
    split = m.truncated_model(iid, 4, eps=0.1)  # threshold 0.1 < 1/2
    x_lo, x_hi = split_rows(split, table.rows)
    assert not x_lo.any()
    assert np.array_equal(x_hi, table.rows)


@pytest.mark.parametrize(
    "model",
    list(catalogue().values())
    + [
        m.build_model("block-repeat", m_schedule=3, spike_frac=0.5),
        m.build_model("moving-average", coeffs=(1.0, -0.5, 0.25), amplitude=2.5),
        m.build_model("block-repeat", innovation="normal", m_schedule=2),
    ],
    ids=lambda model: model.describe(),
)
def test_every_entry_law_is_symmetric(model):
    # why the truncation split needs no centring: E[X 1{|X| <= t}] = 0 for
    # a symmetric law and a window symmetric around 0
    for n in (6, 9, 64, 1000):
        for _, law in m.marginal_law_groups(model, n):
            if isinstance(law, DiscreteLaw):
                assert np.array_equal(law.values, -law.values[::-1])
                assert np.array_equal(law.probs, law.probs[::-1])
            else:
                assert isinstance(law, GaussianLaw)


def test_truncation_requires_positive_eps():
    with pytest.raises(m.InvalidParameterError):
        m.truncated_model(m.build_model("iid-baseline"), 4, 0.0)


# ---------------------------------------------------------------------------
# scaling, spike, config


@given(st.floats(0.1, 10.0))
@settings(max_examples=25, deadline=None)
def test_amplitude_scales_sigma(c):
    ts = m.build_model("two-scale", alpha=ALPHA)
    scaled = m.build_model("two-scale", alpha=ALPHA, amplitude=c)
    assert m.exact_sigma2(scaled, 32) == pytest.approx(
        c * c * m.exact_sigma2(ts, 32), rel=1e-12
    )


def test_spike_fraction_of_variance():
    br = m.build_model("block-repeat", m_schedule=1, spike_frac=0.9)
    n = 64
    s2 = m.exact_sigma2(br, n)
    spike_var = _spike_scale(br, n) ** 2
    assert spike_var / s2 == pytest.approx(0.9, rel=1e-12)


def test_window_variance_max_tail_coupled():
    # the shared tail variable makes a window of length m have variance m^2
    tc = m.build_model("tail-coupled", m_schedule=4)
    assert m.window_variance_max(tc, 64) == pytest.approx(16.0, abs=1e-12)
    # m_n = 0 is floored at 1: one entry of variance 1/n
    iid = m.build_model("iid-baseline")
    assert m.window_variance_max(iid, 64) == pytest.approx(1 / 64, rel=1e-12)


@pytest.mark.parametrize(
    "model,n,k",
    [
        (m.build_model("iid-baseline", innovation="normal"), 50, 1),
        (m.build_model("two-scale", alpha=0.3), 40, 1),
        (m.build_model("two-scale", alpha=0.05), 17, 1),
        (m.build_model("moving-average", coeffs=(1.0, 0.5, 0.2)), 60, 2),
        (m.build_model("moving-average", coeffs=(1.0, -0.5, 0.2), innovation="normal"), 60, 2),
        (m.build_model("block-repeat", m_schedule=3, spike_frac=0.6), 30, 3),
        (m.build_model("moving-average", coeffs=(1.0,) * 24), 40, 23),
        (m.build_model("tail-coupled", m_schedule=4), 40, 4),
        (m.build_model("block-repeat", innovation="normal", m_schedule=m.Schedule("power", 0.5), spike_frac=0.3), 64, 8),
        (m.build_model("block-repeat", m_schedule=3, spike_frac=0.05), 30, 3),
        (m.build_model("block-repeat", m_schedule=m.Schedule("log"), spike_frac=0.9), 100, 4),
        (m.build_model("tail-coupled", m_schedule=4), 2, 4),  # the tail outnumbers the row
        (m.build_model("iid-baseline"), 50, 1),
        (m.build_model("block-repeat", m_schedule=5), 3, 5),  # one block, m_n > n
        (m.build_model("tail-coupled", m_schedule=m.Schedule("power", 0.25)), 256, 4),
        (m.build_model("tail-coupled", m_schedule=m.Schedule("log")), 100, 4),
        (m.build_model("block-repeat", m_schedule=3), 30, 3),
    ],
)
def test_window_variance_fast_paths_match_generic(model, n, k):
    # k is the window the row takes, max(m_n, 1) up to N_n, stated per case
    assert min(max(model.m(n), 1), model.length(n)) == k
    got, ref = m.window_variance_max(model, n), window_variance_max_generic(model, n)
    assert got == pytest.approx(ref, abs=1e-12)
    # and relatively, for the windows far below 1 (iid at n = 50 is 0.02)
    assert got == pytest.approx(ref, rel=1e-12, abs=0)


def test_window_variance_raises_on_a_row_no_closed_form_covers(monkeypatch):
    # two single-tap segments that repeat once, below m_n = 2: neither a
    # block of k = 2 entries nor a stationary row
    br = m.build_model("block-repeat", m_schedule=2)
    monkeypatch.setattr(models, "linear_row", lambda model, n: (4, 1.0, ((2, ((0, 1.0),), 1), (2, ((2, 2.0),), 1))))
    with pytest.raises(m.InvalidParameterError, match=re.escape(f"{br.describe()} at n=8: no closed form")):
        m.window_variance_max(br, 8)


@pytest.mark.parametrize(
    "model,_n",
    small_catalogue()
    + [
        (m.build_model("tail-coupled", m_schedule=m.Schedule("log")), None),
        (
            m.build_model(
                "block-repeat",
                innovation="normal",
                m_schedule=m.Schedule("power", 0.25),
                spike_frac=0.4,
            ),
            None,
        ),
        (m.build_model("iid-baseline", amplitude=2.5), None),
    ],
)
def test_config_round_trip(model, _n):
    cfg = m.model_to_config(model)
    back = m.model_from_config(cfg)
    assert back == model


@pytest.mark.parametrize(
    "model, text, config, ms, innovation",
    [
        (
            m.build_model(
                "block-repeat", m_schedule=m.Schedule("log"), innovation="normal", spike_frac=0.5
            ),
            "block-repeat(normal, m=floor(ln n), spike=0.5)",
            {"family": "block-repeat", "innovation": "normal", "m_kind": "log", "spike_frac": 0.5},
            [1, 1, 2, 6],
            "normal",
        ),
        (
            m.build_model("moving-average", coeffs=(1.0, -0.5, 0.25), innovation="normal"),
            "moving-average(coeffs=(1.0, -0.5, 0.25), normal)",
            {"family": "moving-average", "innovation": "normal", "coeffs": [1.0, -0.5, 0.25]},
            [2, 2, 2, 2],
            "normal",
        ),
        (
            m.build_model("tail-coupled"),
            "tail-coupled(m=floor(n^0.25))",
            {"family": "tail-coupled", "beta": 0.25},
            [1, 1, 2, 5],
            "normal",
        ),
        (
            m.build_model("two-scale", alpha=0.3),
            "two-scale(alpha=0.3)",
            {"family": "two-scale", "alpha": 0.3},
            [1, 1, 1, 1],
            "rademacher",
        ),
        (
            m.build_model("iid-baseline", amplitude=2.5),
            "iid-baseline(rademacher)",
            {"family": "iid-baseline", "amplitude": 2.5},
            [0, 0, 0, 0],
            "rademacher",
        ),
    ],
    ids=["spiked-normal-block-repeat-log", "normal-ma3", "tail-coupled", "two-scale", "iid-amplitude"],
)
def test_family_table_reproduces_each_view(model, text, config, ms, innovation):
    # the one parameter table drives describe(), the config, m_n and the
    # innovation law; a config never carries a value the family fixes
    assert model.describe() == text
    assert m.model_to_config(model) == config
    assert list(m.model_to_config(model)) == list(config)  # key order reaches the JSON
    assert [model.m(n) for n in (1, 7, 16, 1000)] == ms
    assert model.innovation == innovation


def test_family_branches_stay_few():
    # README's count: the four linear_row arms, ArrayModel.blocks and the
    # two-scale increment law; every other family fact comes from the table
    pattern = re.compile(r'(fam|family) [!=]= "')
    lines = [
        line
        for path in sorted(Path(models.__file__).parent.glob("*.py"))
        for line in path.read_text().splitlines()
        if pattern.search(line)
    ]
    assert len(lines) <= 6, lines


#: the package's public names, pinned: adding or removing one is a
#: deliberate change of the library surface
EXPORTS = """
    ArrayModel CheckResult ConditionReport ConditionValue ContinuousModelError
    ConvergenceReport DegenerateVarianceError ENUMERATION_CAP EmpiricalDistribution
    EnumerationTooLargeError HHReport HypothesisViolationError InsufficientGridError
    InvalidParameterError MartingaleTrace OutcomeTable SAMPLE_CAP SampleTooLargeError
    Schedule TruncationSplit UnsupportedFamilyError asymptotic_verdict berk_check
    build_model build_trace check_bounds check_hh_hypotheses check_structure
    check_tower check_truncation component_reports condition_report
    convergence_sweep enumerate_outcomes exact_sigma2 holds kolmogorov_band
    ks_statistic lindeberg_classic lindeberg_mdep lyapunov_ratio
    marginal_law_groups model_from_config model_to_config orey_ratio
    rio_functional romano_wolf_check row_rng simulate_normalized_sums trace_summary
    truncated_model window_variance_max
""".split()


def test_every_exported_name_has_a_program_caller():
    # a public name that only the tests call is surface to delete: each name
    # mdepclt exports is used in src/ (its own def or class line aside) or
    # in a demo
    exported = list(m._EXPORTS)
    assert sorted(exported) == sorted(EXPORTS) and len(EXPORTS) == 52
    src = Path(models.__file__).parent
    paths = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
    used = {
        word
        for path in paths
        for line in path.read_text().splitlines()
        for word in re.findall(r"\w+", re.sub(r"^\s*(def|class) \w+", "", line))
    }
    assert [name for name in exported if name not in used] == []


def test_package_exports_resolve_to_their_defining_modules():
    for name, module in m._EXPORTS.items():
        home = importlib.import_module(f"mdepclt.{module}")
        assert getattr(m, name) is vars(home)[name], name
        assert getattr(vars(home)[name], "__module__", home.__name__) == home.__name__, name
    assert sorted(m.__all__) == sorted(EXPORTS)
    assert set(EXPORTS) <= set(dir(m))
    assert m.models is models and m.models.build_model is m.build_model
    with pytest.raises(AttributeError, match="no_such_name"):
        m.no_such_name


def _defined_functions(module):
    """The functions a module defines, with the methods of its classes."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members = vars(obj).values() if inspect.isclass(obj) else [obj]
        for member in members:
            member = getattr(member, "__func__", getattr(member, "fget", member))
            if callable(member) and not inspect.isclass(member):
                yield member


@pytest.mark.parametrize(
    "name", [p.stem for p in sorted(Path(models.__file__).parent.glob("*.py")) if p.stem != "__init__"]
)
def test_every_annotation_resolves(name):
    # annotations are strings (from __future__ import annotations), read
    # in the module's globals: a name imported only inside a function
    # does not resolve there
    functions = list(_defined_functions(importlib.import_module(f"mdepclt.{name}")))
    assert functions
    for func in functions:
        typing.get_type_hints(func)


@pytest.mark.parametrize(
    "model",
    [
        *catalogue().values(),
        m.model_from_config({"family": "block-repeat", "beta": 0.25, "spike_frac": 0.9}),
        m.build_model("moving-average", coeffs=(1.0, -1.0, 0.5)),
    ],
    ids=lambda model: model.describe(),
)
@pytest.mark.parametrize("n", [2, 7, 64, 1000])
def test_sum_weight_groups_are_nonzero_and_add_up_to_sigma2(model, n):
    # two-scale's eta_1..eta_{n-1} cancel, and in MA (1, -1, .5) the taps
    # 1 and -1 alone reach zeta_{n-1}: such innovations are no group of S_n
    groups = models.sum_weight_groups(model, n)
    assert groups and all(w != 0.0 for _, w in groups)
    a = model.amplitude * models.linear_row(model, n)[1]
    assert a * a * sum(c * w * w for c, w in groups) == models.exact_sigma2(model, n)


def test_schedule_describe():
    assert m.Schedule("constant", 3).describe() == "m=3"
    assert m.Schedule("power", 0.25).describe() == "m=floor(n^0.25)"
    assert m.Schedule("log").describe() == "m=floor(ln n)"


def test_config_rejects_unknown_keys():
    with pytest.raises(m.InvalidParameterError):
        m.model_from_config({"family": "iid-baseline", "frobnicate": 1})
    with pytest.raises(m.InvalidParameterError):
        m.model_from_config({"alpha": 0.25})


# ---------------------------------------------------------------------------
# the linear declaration


def _discrete_enumerable():
    from test_martingale import oracle_models

    return (
        discrete_catalogue()
        + oracle_models()
        + [(m.build_model("moving-average", coeffs=(1.0, 0.3, 0.3)), 5)]
    )


@pytest.mark.parametrize("model,n", _discrete_enumerable())
def test_marginal_atoms_are_the_enumerated_values(model, n):
    # the oracle partitions outcomes on exact row values, so entries equal
    # in exact arithmetic must be bit-equal and match the law's atoms
    rows = m.enumerate_outcomes(model, n).rows
    for i in range(rows.shape[1]):
        values = np.unique(rows[:, i])
        assert np.all(np.diff(values) > 1e-12), (i, values)
        assert np.array_equal(values, marginal_law(model, n, i + 1).values), i


@st.composite
def linear_models(draw):
    family = draw(st.sampled_from(m.models.FAMILIES))
    params = {"amplitude": draw(st.floats(0.25, 4.0))}
    innovation = draw(st.sampled_from(m.models.INNOVATIONS))
    mn = draw(st.integers(1, 3))
    if family == "two-scale":
        params["alpha"] = draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
        n = draw(st.integers(1, 5))
    elif family == "block-repeat":
        params.update(m_schedule=mn, innovation=innovation)
        params["spike_frac"] = draw(st.sampled_from([0.0, draw(st.floats(0.05, 0.95))]))
        n = draw(st.integers(2 * mn, 9))
    elif family == "tail-coupled":
        params["m_schedule"] = mn
        n = draw(st.integers(1, 8))
    elif family == "moving-average":
        tap = st.builds(lambda s, c: s * c, st.sampled_from([-1.0, 1.0]), st.floats(0.05, 2.0))
        coeffs = draw(st.lists(st.one_of(tap, st.just(0.0)), min_size=0, max_size=2))
        params.update(coeffs=(draw(tap), *coeffs), innovation=innovation)
        n = draw(st.integers(1, 7))
    else:
        params["innovation"] = innovation
        n = draw(st.integers(1, 8))
    return m.build_model(family, **params), n


@given(linear_models())
@example(
    # covariance entries near 125, where a pairwise-summed product over
    # the 512 outcomes is off by 1.25e-12
    (m.build_model("block-repeat", amplitude=3.950544581567851, m_schedule=1, spike_frac=0.5), 9)
)
@settings(max_examples=60, deadline=None)
def test_declaration_second_moments_agree(case):
    model, n = case
    N = model.length(n)
    cov = np.array(
        [[exact_cov(model, n, i, j) for j in range(1, N + 1)] for i in range(1, N + 1)]
    )
    sigma2 = m.exact_sigma2(model, n)
    assert sigma2 == pytest.approx(cov.sum(), rel=1e-12)
    if model.is_discrete:
        table = m.enumerate_outcomes(model, n)
        assert enumerated_var_sum(table) == pytest.approx(sigma2, abs=1e-10)
        probs, rows = table.probs, table.rows
        # fsum over the outcomes: the tolerance is absolute and entries reach ~1e2
        centred = rows - [math.fsum(probs * col) for col in rows.T]
        for i in range(1, N + 1):
            for j in range(i, N + 1):
                enum_cov = math.fsum(probs * centred[:, i - 1] * centred[:, j - 1])
                assert enum_cov == pytest.approx(cov[i - 1, j - 1], abs=1e-12)


@given(linear_models())
@settings(max_examples=60, deadline=None)
def test_single_tap_segments_draw_disjoint_innovations(case):
    # the closed-form increments and window variances of single-tap rows
    # rest on this: every block is one innovation times c != 0, and no two
    # blocks share an innovation
    model, n = case
    total, _, segments = m.models.linear_row(model, n)
    if any(len(taps) != 1 for _, taps, _ in segments):
        return
    spans = []
    for count, ((j, c),), repeat in segments:
        assert c != 0.0 and count % repeat == 0
        spans.append((j, j + count // repeat))
    spans.sort()
    assert 0 <= spans[0][0] and spans[-1][1] <= total
    assert all(hi <= lo for (_, hi), (lo, _) in zip(spans, spans[1:]))


@pytest.mark.parametrize(
    "call",
    [m.exact_sigma2, lambda model, n: model.length(n), sample_row],
    ids=["exact_sigma2", "length", "sample_row"],
)
def test_spiked_block_repeat_with_one_block_is_rejected(call):
    # block 1 carries spike_frac of Var S_n only against other blocks
    br = m.build_model("block-repeat", m_schedule=8, spike_frac=0.5)
    with pytest.raises(m.InvalidParameterError, match="at least 2 blocks"):
        call(br, 8)


# ---------------------------------------------------------------------------
# the per-(model, n) caches of exact_sigma2 and marginal_law_groups

CACHED = (m.exact_sigma2, m.marginal_law_groups)


def _same_laws(groups, expected):
    assert len(groups) == len(expected)
    for (count, law), (want_count, want) in zip(groups, expected):
        assert count == want_count and type(law) is type(want)
        if isinstance(law, DiscreteLaw):
            assert law.values.tobytes() == want.values.tobytes()
            assert law.probs.tobytes() == want.probs.tobytes()
        else:
            assert law == want


def test_cached_values_are_the_recomputed_ones_bit_for_bit():
    from mdepclt.cli import SWEEP_N_GRID

    for model in catalogue().values():
        for n in SWEEP_N_GRID:
            s2 = m.exact_sigma2(model, n)
            assert s2.hex() == m.exact_sigma2.__wrapped__(model, n).hex()
            assert s2 is m.exact_sigma2(model, n)
            groups = m.marginal_law_groups(model, n)
            assert isinstance(groups, tuple) and groups is m.marginal_law_groups(model, n)
            _same_laws(groups, m.marginal_law_groups.__wrapped__(model, n))


@pytest.mark.parametrize("i", range(len(small_catalogue())))
def test_equal_models_share_one_cache_entry(i):
    (model, n), (rebuilt, _) = small_catalogue()[i], small_catalogue()[i]
    round_trip = models.model_from_config(models.model_to_config(model))
    for twin in (rebuilt, round_trip):
        assert twin == model and hash(twin) == hash(model)
    for fn in CACHED:
        fn.cache_clear()
        for twin in (model, rebuilt, round_trip):
            fn(twin, n)
        assert (fn.cache_info().misses, fn.cache_info().hits) == (1, 2)


@pytest.mark.parametrize(
    "base, changed",
    [
        (dict(family="two-scale", alpha=0.25), dict(alpha=0.3)),
        (dict(family="moving-average", coeffs=(1.0, 0.5)), dict(coeffs=(1.0, 0.25))),
        (dict(family="block-repeat", m_schedule=2), dict(m_schedule=4)),
        (dict(family="block-repeat", m_schedule=2), dict(spike_frac=0.5)),
        (dict(family="iid-baseline"), dict(innovation="normal")),
    ],
)
def test_models_one_parameter_apart_get_their_own_entries(base, changed):
    a = m.build_model(**base)
    b = m.build_model(**{**base, **changed})
    assert a != b
    for fn in CACHED:
        fn.cache_clear()
        for model in (a, b, a):
            fn(model, 16)
        assert (fn.cache_info().misses, fn.cache_info().hits) == (2, 1)
    assert m.marginal_law_groups(a, 16) is not m.marginal_law_groups(b, 16)


@given(linear_models())
@settings(max_examples=60, deadline=None)
def test_hash_agrees_with_equality(case):
    model, _ = case
    twin = models.model_from_config(models.model_to_config(model))
    assert twin == model and hash(twin) == hash(model)


def test_a_cached_law_cannot_be_written_in_place():
    law = m.marginal_law_groups(m.build_model("two-scale", alpha=ALPHA), 64)[0][1]
    for arr in (law.values, law.probs):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2.0
    assert law.probs.sum() == 1.0
