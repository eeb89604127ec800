"""Monte Carlo lab: KS statistic, reproducibility, moment sanity."""

import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import norm

import mdepclt as m
from mdepclt import cli
from mdepclt import montecarlo as mc
from mdepclt.montecarlo import report_to_dict

from conftest import sample_row


def test_simulation_reproducible_and_sorted():
    ts = m.build_model("two-scale", alpha=0.25)
    a = m.simulate_normalized_sums(ts, 128, reps=300, seed=4)
    b = m.simulate_normalized_sums(ts, 128, reps=300, seed=4)
    assert np.array_equal(a.samples, b.samples)
    assert np.all(np.diff(a.samples) >= 0)
    c = m.simulate_normalized_sums(ts, 128, reps=300, seed=5)
    assert not np.array_equal(a.samples, c.samples)


def test_simulation_prefix_stability():
    # replicate r is the same draw no matter how many replicates are run,
    # on rows of one weight group and of several: every group has its own
    # stream, so its first draws do not depend on the batch size
    for model in (
        m.build_model("iid-baseline"),
        m.build_model("two-scale", alpha=0.25),
        m.build_model("block-repeat", m_schedule=1, spike_frac=0.9),
        m.build_model("tail-coupled"),
    ):
        short = m.simulate_normalized_sums(model, 64, reps=150, seed=9)
        long = m.simulate_normalized_sums(model, 64, reps=300, seed=9)
        assert Counter(np.round(short.samples, 12)) <= Counter(np.round(long.samples, 12)), model.describe()


def test_simulation_rejects_tiny_reps():
    with pytest.raises(ValueError):
        m.simulate_normalized_sums(m.build_model("iid-baseline"), 16, reps=10)


def test_simulation_rejects_reps_beyond_the_sample_cap(monkeypatch):
    # unchecked, the replicate array of 10^15 floats ends in a MemoryError
    def row_rng(*args, **kwargs):
        raise AssertionError("built a stream before the reps check")

    monkeypatch.setattr(mc, "row_rng", row_rng)
    with pytest.raises(ValueError, match=f"reps must be <= {m.SAMPLE_CAP}"):
        m.simulate_normalized_sums(m.build_model("iid-baseline"), 64, reps=10**15)


def test_iid_n1_samples_are_signs():
    iid = m.build_model("iid-baseline")
    emp = m.simulate_normalized_sums(iid, 1, reps=200, seed=0)
    assert set(np.unique(emp.samples)) == {-1.0, 1.0}


@pytest.mark.parametrize(
    "model",
    [
        m.build_model("two-scale", alpha=0.25),
        m.build_model("block-repeat", m_schedule=2, innovation="normal"),
        m.build_model("moving-average", coeffs=(1.0, 0.5)),
    ],
    ids=lambda mod: mod.family,
)
def test_moment_sanity(model):
    # E S/sigma = 0 and Var = 1 exactly, so the sample moments must sit
    # within standard Monte Carlo bands
    reps = 2000
    emp = m.simulate_normalized_sums(model, 256, reps=reps, seed=11)
    assert abs(emp.samples.mean()) <= 4 / math.sqrt(reps)
    assert abs(emp.samples.var() - 1.0) <= 4 * math.sqrt(2 / reps)


def _ks_to_enumerated_law(model, n, draws):
    """KS distance between draws of S_n/sigma_n and the law of S_n/sigma_n
    enumerated outcome by outcome; the band is distribution-free and
    conservative for a lattice law."""
    table = m.enumerate_outcomes(model, n)
    sums = table.row_sums() / math.sqrt(m.exact_sigma2(model, n))
    order = np.argsort(sums)
    atoms, cdf = sums[order], np.cumsum(table.probs[order])
    # both CDFs step only at the atoms; 1e-9 absorbs summation-order rounding
    right = atoms + 1e-9
    exact = cdf[np.searchsorted(atoms, right, side="right") - 1]
    emp = np.searchsorted(np.sort(draws), right, side="right") / len(draws)
    return float(np.abs(emp - exact).max())


def _two_sample_ks(a, b):
    """sup |F_a - F_b|, both evaluated 1e-9 right of every point, so an
    atom rounded differently on the two sides is still one atom."""
    a, b = np.sort(a), np.sort(b)
    x = np.concatenate([a, b]) + 1e-9
    fa = np.searchsorted(a, x, side="right") / len(a)
    fb = np.searchsorted(b, x, side="right") / len(b)
    return float(np.abs(fa - fb).max())


def _row_sums(model, n, reps, seed):
    sigma = math.sqrt(m.exact_sigma2(model, n))
    return np.array([sample_row(model, n, seed=seed, replicate=r).sum() for r in range(reps)]) / sigma


def test_two_scale_row_sums_follow_the_enumerated_law():
    # sampled rows (2^17 outcomes at n = 8), at the confidence the
    # benchmark gate uses
    ts = m.build_model("two-scale", alpha=0.25)
    n, reps = 8, 4000
    ks = _ks_to_enumerated_law(ts, n, _row_sums(ts, n, reps, seed=2))
    assert ks <= m.kolmogorov_band(reps, 1 - 1e-6)


@pytest.mark.parametrize(
    "model,n",
    [
        (m.build_model("two-scale", alpha=0.25), 8),
        (m.build_model("moving-average", coeffs=(1.0, 0.5), amplitude=3.0), 12),
        (m.build_model("block-repeat", m_schedule=1, spike_frac=0.9), 16),
        (m.build_model("iid-baseline", amplitude=0.5), 16),
    ],
    ids=["two-scale", "moving-average", "spiked-block-repeat", "iid-baseline"],
)
def test_direct_draws_follow_the_enumerated_law(model, n):
    # every weight group and its binomial size enter S_n/sigma_n: dropping
    # one, or drawing Bin(c - 1, 1/2), moves the law by far more than the
    # band; amplitudes other than 1 check that a = amplitude * scale cancels
    reps = 4000
    emp = m.simulate_normalized_sums(model, n, reps, seed=5)
    assert _ks_to_enumerated_law(model, n, emp.samples) <= m.kolmogorov_band(reps, 1 - 1e-6)


@pytest.mark.parametrize(
    "model,n",
    [
        (m.build_model("tail-coupled", m_schedule=8, amplitude=2.0), 64),
        (m.build_model("block-repeat", m_schedule=2, innovation="normal", spike_frac=0.5, amplitude=2.0), 64),
    ],
    ids=["tail-coupled", "normal-block-repeat"],
)
def test_gaussian_direct_draws_are_standard_normal(model, n):
    # a Gaussian S_n/sigma_n is exactly standard normal, whatever the
    # weights and the amplitude
    reps = 4000
    emp = m.simulate_normalized_sums(model, n, reps, seed=5)
    assert m.ks_statistic(emp) <= m.kolmogorov_band(reps, 1 - 1e-6)


@pytest.mark.parametrize(
    "model",
    [
        m.build_model("two-scale", alpha=0.25),
        m.build_model("block-repeat", m_schedule=1, spike_frac=0.9),
        m.build_model("tail-coupled"),
    ],
    ids=["two-scale", "spiked-block-repeat", "tail-coupled"],
)
def test_row_sums_and_direct_draws_agree_in_law(model):
    # whole rows stay an independent check of the direct draws at a size
    # enumeration cannot reach; the seeds differ so the samples are
    # independent (under one seed, replicate g of the rows and weight group
    # g of the direct draws read the same stream), and sqrt(2) widens the
    # band to two samples
    n, reps = 2**10, 2000
    rows = _row_sums(model, n, reps, seed=1)
    direct = m.simulate_normalized_sums(model, n, reps, seed=2).samples
    assert _two_sample_ks(rows, direct) <= math.sqrt(2) * m.kolmogorov_band(reps, 1 - 1e-6)


def test_weight_group_g_is_drawn_from_stream_g():
    # the stream contract: nonzero weight group g of a Rademacher row draws
    # all reps binomials from row_rng(seed, n, g), and a Gaussian row draws
    # all reps normals from row_rng(seed, n, 0)
    n, reps, seed = 256, 150, 4
    ts = m.build_model("two-scale", alpha=0.25)
    groups = m.models.sum_weight_groups(ts, n)
    assert len(groups) == 3
    sums = sum(w * (2 * m.row_rng(seed, n, g).binomial(c, 0.5, reps) - c) for g, (c, w) in enumerate(groups))
    expected = np.sort(sums / math.sqrt(sum(c * w * w for c, w in groups)))
    assert np.array_equal(m.simulate_normalized_sums(ts, n, reps, seed).samples, expected)

    tc = m.build_model("tail-coupled")
    expected = np.sort(m.row_rng(seed, n, 0).standard_normal(reps))
    assert np.array_equal(m.simulate_normalized_sums(tc, n, reps, seed).samples, expected)


# ---------------------------------------------------------------------------
# KS statistic


def test_ks_single_sample_at_zero():
    assert m.ks_statistic(np.array([0.0])) == pytest.approx(0.5, abs=1e-12)


def test_ks_far_right_mass():
    assert m.ks_statistic(np.full(50, 10.0)) == pytest.approx(1.0, abs=1e-6)


def test_ks_empty_rejected():
    with pytest.raises(ValueError):
        m.ks_statistic(np.array([]))


def test_ks_matches_brute_force():
    rng = np.random.default_rng(7)
    x = np.sort(rng.normal(size=257))
    # brute force sup over evaluation at sample points from both sides
    cdf = norm.cdf(x)
    i = np.arange(1, 258)
    brute = max(np.max(np.abs(i / 257 - cdf)), np.max(np.abs((i - 1) / 257 - cdf)))
    assert m.ks_statistic(x) == pytest.approx(brute, abs=1e-15)


def test_kolmogorov_band_value():
    # 99% two-sided quantile of the Kolmogorov distribution is ~1.6276
    assert m.kolmogorov_band(10_000) == pytest.approx(0.016276, abs=2e-5)


@pytest.mark.parametrize(
    "reps,confidence",
    [(0, 0.99), (-5, 0.99), (100.0, 0.99), (True, 0.99), (100, 1.5), (100, 1.0), (100, 0.0), (100, math.nan)],
    ids=["reps-0", "reps-negative", "reps-float", "reps-bool", "confidence-1.5", "confidence-1", "confidence-0", "confidence-nan"],
)
def test_kolmogorov_band_rejects_out_of_range_arguments(reps, confidence):
    with pytest.raises(ValueError):
        m.kolmogorov_band(reps, confidence)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ks_rejects_non_finite_samples(bad):
    # a NaN statistic would read as a failed check, not as an error
    with pytest.raises(ValueError, match="non-finite"):
        m.ks_statistic(np.array([bad, 0.0]))


def test_exact_normal_stays_below_conservative_band():
    # the 1.63/sqrt(R) band is crossed with probability < 1%; 0.0271
    # corresponds to sqrt(R) x = 2.71, far into the tail
    for seed in range(5):
        rng = np.random.default_rng(seed)
        ks = m.ks_statistic(rng.standard_normal(10_000))
        assert ks < 0.0271


def test_null_calibration_rate():
    # exact-normal KS should stay below the 99% band in >= 95 of 100 runs
    reps, hits = 2000, 0
    band = m.kolmogorov_band(reps)
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        if m.ks_statistic(rng.standard_normal(reps)) < band:
            hits += 1
    assert hits >= 95


# ---------------------------------------------------------------------------
# convergence sweeps


def test_sweep_gaussian_block_repeat_is_exactly_normal():
    # S_n is a sum of J independent normals: KS is pure Monte Carlo noise
    br = m.build_model("block-repeat", m_schedule=2, innovation="normal")
    report = m.convergence_sweep(br, [64, 256], reps=2000, seed=3)
    assert report.final_ks < m.kolmogorov_band(2000)


def test_sweep_negative_control_stays_far_from_normal():
    # one block carrying 90% of the variance: the limit is a two-point
    # mixture of normals with sup-distance ~0.158 from Phi
    bad = m.build_model("block-repeat", m_schedule=1, spike_frac=0.9)
    report = m.convergence_sweep(bad, [256, 1024], reps=2000, seed=3)
    for row in report.grid:
        assert row["ks_stat"] >= 0.1
    assert report.final_ks >= 0.1


def test_sweep_validates_grid():
    iid = m.build_model("iid-baseline")
    with pytest.raises(ValueError):
        m.convergence_sweep(iid, [], reps=200)
    with pytest.raises(ValueError):
        m.convergence_sweep(iid, [64, 64], reps=200)


def test_sweep_monotone_trend_flag():
    ts = m.build_model("two-scale", alpha=0.25)
    report = m.convergence_sweep(ts, [16, 1024], reps=1500, seed=6)
    assert report.monotone_trend == (report.grid[-1]["ks_stat"] <= report.grid[0]["ks_stat"])
    assert report.final_ks == report.grid[-1]["ks_stat"]


# ---------------------------------------------------------------------------
# export


def test_report_serialization():
    iid = m.build_model("iid-baseline")
    report = m.convergence_sweep(iid, [64, 128], reps=500, seed=1)
    payload = report_to_dict(report)
    blob = cli.payload_to_json(payload)
    assert '"final_ks"' in blob and '"iid-baseline"' in blob
    lines = cli.payload_to_csv("clt", payload).strip().splitlines()
    assert lines[0] == "n,ks_stat,reps,seed"
    assert len(lines) == 3
