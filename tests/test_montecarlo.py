"""Monte Carlo lab: KS statistic, reproducibility, moment sanity."""

import math

import numpy as np
import pytest
from scipy.stats import norm

import mdepclt as m
from mdepclt import cli
from mdepclt.montecarlo import report_to_dict


def test_simulation_reproducible_and_sorted():
    ts = m.build_model("two-scale", alpha=0.25)
    a = m.simulate_normalized_sums(ts, 128, reps=300, seed=4)
    b = m.simulate_normalized_sums(ts, 128, reps=300, seed=4)
    assert np.array_equal(a.samples, b.samples)
    assert np.all(np.diff(a.samples) >= 0)
    c = m.simulate_normalized_sums(ts, 128, reps=300, seed=5)
    assert not np.array_equal(a.samples, c.samples)


def test_simulation_prefix_stability():
    # replicate r is the same draw no matter how many replicates are run:
    # the counter-based streams do not depend on the batch size
    iid = m.build_model("iid-baseline")
    short = m.simulate_normalized_sums(iid, 64, reps=150, seed=9)
    long = m.simulate_normalized_sums(iid, 64, reps=300, seed=9)
    assert set(np.round(short.samples, 12)) <= set(np.round(long.samples, 12))


def test_simulation_rejects_tiny_reps():
    with pytest.raises(ValueError):
        m.simulate_normalized_sums(m.build_model("iid-baseline"), 16, reps=10)


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


def test_two_scale_row_sums_follow_the_enumerated_law():
    # KS between the sampled row sums and the exact law of S_n (2^17
    # outcomes); the band is distribution-free and conservative for a
    # lattice law, at the confidence the benchmark gate uses
    ts = m.build_model("two-scale", alpha=0.25)
    n, reps = 8, 4000
    table = m.enumerate_outcomes(ts, n)
    order = np.argsort(table.row_sums())
    atoms, cdf = table.row_sums()[order], np.cumsum(table.probs[order])
    sums = np.sort([m.sample_row(ts, n, seed=2, replicate=r).values.sum() for r in range(reps)])
    # both CDFs step only at the atoms; 1e-9 absorbs summation-order rounding
    right = atoms + 1e-9
    exact = cdf[np.searchsorted(atoms, right, side="right") - 1]
    emp = np.searchsorted(sums, right, side="right") / reps
    assert float(np.abs(emp - exact).max()) <= m.kolmogorov_band(reps, 1 - 1e-6)


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
