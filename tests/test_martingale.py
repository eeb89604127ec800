"""Martingale oracle: exact identities, bounds, truncation, sampled checks."""

import copy
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdepclt as m
from mdepclt import martingale as mart
from mdepclt.martingale import increments_from_innovations
from mdepclt.models import _enumeration_bits


def oracle_models():
    return [
        (m.build_model("iid-baseline"), 8),
        (m.build_model("moving-average", coeffs=(1.0, 0.5)), 6),
        (m.build_model("block-repeat", m_schedule=2), 6),
        (m.build_model("two-scale", alpha=0.3), 5),
    ]


@pytest.fixture(scope="module")
def traces():
    return {mod.describe(): (mod, n, m.build_trace(mod, n)) for mod, n in oracle_models()}


# ---------------------------------------------------------------------------
# structure


def test_structure_identities_pass(traces):
    for model, n, trace in traces.values():
        for res in m.check_structure(trace, tol=1e-10):
            assert res.passed, f"{model.describe()} n={n}: {res}"


def test_tower_property_pass(traces):
    for model, n, trace in traces.values():
        for res in m.check_tower(trace, tol=1e-12):
            assert res.passed, f"{model.describe()} n={n}: {res}"


def test_quadratic_variation_identity(traces):
    for model, n, trace in traces.values():
        assert trace.q.sum() == pytest.approx(m.exact_sigma2(model, n), abs=1e-10)
        assert trace.q.sum() == pytest.approx(trace.sigma2, abs=1e-10)


def test_telescoping_to_row_sum(traces):
    for _, _, trace in traces.values():
        s = trace.table.row_sums()
        assert np.allclose(trace.dM.sum(axis=1), s, atol=1e-12)
        assert np.allclose(trace.M[:, 0], 0.0, atol=1e-12)


def test_independent_case_increments_are_entries(traces):
    _, _, trace = traces["iid-baseline(rademacher)"]
    assert np.allclose(trace.dM, trace.table.rows, atol=1e-14)


def test_block_repeat_increments_jump_at_block_starts(traces):
    model, n, trace = traces["block-repeat(rademacher, m=2)"]
    # dM is Y_j at the first index of block j and zero inside the block
    assert np.allclose(trace.dM[:, 1::2], 0.0, atol=1e-14)
    assert np.allclose(trace.dM[:, 0::2], trace.table.rows[:, 0::2] * 2, atol=1e-14)


def test_corrupted_trace_trips_structure_check(traces):
    _, _, trace = traces["two-scale(alpha=0.3)"]
    bad = copy.deepcopy(trace)
    bad.W[17, 2, 3] += 1e-3
    results = {res.name: res for res in m.check_structure(bad)}
    assert not all(res.passed for res in results.values())
    failed = [res for res in results.values() if not res.passed]
    detail = failed[0].detail
    assert detail is not None and {"identity", "outcome"} <= set(detail)


@pytest.mark.parametrize("perturb", [1e-3, -1e-3, 5e-3])
def test_corruption_detected_at_millis(traces, perturb):
    _, _, trace = traces["iid-baseline(rademacher)"]
    bad = copy.deepcopy(trace)
    bad.W[3, 4, 6] += perturb
    assert not all(res.passed for res in m.check_structure(bad))


@pytest.mark.parametrize(
    "i,k",
    [
        (3, 3),  # past region: W must equal the entry itself
        (4, 3),  # active window i = k + m: difference/partial-sum identities
        (5, 2),  # future region: W must vanish
    ],
)
def test_corruption_detected_in_every_index_region(traces, i, k):
    _, _, trace = traces["two-scale(alpha=0.3)"]
    bad = copy.deepcopy(trace)
    bad.W[11, i - 1, k] += 1e-3
    assert not all(res.passed for res in m.check_structure(bad))


def _reference_partition_and_W(table):
    """prefix_ids and W the sort-whole-prefix way: np.unique of every
    prefix, cell sums by np.add.at, cell means gathered per outcome."""
    rows, probs = table.rows, table.probs
    n_out, N = rows.shape
    W = np.empty((n_out, N, N + 1))
    ids = []
    for k in range(N + 1):
        if k == 0:
            inv = np.zeros(n_out, dtype=np.intp)
        else:
            _, inv = np.unique(rows[:, :k], axis=0, return_inverse=True)
            inv = inv.ravel()
        cellp = np.bincount(inv, weights=probs)
        wsum = np.zeros((len(cellp), N))
        np.add.at(wsum, inv, probs[:, None] * rows)
        W[:, :, k] = wsum[inv] / cellp[inv, None]
        ids.append(inv)
    return ids, W


@pytest.mark.parametrize(
    "model,n",
    oracle_models() + [(m.build_model("two-scale", alpha=0.25), 7)],
    ids=lambda v: v.describe() if isinstance(v, m.ArrayModel) else str(v),
)
def test_prefix_refinement_is_the_whole_prefix_partition(model, n):
    # refining cell_{k-1} by X_k gives the cells, the cell numbering and
    # the cell means of np.unique over whole prefixes, exactly
    trace = m.build_trace(model, n)
    ids, W = _reference_partition_and_W(trace.table)
    assert len(trace.prefix_ids) == len(ids)
    for k, (got, want) in enumerate(zip(trace.prefix_ids, ids)):
        assert np.array_equal(got, want), f"k={k}"
    assert np.array_equal(trace.W, W)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), sign=st.sampled_from([1.0, -1.0]))
def test_structure_failure_names_the_perturbed_entry(traces, data, sign):
    _, _, trace = traces["two-scale(alpha=0.3)"]
    n_out, N, _ = trace.W.shape
    o = data.draw(st.integers(0, n_out - 1), label="outcome")
    i = data.draw(st.integers(0, N - 1), label="i")  # W index: entry X_{i+1}
    k = data.draw(st.integers(0, N), label="k")
    W = trace.W.copy()
    W[o, i, k] += sign * 1e-3
    results = {res.name: res for res in m.check_structure(dataclasses.replace(trace, W=W))}
    assert not all(res.passed for res in results.values())
    if i + 1 <= k:
        region = "measurable-past"
    elif i + 1 > k + trace.m:
        region = "independent-future"
    else:
        return  # active window: the difference and partial-sum forms fail
    detail = results[region].detail
    assert (detail["outcome"], detail["i"], detail["k"]) == (o, i, k)
    assert detail["identity"] == region


def test_structure_failure_names_the_first_worst_entry_in_c_order(traces):
    # two equal worst errors in different W[:, :, k] slices: the one first
    # in (outcome, i, k) order is named, as argmax over the whole tensor does
    _, _, trace = traces["two-scale(alpha=0.3)"]
    rows = trace.table.rows
    later = (9, 0, 2)  # scanned first: slice k = 2
    x = rows[later[0], later[1]]
    first = next((o, 3, 4) for o in range(later[0]) if rows[o, 3] == x)
    W = trace.W.copy()
    for o, i, k in (first, later):
        W[o, i, k] = x + 1e-3
    res = m.check_structure(dataclasses.replace(trace, W=W))[0]
    assert res.name == "measurable-past" and not res.passed
    assert (res.detail["outcome"], res.detail["i"], res.detail["k"]) == first


# ---------------------------------------------------------------------------
# bounds under the boundedness hypothesis


def test_bounds_pass_with_tight_eps(traces):
    for model, n, trace in traces.values():
        eps = max(trace.m, 1) * float(np.abs(trace.table.rows).max())
        results = m.check_bounds(trace, eps)
        for res in results:
            assert res.passed, f"{model.describe()} n={n}: {res}"
        slack = results[-1].detail
        assert slack["var_q_over_eps2_sigma2"] <= 48.0
        assert slack["max_dm_over_eps"] <= 4.0


def test_bounds_reject_unbounded_model(traces):
    _, _, trace = traces["two-scale(alpha=0.3)"]
    max_x = float(np.abs(trace.table.rows).max())
    with pytest.raises(m.HypothesisViolationError):
        m.check_bounds(trace, 0.5 * max_x)


def test_increment_bound_equality_case():
    # scaled independent Rademacher: |dM| = |X| = eps exactly, well under 4 eps
    iid = m.build_model("iid-baseline")
    trace = m.build_trace(iid, 4)
    eps = 0.5  # = max |X| with m_eff = 1
    results = {res.name: res for res in m.check_bounds(trace, eps)}
    assert results["increment-bound"].passed
    assert results["increment-bound"].detail["max_dm_over_eps"] == pytest.approx(1.0)


def test_mean_q_equals_second_moment(traces):
    for _, _, trace in traces.values():
        probs = trace.table.probs
        assert float(probs @ trace.Q) == pytest.approx(trace.sigma2, abs=1e-12)


def test_larger_two_scale_trace():
    # 2^15 outcomes: same identities at the same tolerances
    ts = m.build_model("two-scale", alpha=0.25)
    trace = m.build_trace(ts, 7)
    assert all(res.passed for res in m.check_structure(trace, tol=1e-10))
    assert all(res.passed for res in m.check_tower(trace))
    assert trace.q.sum() == pytest.approx(m.exact_sigma2(ts, 7), abs=1e-10)


def test_trace_feasibility_predicate():
    from mdepclt.martingale import trace_feasible

    ts = m.build_model("two-scale", alpha=0.25)
    assert trace_feasible(ts, 7)
    assert not trace_feasible(ts, 10)  # 2^21 outcomes x 110 tensor cells
    assert not trace_feasible(m.build_model("tail-coupled", m_schedule=2), 6)
    with pytest.raises(m.EnumerationTooLargeError):
        m.build_trace(ts, 10)


def test_trace_size_is_checked_before_enumerating(monkeypatch):
    def enumerate_outcomes(*args, **kwargs):
        raise AssertionError("enumerated before the size check")

    monkeypatch.setattr(mart, "enumerate_outcomes", enumerate_outcomes)
    with pytest.raises(m.EnumerationTooLargeError):
        m.build_trace(m.build_model("two-scale", alpha=0.25), 10)
    with pytest.raises(m.ContinuousModelError):
        m.build_trace(m.build_model("tail-coupled", m_schedule=2), 6)


def test_degenerate_moving_average_is_independent():
    # a single tap means dependence range zero; increments are the entries
    ma0 = m.build_model("moving-average", coeffs=(2.0,))
    assert ma0.m(16) == 0
    trace = m.build_trace(ma0, 5)
    assert np.allclose(trace.dM, trace.table.rows, atol=1e-14)


# ---------------------------------------------------------------------------
# truncation identity checks


def test_truncation_trivial_above_support():
    iid = m.build_model("iid-baseline")
    chk = m.check_truncation(m.build_trace(iid, 6), eps=10.0)
    assert chk.passed
    assert chk.values["s_tail_second_moment"] == 0.0
    assert chk.values["bound"] == 0.0


def test_truncation_strict_inequality_two_scale():
    # eps placing the threshold between the two support scales: only the
    # large-increment outcomes land in the tail part
    ts = m.build_model("two-scale", alpha=0.3)
    n = 6
    sigma = math.sqrt(m.exact_sigma2(ts, n))
    eps = 0.6 / sigma
    chk = m.check_truncation(m.build_trace(ts, n), eps)
    assert chk.passed
    assert 0.0 < chk.values["s_tail_second_moment"] < chk.values["bound"]
    assert chk.values["mu_max_abs"] == 0.0  # symmetric entries


@pytest.mark.parametrize("model,n", oracle_models())
def test_truncation_identities_all_models(model, n, traces):
    _, _, trace = traces[model.describe()]
    for eps in (0.2, 0.7):
        chk = m.check_truncation(trace, eps)
        assert chk.passed, [str(r) for r in chk.results]


def _max_covariance_beyond_band(model, n, eps, band):
    """Loop reference for the split-banded check: the largest |Cov| of
    either split part over all pairs i < j with j - i > band."""
    table = m.enumerate_outcomes(model, n)
    probs = table.probs
    N = table.rows.shape[1]
    worst = 0.0
    for part in m.truncated_model(model, n, eps).split_rows(table.rows):
        mu = probs @ part
        for i in range(N):
            for j in range(i + band + 1, N):
                cov = float(probs @ ((part[:, i] - mu[i]) * (part[:, j] - mu[j])))
                worst = max(worst, abs(cov))
    return worst


def test_split_banded_fails_when_the_band_is_too_narrow():
    # the two-scale row is 1-dependent; claiming m = 0 must trip only the
    # covariance-band check, at the value the pairwise loop gives
    ts = m.build_model("two-scale", alpha=0.25)
    trace = dataclasses.replace(m.build_trace(ts, 6), m=0)
    chk = m.check_truncation(trace, eps=0.4)
    by_name = {r.name: r for r in chk.results}
    assert not chk.passed and not by_name["split-banded"].passed
    assert all(r.passed for name, r in by_name.items() if name != "split-banded")
    expected = _max_covariance_beyond_band(ts, 6, 0.4, band=0)
    assert by_name["split-banded"].max_abs_err == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# closed-form increments against the exact trace


@pytest.mark.parametrize(
    "model,n",
    [
        (m.build_model("iid-baseline"), 6),
        (m.build_model("two-scale", alpha=0.3), 5),
        (m.build_model("two-scale", alpha=0.25), 4),
        (m.build_model("block-repeat", m_schedule=2), 6),
        (m.build_model("block-repeat", m_schedule=3, spike_frac=0.5), 9),
        (m.build_model("moving-average", coeffs=(0.7,)), 6),
        (m.build_model("block-repeat", m_schedule=m.Schedule("power", 0.5), spike_frac=0.3), 9),
    ],
)
def test_closed_form_increments_match_enumeration(model, n):
    """The sampled-path martingale must agree with the partition-average
    martingale outcome by outcome, including the unresolved-prefix cases."""
    trace = m.build_trace(model, n)
    bits = _enumeration_bits(model, n)
    idx = np.arange(2**bits, dtype=np.uint64)
    signs = ((idx[:, None] >> np.arange(bits, dtype=np.uint64)) & 1).astype(float) * 2 - 1
    worst = 0.0
    for o in range(2**bits):
        dm = increments_from_innovations(model, n, signs[o])
        worst = max(worst, float(np.abs(dm - trace.dM[o]).max()))
    assert worst < 1e-12


def test_closed_form_rejects_moving_average():
    ma = m.build_model("moving-average", coeffs=(1.0, 0.5))
    with pytest.raises(m.UnsupportedFamilyError):
        increments_from_innovations(ma, 8, np.ones(9))


def test_unsupported_row_error_names_the_model():
    ma = m.build_model("moving-average", coeffs=(1.0, 0.0, -0.5), innovation="normal")
    with pytest.raises(m.UnsupportedFamilyError) as exc:
        increments_from_innovations(ma, 8, np.ones(10))
    assert ma.describe() in str(exc.value)


# ---------------------------------------------------------------------------
# sampled hypotheses checks


def test_hh_iid_quadratic_variation_concentrates():
    iid = m.build_model("iid-baseline")
    rep = m.check_hh_hypotheses(iid, [2**6, 2**8, 2**10], reps=400, seed=1)
    assert rep.quadratic_variation_concentrates
    assert rep.max_increment_vanishes
    assert rep.max_square_bounded
    # for the independent row, Q/sigma^2 = 1 exactly (signs square away)
    assert rep.rows[-1]["q_mean"] == pytest.approx(1.0, abs=1e-12)


def test_hh_two_scale_passes():
    ts = m.build_model("two-scale", alpha=0.3)
    rep = m.check_hh_hypotheses(ts, [2**6, 2**8, 2**10], reps=500, seed=2)
    assert rep.passed
    assert abs(rep.rows[-1]["q_mean"] - 1.0) < 0.05


def test_hh_two_scale_at_scale():
    # normalized quadratic variation within 0.05 of 1 at n = 2^14, 2000 reps
    ts = m.build_model("two-scale", alpha=0.3)
    rep = m.check_hh_hypotheses(ts, [2**12, 2**14], reps=2000, seed=4)
    assert rep.passed
    assert abs(rep.rows[-1]["q_mean"] - 1.0) < 0.05
    assert rep.rows[-1]["max_dm_q95"] < rep.rows[0]["max_dm_q95"]


def test_hh_tail_coupled_passes():
    tc = m.build_model("tail-coupled", m_schedule=m.Schedule("power", 0.25))
    rep = m.check_hh_hypotheses(tc, [2**6, 2**8, 2**10], reps=500, seed=3)
    assert rep.passed


def _signs(model, n, seed, replicate):
    # regenerate the raw innovations exactly as sample_row does
    from mdepclt.models import _innovation_count, _innovations, row_rng

    rng = row_rng(seed, n, replicate)
    return _innovations(rng, "rademacher", _innovation_count(model, n))


def test_hh_bounded_increment_bound_two_scale():
    # |dM| <= 4 * m * max|X| whenever the row is bounded
    ts = m.build_model("two-scale", alpha=0.3)
    n = 2**8
    cap = 4 * (n**-0.5 + 2 * n**-0.3)
    for r in range(50):
        dm = increments_from_innovations(ts, n, _signs(ts, n, 9, r))
        assert np.abs(dm).max() <= cap


def test_hh_unsupported_family():
    ma = m.build_model("moving-average", coeffs=(1.0, 0.5))
    with pytest.raises(m.UnsupportedFamilyError):
        m.check_hh_hypotheses(ma, [64, 128, 256], reps=200)


def test_hh_grid_beyond_the_sample_cap_raises_before_drawing(monkeypatch):
    def draw_innovations(*args, **kwargs):
        raise AssertionError("a row was drawn")

    monkeypatch.setattr(mart, "draw_innovations", draw_innovations)
    iid = m.build_model("iid-baseline")
    with pytest.raises(m.SampleTooLargeError):
        m.check_hh_hypotheses(iid, [64, 2**27], reps=200)


_MA = m.build_model("moving-average", coeffs=(1.0, 0.5))


@pytest.mark.parametrize(
    "model,n_grid,reps,error,needle",
    [
        (m.build_model("iid-baseline"), [], 200, ValueError, "n_grid must be nonempty"),
        (m.build_model("iid-baseline"), [64, 256], 1, ValueError, "reps must be >= 100"),
        (m.build_model("iid-baseline"), [64, 256], 10**15, ValueError, f"reps must be <= {m.SAMPLE_CAP}"),
        (m.build_model("iid-baseline", amplitude=1e-200), [64, 256], 200, m.DegenerateVarianceError, "sigma_n^2 = 0.0"),
        (m.build_model("iid-baseline", amplitude=1e160), [64, 256], 200, m.DegenerateVarianceError, "sigma_n^2 = inf"),
        (_MA, [64, 256], 200, m.UnsupportedFamilyError, _MA.describe()),
    ],
    ids=["empty-grid", "one-rep", "reps-beyond-cap", "sigma2-underflow", "sigma2-overflow", "multi-tap-moving-average"],
)
def test_hh_rejects_what_it_cannot_handle_before_drawing(monkeypatch, model, n_grid, reps, error, needle):
    # unchecked, these end in an IndexError, q_sd = nan, inf/nan and
    # all-zero rows that still read max_square_bounded, or an error raised
    # only after the first row was drawn
    def draw_innovations(*args, **kwargs):
        raise AssertionError("a row was drawn")

    monkeypatch.setattr(mart, "draw_innovations", draw_innovations)
    with pytest.raises(error, match=re.escape(needle)):
        m.check_hh_hypotheses(model, n_grid, reps=reps)


def test_hh1_needs_more_than_rounding_to_read_as_a_decrease():
    # the spike block's increment is sqrt(spike_frac) * sigma_n at every n,
    # so the 95% quantile of max|dM|/sigma_n is constant up to rounding
    spiked = m.build_model("block-repeat", m_schedule=5, spike_frac=0.3)
    rep = m.check_hh_hypotheses(spiked, [100, 400, 1600], reps=200, seed=0)
    q95 = [row["max_dm_q95"] for row in rep.rows]
    assert q95 == pytest.approx([math.sqrt(0.3)] * 3, rel=1e-14)
    assert not rep.max_increment_vanishes


def test_hh1_margin_absorbs_a_last_bit_decrease(monkeypatch):
    # a rounding-sized fall of the quantile at the largest n is not a trend
    increments = mart.increments_from_innovations

    def rounded_down(model, n, innov):
        dm = increments(model, n, innov)
        return dm * (1.0 - 2.0**-52) if n == 1600 else dm

    monkeypatch.setattr(mart, "increments_from_innovations", rounded_down)
    spiked = m.build_model("block-repeat", m_schedule=5, spike_frac=0.3)
    rep = m.check_hh_hypotheses(spiked, [100, 400, 1600], reps=200, seed=0)
    assert rep.rows[-1]["max_dm_q95"] < rep.rows[0]["max_dm_q95"]
    assert not rep.max_increment_vanishes


# ---------------------------------------------------------------------------
# export


def test_trace_summary_fields(traces):
    model, n, trace = traces["two-scale(alpha=0.3)"]
    summary = m.trace_summary(trace)
    assert summary["eps"] == max(trace.m, 1) * float(np.abs(trace.table.rows).max())
    for key in ("n", "sigma2", "sum_q", "var_q", "max_abs_dm", "structure_passed"):
        assert key in summary
    assert summary["structure_passed"] and summary["tower_passed"] and summary["bounds_passed"]
    assert summary["sum_q"] == pytest.approx(summary["sigma2"], abs=1e-10)
