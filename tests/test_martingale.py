"""Martingale oracle: exact identities, bounds, truncation, and the
martingale-CLT hypotheses from the exact increment law."""

import copy
import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mdepclt as m
from mdepclt import cli
from mdepclt import martingale as mart

from conftest import per_outcome_M, split_rows, trace_dM, trace_M, w_slice, weighted_sum


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
        for res in m.check_trace(trace)[:5]:
            assert res.passed, f"{model.describe()} n={n}: {res}"


def test_tower_property_pass(traces):
    for model, n, trace in traces.values():
        for res in m.check_trace(trace)[5:6]:
            assert res.passed, f"{model.describe()} n={n}: {res}"


def test_quadratic_variation_identity(traces):
    for model, n, trace in traces.values():
        assert trace.q.sum() == pytest.approx(m.exact_sigma2(model, n), abs=1e-10)
        assert trace.q.sum() == pytest.approx(trace.sigma2, abs=1e-10)


def test_telescoping_to_row_sum(traces):
    for _, _, trace in traces.values():
        s = trace.table.row_sums()
        assert np.allclose(trace_dM(trace).sum(axis=1), s, atol=1e-12)
        assert np.allclose(trace_M(trace)[:, 0], 0.0, atol=1e-12)


def test_increments_are_derived_from_m(traces):
    # the trace stores no dM, nor any per-outcome array of it: the
    # increments every pass reads are M's difference, byte for byte
    for _, _, trace in traces.values():
        assert not hasattr(trace, "dM") and not hasattr(trace, "M")
        dM = np.diff(per_outcome_M(trace.table), axis=1)
        for k, (_, d) in enumerate(mart._steps(trace)):
            assert d.tobytes() == dM[:, k].tobytes(), k


@pytest.mark.parametrize(
    "model,n",
    oracle_models() + [(m.build_model("two-scale", alpha=0.25), 7)],
    ids=lambda v: v.describe() if isinstance(v, m.ArrayModel) else str(v),
)
def test_m_is_the_per_outcome_reference_and_read_only(model, n):
    # the trace keeps M_k once per prefix cell; gathered per outcome it is
    # the per-outcome M byte for byte, and a write to a gathered column
    # does not reach the cell values, so the next pass reads M unchanged
    trace = m.build_trace(model, n)
    M = per_outcome_M(trace.table)
    for k, column in enumerate(trace.m_columns()):
        assert column.tobytes() == M[:, k].tobytes(), k
        column[:] = np.nan
    assert trace_M(trace).tobytes() == M.tobytes()


def test_each_m_k_has_one_value_per_prefix_cell(traces):
    for _, _, trace in traces.values():
        N = trace.table.rows.shape[1]
        assert len(trace.M_cells) == len(trace.prefix_ids) == N + 1
        for k, (cells, ids) in enumerate(zip(trace.M_cells, trace.prefix_ids)):
            assert len(cells) == len(np.unique(ids)) == int(ids.max()) + 1, k
            assert ids.dtype == np.min_scalar_type(len(cells) - 1), k


def test_max_abs_increment_reads_every_column(traces):
    # max |dM|, taken one column at a time, sees a largest entry in the
    # first column and a NaN anywhere
    _, _, trace = traces["two-scale(alpha=0.3)"]
    M = trace_M(trace)
    M[2, 0], M[2, 1:] = 0.0, 9.0  # dM is 9 at k = 1 on outcome 2, and 0 after it
    bad = _with_M(trace, M)
    assert m.trace_summary(bad)["max_abs_dm"] == 9.0 == float(np.abs(np.diff(M, axis=1)).max())
    M[5, 3] = np.nan
    assert math.isnan(m.trace_summary(_with_M(trace, M))["max_abs_dm"])


def test_independent_case_increments_are_entries(traces):
    _, _, trace = traces["iid-baseline(rademacher)"]
    assert np.allclose(trace_dM(trace), trace.table.rows, atol=1e-14)


def test_block_repeat_increments_jump_at_block_starts(traces):
    model, n, trace = traces["block-repeat(rademacher, m=2)"]
    # dM is Y_j at the first index of block j and zero inside the block
    dM = trace_dM(trace)
    assert np.allclose(dM[:, 1::2], 0.0, atol=1e-14)
    assert np.allclose(dM[:, 0::2], trace.table.rows[:, 0::2] * 2, atol=1e-14)


def _perturbed(trace, edit):
    """A copy of trace whose W reader hands every fresh W[:, :, k] to
    edit(k, Wk), which changes it in place, and then yields the edited
    slice in the reader's blocks; M and dM stay as built."""
    bad = copy.copy(trace)

    def w_blocks(k):
        blocks = [(i0, block.copy()) for i0, block in trace.w_blocks(k)]
        Wt = np.concatenate([block for _, block in blocks])
        edit(k, Wt.T)
        for i0, block in blocks:
            yield i0, Wt[i0 : i0 + len(block)]

    bad.w_blocks = w_blocks
    return bad


def _m_perturbed(trace, edit):
    """A copy of trace whose M reader hands every gathered M_k to
    edit(k, Mk), which changes it in place; W and the stored cell values
    stay as built."""
    bad = copy.copy(trace)

    def m_columns():
        for k, Mk in enumerate(trace.m_columns()):
            edit(k, Mk)
            yield Mk

    bad.m_columns = m_columns
    return bad


def _with_M(trace, M):
    """A copy of trace that reads the per-outcome array M as its M."""
    return _m_perturbed(trace, lambda k, Mk: np.copyto(Mk, M[:, k]))


def _bumped(trace, o, i, k, delta):
    """W[o, i, k] += delta, through the W reader."""

    def edit(kk, Wk):
        if kk == k:
            Wk[o, i] += delta

    return _perturbed(trace, edit)


def test_corrupted_trace_trips_structure_check(traces):
    _, _, trace = traces["two-scale(alpha=0.3)"]
    bad = _bumped(trace, 17, 2, 3, 1e-3)
    results = {res.name: res for res in m.check_trace(bad)[:5]}
    assert not all(res.passed for res in results.values())
    failed = [res for res in results.values() if not res.passed]
    detail = failed[0].detail
    assert detail is not None and {"identity", "outcome"} <= set(detail)


@pytest.mark.parametrize("perturb", [1e-3, -1e-3, 5e-3])
def test_corruption_detected_at_millis(traces, perturb):
    _, _, trace = traces["iid-baseline(rademacher)"]
    bad = _bumped(trace, 3, 4, 6, perturb)
    assert not all(res.passed for res in m.check_trace(bad)[:5])


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
    bad = _bumped(trace, 11, i - 1, k, 1e-3)
    assert not all(res.passed for res in m.check_trace(bad)[:5])


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "i,k,identity",
    [(3, 3, "measurable-past"), (4, 3, "partial-sum-form"), (5, 2, "independent-future")],
    ids=["past", "window", "future"],
)
def test_a_non_finite_w_entry_fails_the_identity_of_its_region(traces, i, k, identity, value):
    # each identity takes its maximum over its own rows of the slice only
    _, _, trace = traces["two-scale(alpha=0.3)"]

    def edit(kk, Wk):
        if kk == k:
            Wk[11, i - 1] = value

    bad = _perturbed(trace, edit)
    results = {res.name: res for res in m.check_trace(bad)[:5]}
    assert not results[identity].passed, results[identity]
    eps = max(trace.m, 1) * float(np.abs(trace.table.rows).max())
    bound = m.check_trace(bad, eps)[6]
    assert bound.name == "conditional-bound" and not bound.passed
    assert (bound.detail["outcome"], bound.detail["i"], bound.detail["k"]) == (11, i - 1, k)
    summary = m.trace_summary(bad)
    assert not (summary["structure_passed"] and summary["bounds_passed"])


def test_slices_are_laid_out_variables_by_outcomes(traces):
    # each block of a slice is C-contiguous, one row of conditional means
    # per variable, and the blocks cover the variables in order
    for _, _, trace in traces.values():
        N, n_out = trace.table.columns.shape
        for k in range(len(trace.prefix_ids)):
            i = 0
            for i0, block in trace.w_blocks(k):
                assert i0 == i and block.flags.c_contiguous and block.shape[1] == n_out, k
                assert block.size <= max(n_out, mart._C_BLOCK), k
                i += len(block)
            assert i == N, k


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
    oracle_models()
    + [
        (m.build_model("two-scale", alpha=0.25), 7),
        # its last key space is 4 keys per outcome, beyond _RELABEL_SPAN
        (m.build_model("moving-average", coeffs=(1.0, 0.5, 0.25)), 10),
    ],
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
    N = trace.table.rows.shape[1]
    assert np.array_equal(np.stack([w_slice(trace, k) for k in range(N + 1)], axis=2), W)


def _refinement(cells, labels, values):
    """(inv, cells, column): outcome o in cell labels[o] % cells, with
    X_k = values[o % len(values)]."""
    inv = np.array(list(labels), dtype=np.intp) % cells
    return inv, cells, np.resize(np.array(values, dtype=float), len(inv))


@st.composite
def _refinements(draw):
    labels = draw(st.lists(st.integers(0, 99), min_size=1, max_size=40))
    values = draw(st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 3.0]), min_size=1, max_size=len(labels)))
    return _refinement(draw(st.integers(1, 2 * len(labels) + 1)), labels, values)


#: cells that 3 values refine into 6 * _RELABEL_SPAN keys, the bound at 6 outcomes
_SPAN_CELLS = 2 * mart._RELABEL_SPAN


@settings(max_examples=200, deadline=None)
@given(case=_refinements())
@example(case=_refinement(1, [0] * 5, [0.25, -2.0, 0.25, 3.0, -2.0]))  # one cell
@example(case=_refinement(3, [0, 1, 2, 1, 0], [0.25]))  # one distinct value
@example(case=_refinement(_SPAN_CELLS, range(6), [1.0, -2.0, 0.25]))  # 6 outcomes: at the bound
@example(case=_refinement(_SPAN_CELLS, range(5), [1.0, -2.0, 0.25]))  # 5 outcomes: beyond it
def test_refine_numbers_cells_as_the_unique_pair(case):
    # the running count over the key space, and the np.unique fallback
    # beyond _RELABEL_SPAN keys per outcome, number the refined cells as
    # np.unique of cell * (distinct values) + rank does
    inv, cells, column = case
    values, rank = np.unique(column, return_inverse=True)
    want = np.unique(inv * len(values) + rank, return_inverse=True)[1]
    got = mart._refine(inv.copy(), cells, column)
    assert got.dtype == np.intp
    assert np.array_equal(got, want)


#: values an entry's atoms may hold beside its column's, none of them in
#: any column _refinements draws
_SPARE_ATOMS = (-3.0, -1.0, 0.5, 2.0, 4.0)


def _atom_refinement(cells, labels, values, atoms):
    """(inv, cells, column, atoms) for _refine's atom path."""
    return (*_refinement(cells, labels, values), np.array(atoms, dtype=float))


@st.composite
def _atom_refinements(draw):
    """A refinement with the sorted atoms of its column, maybe with spare
    atoms added, and maybe with one of the column's values left out or a
    NaN written into the column, so that a value is not an atom."""
    inv, cells, column = draw(_refinements())
    edit = draw(st.sampled_from(["none", "drop", "nan"]))
    # an entry's law has an atom at least, so one left out leaves a spare one
    spare = draw(st.lists(st.sampled_from(_SPARE_ATOMS), min_size=edit == "drop", max_size=3))
    atoms = np.union1d(column, spare)
    if edit == "drop":
        atoms = atoms[atoms != draw(st.sampled_from(sorted(set(column))))]
    elif edit == "nan":
        column[draw(st.integers(0, len(column) - 1))] = np.nan
    return inv, cells, column, atoms


@settings(max_examples=200, deadline=None)
@given(case=_atom_refinements())
@example(case=_atom_refinement(3, [0, 1, 2, 1, 0], [0.25, -2.0], [-2.0, 0.25]))  # the distinct values
@example(case=_atom_refinement(3, [0, 1, 2, 1, 0], [0.25, -2.0], [-3.0, -2.0, 0.25, 4.0]))  # a strict superset
@example(case=_atom_refinement(3, [0, 1, 2, 1, 0], [0.25, -2.0, 1.0], [-2.0, 0.25]))  # 1.0 is not an atom
@example(case=_atom_refinement(3, [0, 1, 2, 1, 0], [0.25, np.nan], [0.25]))  # a NaN
@example(case=_atom_refinement(2, [0, 1, 1, 0], [-0.0, 0.0, 1.0], [0.0, 1.0]))  # -0.0 beside 0.0
@example(case=_atom_refinement(2, [0, 1, 1, 0], [0.0, -0.0, 1.0], [-0.0, 1.0]))
def test_refine_reads_ranks_from_atoms_as_the_unique_pair(case):
    # ranks read from the entry's atoms number the refined cells as the
    # np.unique pair does; a column holding a value that is not an atom
    # (a NaN included) is sorted by np.unique instead, and no other is
    inv, cells, column, atoms = case
    values, rank = np.unique(column, return_inverse=True)
    want = np.unique(inv * len(values) + rank, return_inverse=True)[1]
    sorted_columns = []
    unique = np.unique

    def counted(a, *args, **kwargs):
        if a is column:
            sorted_columns.append(a)
        return unique(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "unique", counted)
        got = mart._refine(inv.copy(), cells, column, atoms)
    assert got.dtype == np.intp
    assert np.array_equal(got, want)
    assert len(sorted_columns) == (0 if np.isin(column, atoms).all() else 1)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), sign=st.sampled_from([1.0, -1.0]))
def test_structure_failure_names_the_perturbed_entry(traces, data, sign):
    _, _, trace = traces["two-scale(alpha=0.3)"]
    n_out, N = trace.table.rows.shape
    o = data.draw(st.integers(0, n_out - 1), label="outcome")
    i = data.draw(st.integers(0, N - 1), label="i")  # W index: entry X_{i+1}
    k = data.draw(st.integers(0, N), label="k")
    results = {res.name: res for res in m.check_trace(_bumped(trace, o, i, k, sign * 1e-3))[:5]}
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

    def edit(k, Wk):
        for o, i, kk in (first, later):
            if kk == k:
                Wk[o, i] = x + 1e-3

    res = m.check_trace(_perturbed(trace, edit))[0]
    assert res.name == "measurable-past" and not res.passed
    assert (res.detail["outcome"], res.detail["i"], res.detail["k"]) == first


# ---------------------------------------------------------------------------
# bounds under the boundedness hypothesis


@settings(max_examples=30, deadline=None)
@given(data=st.data(), sign=st.sampled_from([1.0, -1.0]))
def test_conditional_bound_names_the_entry_above_eps_over_m(traces, data, sign):
    _, _, trace = traces["two-scale(alpha=0.3)"]
    n_out, N = trace.table.rows.shape
    eps = max(trace.m, 1) * float(np.abs(trace.table.rows).max())
    o = data.draw(st.integers(0, n_out - 1), label="outcome")
    i = data.draw(st.integers(0, N - 1), label="i")
    k = data.draw(st.integers(0, N), label="k")

    def edit(kk, Wk):
        if kk == k:
            Wk[o, i] = sign * 1.5 * eps / max(trace.m, 1)

    res = m.check_trace(_perturbed(trace, edit), eps)[6]
    assert res.name == "conditional-bound" and not res.passed
    assert res.detail == {"outcome": o, "i": i, "k": k, "err": res.max_abs_err, "identity": "conditional-bound"}


def test_conditional_bound_names_the_first_worst_entry_in_c_order(traces):
    # equal worst |W| in three slices: the one first in (outcome, i, k)
    # order is named, whatever order the walk meets them in
    _, _, trace = traces["two-scale(alpha=0.3)"]
    eps = max(trace.m, 1) * float(np.abs(trace.table.rows).max())
    big = 2 * eps / max(trace.m, 1)
    first, same_outcome, later = (4, 1, 5), (4, 3, 0), (9, 0, 1)

    def edit(k, Wk):
        for (o, i, kk), value in ((first, -big), (same_outcome, big), (later, big)):
            if kk == k:
                Wk[o, i] = value

    res = m.check_trace(_perturbed(trace, edit), eps)[6]
    assert res.name == "conditional-bound" and not res.passed
    assert (res.detail["outcome"], res.detail["i"], res.detail["k"]) == first


def test_increment_bound_names_the_first_worst_entry_in_c_order(traces):
    # equal worst |dM| at two outcomes: the one first in (outcome, k) order
    # is named, though its column comes later.  A trace derives dM from M,
    # so each of these outcomes gets an M that steps once, from 0 to the
    # value, and its dM is that value at k and 0 elsewhere, exactly
    _, _, trace = traces["two-scale(alpha=0.3)"]
    eps = max(trace.m, 1) * float(np.abs(trace.table.rows).max())
    M = trace_M(trace)
    for (o, k), value in (((4, 3), 5 * eps), ((9, 1), -5 * eps), ((6, 2), 4.5 * eps)):
        M[o, : k + 1], M[o, k + 1 :] = 0.0, value
    bad = _with_M(trace, M)
    dM = trace_dM(bad)
    assert (dM[4, 3], dM[9, 1], dM[6, 2]) == (5 * eps, -5 * eps, 4.5 * eps)
    res = {r.name: r for r in m.check_trace(bad, eps)[6:]}["increment-bound"]
    assert not res.passed and res.max_abs_err == 5 * eps - 4 * eps
    assert res.detail == {"outcome": 4, "k": 3, "err": 5 * eps - 4 * eps, "identity": "increment-bound"}


def test_prefix_gap_names_the_first_worst_entry_in_c_order(traces):
    # M_{i+1} = T_{i+m} + 3 eps at two outcomes with equal T_{i+m}, and
    # 2.5 eps at a third: the first of the two worst in (outcome, i) order
    # is named, though its column comes later
    _, _, trace = traces["two-scale(alpha=0.3)"]
    rows = trace.table.rows
    N = rows.shape[1]
    eps = max(trace.m, 1) * float(np.abs(rows).max())
    T = np.cumsum(rows, axis=1)[:, np.minimum(np.arange(1, N + 1) + trace.m, N) - 1]
    later = (9, 0)
    first = next((o, 2) for o in range(later[0]) if T[o, 2] == T[later])
    M = trace_M(trace)
    for (o, i), gap in ((first, 3.0), (later, 3.0), ((7, 1), 2.5)):
        M[o, i + 1] = T[o, i] + gap * eps
    res = {r.name: r for r in m.check_trace(_with_M(trace, M), eps)[6:]}["prefix-gap"]
    want = abs(T[first] - M[first[0], first[1] + 1]) - 2.0 * eps
    assert not res.passed and res.max_abs_err == want > 0.5 * eps
    assert res.detail == {"outcome": first[0], "i": 2, "err": want, "identity": "prefix-gap"}


def test_prefix_gap_reads_the_next_m_columns_on_a_dyadic_row():
    # m = 2: T_{i+m} adds two columns past the walk's running T_k.  Every
    # entry is +-1/2, so every order of adding T gives the same float, and
    # the err is the np.cumsum reference's exactly.  M_{i+1} = T_{i+m} +
    # 3 eps at two outcomes and 2.5 eps at a third: the first of the two
    # worst in (outcome, i) order is named, though its column comes later
    trace = m.build_trace(m.build_model("block-repeat", m_schedule=2), 12)
    rows = trace.table.rows
    N = rows.shape[1]
    assert trace.m == 2 and rows.shape == (64, 12) and set(np.unique(rows)) == {-0.5, 0.5}
    eps = max(trace.m, 1) * float(np.abs(rows).max())
    T = np.cumsum(rows, axis=1)[:, np.minimum(np.arange(1, N + 1) + trace.m, N) - 1]
    first, later = (4, 6), (9, 1)
    M = trace_M(trace)
    for (o, i), gap in ((first, 3.0), (later, 3.0), ((7, 2), 2.5)):
        M[o, i + 1] = T[o, i] + gap * eps
    res = {r.name: r for r in m.check_trace(_with_M(trace, M), eps)[6:]}["prefix-gap"]
    want = abs(T[first] - M[first[0], first[1] + 1]) - 2.0 * eps
    assert not res.passed and res.max_abs_err == want == eps
    assert res.detail == {"outcome": 4, "i": 6, "err": want, "identity": "prefix-gap"}


def test_bounds_pass_with_tight_eps(traces):
    for model, n, trace in traces.values():
        eps = max(trace.m, 1) * float(np.abs(trace.table.rows).max())
        results = m.check_trace(trace, eps)[6:]
        for res in results:
            assert res.passed, f"{model.describe()} n={n}: {res}"
        slack = results[-1].detail
        assert slack["var_q_over_eps2_sigma2"] <= 48.0
        assert slack["max_dm_over_eps"] <= 4.0


def test_bounds_reject_unbounded_model(traces):
    _, _, trace = traces["two-scale(alpha=0.3)"]
    max_x = float(np.abs(trace.table.rows).max())
    calls = []
    with pytest.raises(m.HypothesisViolationError):
        m.check_trace(_perturbed(trace, lambda k, Wk: calls.append(k)), 0.5 * max_x)
    assert calls == []  # raised before any slice of W is built


def test_increment_bound_equality_case():
    # scaled independent Rademacher: |dM| = |X| = eps exactly, well under 4 eps
    iid = m.build_model("iid-baseline")
    trace = m.build_trace(iid, 4)
    eps = 0.5  # = max |X| with m_eff = 1
    results = {res.name: res for res in m.check_trace(trace, eps)[6:]}
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
    assert all(res.passed for res in m.check_trace(trace)[:5])
    assert all(res.passed for res in m.check_trace(trace)[5:6])
    assert trace.q.sum() == pytest.approx(m.exact_sigma2(ts, 7), abs=1e-10)


#: the CLI's default eps, which perfbench's oracle-enum runs, and six more
_TEN_EPS = (0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0)


@pytest.mark.parametrize(
    "model,n",
    oracle_models() + [(m.build_model("two-scale", alpha=0.25), 7)],
    ids=lambda v: v.describe() if isinstance(v, m.ArrayModel) else str(v),
)
def test_expectations_equal_the_probability_weighted_sums_bit_for_bit(model, n):
    # every outcome has the probability p = 2^-bits, and scaling by a power
    # of two is exact, so p times a plain sum is the sum of p-weighted
    # values to the last bit: compared with ==, no tolerance
    trace = m.build_trace(model, n)
    table = trace.table
    assert trace.sigma2 == float(weighted_sum(table, table.row_sums() ** 2))
    dM = trace_dM(trace)  # (outcomes, N), C-contiguous
    q = [weighted_sum(table, d**2) for d in dM.T]
    assert trace.q.tobytes() == np.array(q).tobytes()
    # Q per outcome, each row of dM^2 summed as np.einsum sums the whole array
    assert trace.Q.tobytes() == np.einsum("ok,ok->o", dM, dM).tobytes()
    eq = float(weighted_sum(table, trace.Q))
    assert float(table.prob * np.sum(trace.Q)) == eq
    assert m.trace_summary(trace)["var_q"] == float(weighted_sum(table, (trace.Q - eq) ** 2))
    for eps in _TEN_EPS:
        threshold = m.truncation_threshold(model, n, eps)
        tail = split_rows(threshold, table.rows)[1]
        tail_sum = 0.0
        for x in tail.T:
            tail_sum += weighted_sum(table, x**2)
        lhs = float(weighted_sum(table, m.models._row_sums(tail) ** 2))
        want = {
            "threshold": threshold,
            "tail_second_moment_sum": float(tail_sum),
            "s_tail_second_moment": lhs,
            "bound": (2 * trace.m + 1) * float(tail_sum),
        }
        assert m.check_truncation(trace, eps).values == want, eps


@pytest.mark.parametrize("n", [7, 8])
def test_sigma2_from_the_table_is_within_two_ulp_of_exact(n):
    # a pairwise sum over 2^15 and 2^17 outcomes; a threaded BLAS dot
    # product was 43 ulp off at n = 8
    ts = m.build_model("two-scale", alpha=0.25)
    exact = m.exact_sigma2(ts, n)
    assert abs(m.build_trace(ts, n).sigma2 - exact) <= 2 * math.ulp(exact)


def test_trace_feasibility_predicate():
    from mdepclt.martingale import _require_trace_size

    ts = m.build_model("two-scale", alpha=0.25)
    _require_trace_size(ts, 7)
    with pytest.raises(m.EnumerationTooLargeError, match="TRACE_CELL_CAP"):
        _require_trace_size(ts, 10)  # 2^21 outcomes x 11 stored cells each
    with pytest.raises(m.ContinuousModelError):
        _require_trace_size(m.build_model("tail-coupled", m_schedule=2), 6)
    with pytest.raises(m.EnumerationTooLargeError):
        m.build_trace(ts, 10)
    # m = 512 at n = 4096: 2^8 outcomes store 1 M cells each, but the
    # truncation check's N x N covariances would hold 16.8 M
    br = m.build_model("block-repeat", m_schedule=m.Schedule("power", 0.75))
    assert br.m(4096) == 512 and br.blocks(4096) == 8
    with pytest.raises(m.EnumerationTooLargeError, match="TRACE_CELL_CAP"):
        _require_trace_size(br, 4096)
    _require_trace_size(br, 2048)
    # one block: 2 outcomes, so the truncation check's N x N covariances are
    # the largest array; a point whose whole W fits 2^24 entries stays feasible
    _require_trace_size(m.build_model("block-repeat", m_schedule=2047), 2047)
    _require_trace_size(m.build_model("block-repeat", m_schedule=2895), 2895)
    with pytest.raises(m.EnumerationTooLargeError):
        _require_trace_size(m.build_model("block-repeat", m_schedule=2896), 2896)


def test_growing_m_block_repeat_passes_at_n_144():
    # m = 12: 2^12 outcomes and N = 144, so W would hold 85.5 M cells; the
    # checks hold one or two of its slices at a time
    br = m.build_model("block-repeat", m_schedule=m.Schedule("power", 0.5))
    trace = m.build_trace(br, 144)
    assert trace.m == 12 and trace.table.rows.shape == (4096, 144)
    summary = m.trace_summary(trace)
    assert summary["structure_passed"] and summary["tower_passed"] and summary["bounds_passed"]
    for eps in (0.05, 0.1, 0.5, 1.0):
        chk = m.check_truncation(trace, eps)
        assert chk.passed, [str(r) for r in chk.results]
    mart._require_trace_size(br, 196)  # m = 14: 2^14 outcomes x 197 stored cells
    with pytest.raises(m.EnumerationTooLargeError):
        mart._require_trace_size(br, 256)  # m = 16: 2^16 x 257 = 16.8 M


def test_trace_memory_stays_below_one_w_tensor():
    # two-scale at n = 8: 2^17 outcomes and N = 8, so one (outcomes, N, N+1)
    # float tensor takes 72 MiB, nine times the rows.  The trace keeps the
    # variable-major rows, M's cell values and the prefix ids in their
    # narrowest dtype (about 1.5 times the rows) but no per-outcome M or
    # dM, and each pass adds one slice and O(outcomes) columns: 28.3 MiB,
    # 3.5 times the rows, at the last measurement
    ts = m.build_model("two-scale", alpha=0.25)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = m.build_trace(ts, 8)
        m.trace_summary(trace)
        for eps in (0.05, 0.1, 0.5, 1.0):
            m.check_truncation(trace, eps)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    rows = trace.table.rows
    assert rows.shape == (2**17, 8)
    assert rows.T.flags.c_contiguous
    assert "dM" not in vars(trace) and "M" not in vars(trace)
    assert all(ids.dtype == np.min_scalar_type(ids.max()) for ids in trace.prefix_ids)
    assert [ids.dtype.itemsize for ids in trace.prefix_ids] == [1] * 4 + [2] * 4 + [4]
    assert peak < 4 * rows.nbytes


#: the peak of each oracle stage at two-scale n = 8, counting the trace
#: it reads, as a multiple of the rows: 1.88, 1.56, 2.67 and 2.73 at the
#: last measurement (summary 3.54 while the walk held whole slices of W,
#: truncation 2.98 while it kept each column's mask of the split).  A
#: stage over its bound is the ceiling on the oracle's peak memory
_STAGE_MULTIPLES = {"enumeration": 2.0, "build": 2.5, "summary": 3.1, "truncation": 3.0}


@pytest.mark.parametrize("stage", _STAGE_MULTIPLES)
def test_each_oracle_stage_peaks_below_its_multiple_of_the_rows(stage):
    ts = m.build_model("two-scale", alpha=0.25)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        if stage == "enumeration":
            rows = m.enumerate_outcomes(ts, 8).rows
        else:
            trace = m.build_trace(ts, 8)
            rows = trace.table.rows
            tracemalloc.reset_peak()
            if stage == "summary":
                m.trace_summary(trace)
            elif stage == "truncation":
                m.check_truncation(trace, 0.5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rows.shape == (2**17, 8)
    assert peak < _STAGE_MULTIPLES[stage] * rows.nbytes, peak / rows.nbytes


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
    assert np.allclose(trace_dM(trace), trace.table.rows, atol=1e-14)


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


def test_truncation_centring_guard_names_an_asymmetric_entry():
    # |X_1| has a positive mean on whichever side of the threshold it falls,
    # so the unshifted split cannot centre it
    iid = m.build_model("iid-baseline")
    trace = m.build_trace(iid, 6)
    rows = trace.table.rows.copy()
    rows[:, 0] = np.abs(rows[:, 0])
    bad = dataclasses.replace(trace, table=dataclasses.replace(trace.table, rows=rows))
    chk = m.check_truncation(bad, eps=0.5)
    results = {r.name: r for r in chk.results}
    assert results["split-additivity"].passed
    assert not results["split-centred"].passed
    assert results["split-centred"].detail["i"] == 0


@pytest.mark.parametrize(
    "model",
    [m.build_model("two-scale", alpha=0.25), m.build_model("moving-average", coeffs=(1.0, 0.5))],
    ids=lambda v: v.describe(),
)
def test_truncation_runs_once_per_distinct_split(model, monkeypatch):
    # eps whose thresholds put as many entries beyond give the same split:
    # the oracle checks it once, and each eps row equals its own check's,
    # threshold included
    trace = m.build_trace(model, 8)
    want = [m.check_truncation(trace, eps) for eps in _TEN_EPS]
    beyond = {
        int(np.count_nonzero(~(np.abs(trace.table.rows) <= m.truncation_threshold(model, 8, eps))))
        for eps in _TEN_EPS
    }
    runs = []
    check_truncation = mart.check_truncation

    def counted(trace, eps):
        runs.append(eps)
        return check_truncation(trace, eps)

    monkeypatch.setattr(mart, "check_truncation", counted)
    assert mart.check_truncations(trace, _TEN_EPS) == want
    assert len(runs) == len(beyond) < len(_TEN_EPS)
    runs.clear()
    rows = cli.oracle_payload(model, [8], _TEN_EPS)["truncation"]
    assert rows == [{"n": 8, "eps": eps, "passed": chk.passed, **chk.values} for eps, chk in zip(_TEN_EPS, want)]
    assert len(runs) == len(beyond)


@pytest.mark.parametrize("model,n", oracle_models())
def test_truncation_threshold_is_eps_sigma_over_m(model, n):
    for eps in _TEN_EPS:
        t = m.truncation_threshold(model, n, eps)
        assert t == eps * math.sqrt(m.exact_sigma2(model, n)) / max(model.m(n), 1)


def test_a_nan_entry_goes_beyond_every_threshold():
    # not |x| <= t: a NaN entry goes to X'' at every threshold, any other
    # entry exactly when |x| > t
    x = np.array([np.nan, -0.5, 0.5, 0.25, -np.inf])
    for t in (0.0, 0.25, 0.5, math.inf):
        beyond = mart._beyond(x, t)
        assert beyond[0] and list(beyond[1:]) == list(np.abs(x[1:]) > t)
    trace = m.build_trace(m.build_model("two-scale", alpha=0.25), 4)
    trace.table.rows[5, 1] = np.nan  # X_2 on outcome 5
    for eps in (0.2, 5.0):
        chk = m.check_truncation(trace, eps)
        assert not chk.passed and math.isnan(chk.values["tail_second_moment_sum"])


@pytest.mark.parametrize("model,n", oracle_models())
def test_truncation_identities_all_models(model, n, traces):
    _, _, trace = traces[model.describe()]
    for eps in (0.2, 0.7):
        chk = m.check_truncation(trace, eps)
        assert chk.passed, [str(r) for r in chk.results]


def _max_covariance_beyond_band(model, n, eps, band):
    """Loop reference for the split-banded check: the largest |Cov| of
    either split part over all pairs i < j with j - i > band, and every
    pair within 1e-12 of it, in C order.  Pairs whose covariances are
    equal in exact arithmetic differ in their last digits, and this
    loop's sums break such a tie otherwise than the check's."""
    table = m.enumerate_outcomes(model, n)
    probs = table.probs
    N = table.rows.shape[1]
    covs = np.zeros((N, N))
    for part in split_rows(m.truncation_threshold(model, n, eps), table.rows):
        mu = probs @ part
        for i in range(N):
            for j in range(i + band + 1, N):
                cov = float(probs @ ((part[:, i] - mu[i]) * (part[:, j] - mu[j])))
                covs[i, j] = max(covs[i, j], abs(cov))
    worst = float(covs.max())
    return worst, [(int(i), int(j)) for i, j in np.argwhere(covs >= worst * (1 - 1e-12))]


def _split_banded_alone_fails(config, n, eps, m_claimed):
    """The split-banded result of check_truncation on the row of config,
    claimed m_claimed-dependent, and the loop reference's worst pairs,
    once every other check passes and split-banded fails at the value
    the loop gives, naming one of its worst pairs beyond the claimed band."""
    model = m.model_from_config(config)
    trace = m.build_trace(model, n)
    assert trace.m > m_claimed
    chk = m.check_truncation(dataclasses.replace(trace, m=m_claimed), eps=eps)
    by_name = {r.name: r for r in chk.results}
    banded = by_name.pop("split-banded")
    assert not chk.passed and not banded.passed
    assert all(r.passed for r in by_name.values())
    expected, pairs = _max_covariance_beyond_band(model, n, eps, band=m_claimed)
    assert banded.max_abs_err == pytest.approx(expected, rel=1e-12)
    named = (banded.detail["i"], banded.detail["j"])
    assert named in pairs and named[1] - named[0] > m_claimed
    return named, pairs


def test_split_banded_fails_when_the_band_is_too_narrow():
    # the two-scale row is 1-dependent; claiming m = 0 must trip only the
    # covariance-band check, at the value the pairwise loop gives.  Its
    # adjacent pairs tie, so the check may name any of them
    _, pairs = _split_banded_alone_fails({"family": "two-scale", "alpha": 0.25}, 6, 0.4, 0)
    assert pairs == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]


def test_split_banded_names_the_one_worst_pair():
    # the spike shares its block with entry 1 alone, so (0, 1) is the one
    # worst pair of a row of m = 2 claimed 0-dependent
    named, pairs = _split_banded_alone_fails({"family": "block-repeat", "beta": 0.25, "spike_frac": 0.9}, 16, 2.0, 0)
    assert named == (0, 1) and pairs == [(0, 1)]


@pytest.mark.parametrize("m_claimed", [0, 1, 6])
def test_split_banded_reads_the_whole_covariance_product_bit_for_bit(m_claimed):
    # the beyond-band pairs, summed one row at a time, give the entries of
    # the whole N x N einsum product of each centred part, and the check
    # names its first worst pair in C order; 2^17 outcomes, more than one
    # einsum buffer of 8192, so a single pair summed alone would differ
    ts = m.build_model("two-scale", alpha=0.25)
    trace = dataclasses.replace(m.build_trace(ts, 8), m=m_claimed)
    cols, p = trace.table.columns, trace.table.prob
    N = cols.shape[0]
    banded = np.zeros((N, N))
    for part in split_rows(m.truncation_threshold(ts, 8, 0.2), cols):
        part -= (part.sum(axis=1) * p)[:, None]
        banded = np.maximum(banded, np.abs(np.einsum("io,jo->ij", part, part) * p))
    i, j = np.indices((N, N))
    banded[abs(i - j) <= m_claimed] = 0.0
    res = {r.name: r for r in m.check_truncation(trace, 0.2).results}["split-banded"]
    assert res.max_abs_err == banded.max()
    assert res.passed == (m_claimed > 0)
    if not res.passed:
        worst = np.unravel_index(int(np.argmax(banded)), banded.shape)
        assert (res.detail["i"], res.detail["j"]) == tuple(int(v) for v in worst)


def _nan_increments(trace):
    # a NaN in M_3 on outcome 3 reaches dM_3 and dM_4 there, and one in
    # M_4 = M_N on outcome 0 reaches dM_4 only
    def edit(k, Mk):
        if k in (3, 4):
            Mk[{3: 3, 4: 0}[k]] = np.nan

    trace = _m_perturbed(trace, edit)
    dM = trace_dM(trace)
    assert np.isnan(dM[3, 2]) and np.isnan(dM[0, 3])
    return m.check_trace(trace)[5]


def _nan_entry(trace):
    trace.table.rows[5, 1] = np.nan  # X_2 on outcome 5
    return {r.name: r for r in m.check_truncation(trace, eps=0.5).results}["split-banded"]


@pytest.mark.parametrize(
    "check,named", [(_nan_increments, {"k": 3}), (_nan_entry, {"i": 1})], ids=["tower-mean-zero", "split-banded"]
)
def test_a_nan_fails_the_check_that_meets_it(check, named):
    # NaN compares false with everything, so a running maximum drops it
    res = check(m.build_trace(m.build_model("two-scale", alpha=0.25), 4))
    assert not res.passed and math.isnan(res.max_abs_err)
    assert named.items() <= res.detail.items(), res.detail


def test_single_value_checks_name_both_sides_of_their_comparison():
    trace = m.build_trace(m.build_model("two-scale", alpha=0.25), 4)
    eps = max(trace.m, 1) * float(np.abs(trace.table.rows).max())
    trace.Q[0] = np.nan
    bounds = {r.name: r for r in m.check_trace(trace, eps)[6:]}
    trace.table.rows[5, 1] = np.nan
    truncation = {r.name: r for r in m.check_truncation(trace, eps=0.5).results}
    for res in (*bounds.values(), *truncation.values()):
        assert "" not in (res.detail or {}), res
    for res in (bounds["mean-quadratic-variation"], bounds["variance-bound"], truncation["tail-variance-bound"]):
        assert not res.passed and math.isnan(res.max_abs_err)
        assert {"lhs", "rhs"} <= set(res.detail), res.detail
    assert {"var_q_over_eps2_sigma2", "max_dm_over_eps"} <= set(bounds["variance-bound"].detail)


# ---------------------------------------------------------------------------
# the exact increment law against the trace


def _merged(atoms, tol):
    """Atoms (max, q, p) with those within tol of each other in both
    coordinates added into one."""
    out = []
    for x, q, p in sorted(atoms):
        near = [a for a in out if abs(a[0] - x) <= tol and abs(a[1] - q) <= tol]
        if near:
            near[0][2] += p
        else:
            out.append([x, q, p])
    return out


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
        (m.build_model("two-scale", alpha=0.25), 1),
        (m.build_model("two-scale", alpha=0.25), 2),
    ],
)
def test_closed_form_increments_match_enumeration(model, n):
    """The exact law of (max_k |dM_k|/sigma_n, Q_n/sigma_n^2) must be the
    law the partition-average martingale takes over every outcome,
    including the unresolved-prefix cases, in atoms and probabilities."""
    tol = 1e-12
    _, atoms = mart._increment_law(model, n)
    exact = _merged(atoms, tol)
    assert all(abs(a[0] - b[0]) > 2 * tol or abs(a[1] - b[1]) > 2 * tol for a, b in zip(exact, exact[1:]))
    trace = m.build_trace(model, n)
    sigma2 = trace.sigma2
    mass = [0.0] * len(exact)
    for x, q, p in zip(np.abs(trace_dM(trace)).max(axis=1) / math.sqrt(sigma2), trace.Q / sigma2, trace.table.probs):
        [j] = [j for j, a in enumerate(exact) if abs(a[0] - x) <= tol and abs(a[1] - q) <= tol]
        mass[j] += p
    assert mass == pytest.approx([p for _, _, p in exact], abs=tol)


def test_closed_form_rejects_moving_average():
    ma = m.build_model("moving-average", coeffs=(1.0, 0.5))
    with pytest.raises(m.UnsupportedFamilyError):
        mart._increment_law(ma, 8)


def test_unsupported_row_error_names_the_model():
    ma = m.build_model("moving-average", coeffs=(1.0, 0.0, -0.5), innovation="normal")
    with pytest.raises(m.UnsupportedFamilyError) as exc:
        mart._increment_law(ma, 8)
    assert ma.describe() in str(exc.value)


@pytest.mark.parametrize(
    "model,n",
    [
        (m.build_model("iid-baseline", innovation="normal"), 32),
        (m.build_model("tail-coupled", m_schedule=m.Schedule("power", 0.25)), 64),
        (m.build_model("block-repeat", innovation="normal", m_schedule=3, spike_frac=0.6), 60),
    ],
)
def test_gaussian_law_agrees_with_a_seeded_monte_carlo(model, n):
    # each innovation's increment is w * Z (w in units of sigma_n); draw them
    # directly, independently of the library's law
    groups, atoms = mart._increment_law(model, n)
    assert atoms is None
    rng = np.random.default_rng(20)
    reps = 20_000
    max_abs = np.zeros(reps)
    q = np.zeros(reps)
    for count, w in groups:
        z = w * rng.standard_normal((reps, count))
        np.maximum(max_abs, np.abs(z).max(axis=1), out=max_abs)
        q += (z**2).sum(axis=1)
    row = mart._hh_row(model, n)
    for key, sample in (("max_dm_mean", max_abs), ("max_dm2_mean", max_abs**2), ("q_mean", q)):
        assert abs(row[key] - sample.mean()) <= 4 * sample.std() / math.sqrt(reps), key
    q_sd_se = math.sqrt(((q - q.mean()) ** 4).mean() - q.var() ** 2) / (2 * q.std() * math.sqrt(reps))
    assert abs(row["q_sd"] - q.std()) <= 4 * q_sd_se
    # the 95 % quantile: the exact one cuts the sample at 95 % within 4 se
    share = (max_abs <= row["max_dm_q95"]).mean()
    assert abs(share - 0.95) <= 4 * math.sqrt(0.95 * 0.05 / reps)


def test_gaussian_max_moments_of_one_normal():
    law = mart._gaussian_max_moments([(1, 1.0)])
    assert law["max_dm_q95"] == pytest.approx(1.959963984540054, rel=1e-14)
    assert law["max_dm_mean"] == pytest.approx(math.sqrt(2 / math.pi), rel=1e-10)
    assert law["max_dm2_mean"] == pytest.approx(1.0, rel=1e-10)


# ---------------------------------------------------------------------------
# the martingale-CLT hypotheses


def test_hh_iid_quadratic_variation_concentrates():
    iid = m.build_model("iid-baseline")
    rep = m.check_hh_hypotheses(iid, [2**6, 2**8, 2**10, 2**12])
    assert rep.quadratic_variation_concentrates
    assert rep.max_increment_vanishes
    assert rep.max_square_bounded
    # for the independent row, Q/sigma^2 = 1 exactly (signs square away)
    assert rep.rows[-1]["q_mean"] == 1.0 and rep.rows[-1]["q_sd"] == 0.0
    assert rep.rows[-1]["max_dm_q95"] == pytest.approx(2**-6, rel=1e-14)


def test_hh_two_scale_passes():
    ts = m.build_model("two-scale", alpha=0.3)
    rep = m.check_hh_hypotheses(ts, [2**6, 2**8, 2**10, 2**12])
    assert rep.passed
    assert rep.rows[-1]["q_mean"] == pytest.approx(1.0, abs=1e-14)


def test_hh_two_scale_at_scale():
    # what the sampled check read at n = 2^8, 2^11, 2^14, now exact: the
    # 95 % quantile is (n^-1/2 + n^-alpha) / sigma_n, and sd Q/sigma^2 is
    # 2 sqrt 2 n^-1/2 n^-alpha / sigma_n^2 up to terms of order 2^-n
    ts = m.build_model("two-scale", alpha=0.3)
    grid = [2**8, 2**11, 2**14, 2**17]
    rep = m.check_hh_hypotheses(ts, grid)
    assert rep.passed
    s2 = [m.exact_sigma2(ts, n) for n in grid]
    assert [row["max_dm_q95"] for row in rep.rows] == pytest.approx(
        [(n**-0.5 + n**-0.3) / math.sqrt(v) for n, v in zip(grid, s2)], rel=1e-14
    )
    assert [row["q_sd"] for row in rep.rows] == pytest.approx(
        [2 * math.sqrt(2) * n**-0.8 / v for n, v in zip(grid, s2)], rel=1e-12
    )
    assert [round(row["max_dm_q95"], 4) for row in rep.rows[:3]] == [0.2434, 0.1224, 0.0620]


def test_hh_tail_coupled_passes():
    tc = m.build_model("tail-coupled", m_schedule=m.Schedule("power", 0.25))
    rep = m.check_hh_hypotheses(tc, [2**6, 2**8, 2**10, 2**12])
    assert rep.passed


def test_hh_gaussian_block_repeat_passes():
    br = m.build_model("block-repeat", innovation="normal", m_schedule=m.Schedule("power", 0.25))
    assert m.check_hh_hypotheses(br, [2**6, 2**8, 2**10, 2**12]).passed


def test_hh_hypotheses_are_sufficient_not_necessary():
    # one Gaussian block carries 90 % of Var S_n, so S_n is exactly Gaussian
    # at every n, yet its increment does not vanish and Q_n does not
    # concentrate
    witness = m.model_from_config(
        {"family": "block-repeat", "beta": 0.25, "spike_frac": 0.9, "innovation": "normal"}
    )
    rep = m.check_hh_hypotheses(witness, [2**8, 2**12, 2**16, 2**20])
    assert not rep.max_increment_vanishes
    assert not rep.quadratic_variation_concentrates
    assert rep.max_square_bounded
    assert rep.rows[-1]["max_dm_q95"] > 1.8 and rep.rows[-1]["q_sd"] > 1.2


def test_hh_bounded_increment_bound_two_scale():
    # |dM| <= 4 * m * max|X| whenever the row is bounded, on every atom
    ts = m.build_model("two-scale", alpha=0.3)
    n = 2**8
    cap = 4 * (n**-0.5 + 2 * n**-0.3)
    _, atoms = mart._increment_law(ts, n)
    assert max(x for x, _, _ in atoms) * math.sqrt(m.exact_sigma2(ts, n)) <= cap


def test_hh_unsupported_family():
    ma = m.build_model("moving-average", coeffs=(1.0, 0.5))
    with pytest.raises(m.UnsupportedFamilyError):
        m.check_hh_hypotheses(ma, [64, 128, 256, 512])


def test_hh_grid_beyond_the_sample_cap_is_read_exactly():
    # no row is drawn, so n is not bounded by the sample cap
    iid = m.build_model("iid-baseline")
    rep = m.check_hh_hypotheses(iid, [2**30, 2**40, 2**50, 2**60])
    assert rep.passed
    assert rep.rows[-1]["max_dm_q95"] == 2.0**-30


def test_hh_reads_no_random_stream_and_no_scipy(tmp_path):
    # the law is exact: neither numpy.random nor scipy is loaded
    script = """
import sys
import mdepclt as m
for model in (m.build_model("two-scale", alpha=0.3), m.build_model("tail-coupled")):
    assert m.check_hh_hypotheses(model, [2**6, 2**8, 2**10, 2**12]).passed
for name in ("numpy.random", "scipy"):
    assert name not in sys.modules, name
"""
    src = str(Path(mart.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


_MA = m.build_model("moving-average", coeffs=(1.0, 0.5))


@pytest.mark.parametrize(
    "model,n_grid,error,needle",
    [
        (m.build_model("iid-baseline"), [], m.InsufficientGridError, "need >= 4 grid points, got 0"),
        (m.build_model("iid-baseline"), [64, 256, 1024], m.InsufficientGridError, "need >= 4 grid points, got 3"),
        (m.build_model("iid-baseline", amplitude=1e-200), [64, 256, 1024, 4096], m.DegenerateVarianceError, "sigma_n^2 = 0.0"),
        (m.build_model("iid-baseline", amplitude=1e160), [64, 256, 1024, 4096], m.DegenerateVarianceError, "sigma_n^2 = inf"),
        (_MA, [64, 256, 1024, 4096], m.UnsupportedFamilyError, _MA.describe()),
    ],
    ids=["empty-grid", "three-point-grid", "sigma2-underflow", "sigma2-overflow", "multi-tap-moving-average"],
)
def test_hh_rejects_what_it_cannot_handle_before_drawing(model, n_grid, error, needle):
    # unchecked, these end in inf/nan and all-zero rows that still read
    # max_square_bounded, or in a verdict from too few points
    with pytest.raises(error, match=re.escape(needle)):
        m.check_hh_hypotheses(model, n_grid)


_SPIKED = m.build_model("block-repeat", m_schedule=5, spike_frac=0.3)
_SPIKED_GRID = [100, 400, 1600, 6400]


def test_hh1_needs_more_than_rounding_to_read_as_a_decrease():
    # the spike block's increment is sqrt(spike_frac) * sigma_n at every n,
    # so the 95% quantile of max|dM|/sigma_n is constant up to rounding
    rep = m.check_hh_hypotheses(_SPIKED, _SPIKED_GRID)
    q95 = [row["max_dm_q95"] for row in rep.rows]
    assert q95 == pytest.approx([math.sqrt(0.3)] * 4, rel=1e-14)
    assert not rep.max_increment_vanishes


def test_hh1_margin_absorbs_a_last_bit_decrease(monkeypatch):
    # a rounding-sized fall of the quantile at the largest n is not a trend:
    # the verdict's slope margin is far wider than a last bit
    hh_row = mart._hh_row

    def rounded_down(model, n):
        row = hh_row(model, n)
        return {**row, "max_dm_q95": row["max_dm_q95"] * (1.0 - 2.0**-52)} if n == 6400 else row

    monkeypatch.setattr(mart, "_hh_row", rounded_down)
    rep = m.check_hh_hypotheses(_SPIKED, _SPIKED_GRID)
    assert rep.rows[-1]["max_dm_q95"] < rep.rows[0]["max_dm_q95"]
    assert not rep.max_increment_vanishes


# ---------------------------------------------------------------------------
# export


def test_oracle_work_counts_at_two_scale_n_8(monkeypatch):
    # no column is sorted for its ranks, which come from the entry atoms;
    # build_trace takes M_k as one cell mean of the row sums per level (a
    # count and a weighted sum each, 9 levels), and a summary the cell
    # means of every level (a count and 8 means each) and the tower check's
    # 8 cell sums: fixed counts, so extra work shows without a timing
    ts = m.build_model("two-scale", alpha=0.25)
    calls = {"unique": 0, "bincount": 0}
    unique, bincount = np.unique, np.bincount

    def counted_unique(a, *args, **kwargs):
        calls["unique"] += np.size(a) == 2**17
        return unique(a, *args, **kwargs)

    def counted_bincount(*args, **kwargs):
        calls["bincount"] += 1
        return bincount(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted_unique)
    monkeypatch.setattr(np, "bincount", counted_bincount)
    trace = m.build_trace(ts, 8)
    assert calls == {"unique": 0, "bincount": 18}
    # the trace keeps no cell means
    assert [f.name for f in dataclasses.fields(trace)] == ["model", "n", "m", "table", "M_cells", "Q", "q", "prefix_ids"]
    calls["bincount"] = 0
    m.trace_summary(trace)
    assert calls["bincount"] == 89
    # one walk, which reads M's columns once for every check
    passes = {"m_columns": 0}
    m_columns = mart.MartingaleTrace.m_columns

    def counted_m_columns(self):
        passes["m_columns"] += 1
        return m_columns(self)

    monkeypatch.setattr(mart.MartingaleTrace, "m_columns", counted_m_columns)
    m.trace_summary(trace)
    assert passes["m_columns"] == 1
    passes["m_columns"] = 0
    m.check_trace(trace)
    assert passes["m_columns"] == 1


def test_oracle_work_counts_on_a_wide_row(monkeypatch):
    # block-repeat m = 300 at n = 300: 2 outcomes and 300 columns.  Each
    # slice of W is one block, so a summary makes per level one count and
    # one block bincount, and the tower's 300 cell sums (90 901 when every
    # variable of every slice took its own bincount)
    trace = m.build_trace(m.build_model("block-repeat", m_schedule=300), 300)
    N, n_out = trace.table.columns.shape
    assert (N, n_out) == (300, 2)
    blocks = -(-N * n_out // max(n_out, mart._C_BLOCK))
    calls = {"bincount": 0}
    bincount = np.bincount

    def counted_bincount(*args, **kwargs):
        calls["bincount"] += 1
        return bincount(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", counted_bincount)
    m.trace_summary(trace)
    assert blocks == 1 and calls["bincount"] == (N + 1) * (1 + blocks) + N == 902


#: rows whose every slice is one block, read again in blocks of 1, 2, 3
#: and 5 variables; on the last, m >= N, so every window spans blocks
_BLOCK_ROWS = [
    (m.build_model("two-scale", alpha=0.3), 6),
    (m.build_model("iid-baseline"), 7),
    (m.build_model("moving-average", coeffs=(1.0, -0.5, 0.25), amplitude=2.5), 9),
    (m.build_model("block-repeat", m_schedule=3), 9),
    (m.build_model("block-repeat", m_schedule=40), 40),
]


@pytest.mark.parametrize("rows", [1, 2, 3, 5])
@pytest.mark.parametrize("model,n", _BLOCK_ROWS, ids=lambda v: v.describe() if isinstance(v, m.ArrayModel) else str(v))
def test_the_walk_does_not_depend_on_the_block_size(monkeypatch, model, n, rows):
    # every result, failures and their first worst entries included, is
    # the one-block walk's to the bit: the window's sums add their rows in
    # order across blocks.  Entries are bumped in the past, the window and
    # the future, two equal worst |W| go into the first and the last
    # variable, the last at the first outcome, which comes first in C
    # order, and a NaN goes into the last variable
    trace = m.build_trace(model, n)
    n_out, N = trace.table.rows.shape
    assert N * n_out <= mart._C_BLOCK

    def bump(k, Wk):
        if k == N // 2:
            Wk[n_out // 3, [0, k, N - 1]] += 1e-3
            Wk[0, N - 1] = Wk[n_out - 1, 0] = 5.0

    def nan(k, Wk):
        if k == 1:
            Wk[n_out // 2, N - 1] = np.nan

    def walks():
        eps = max(trace.m, 1) * float(np.abs(trace.table.rows).max())
        bad = [_perturbed(trace, edit) for edit in (bump, nan)]
        return [repr(mart._walk(t, e)) for t in [trace, *bad] for e in (None, 2 * eps)]

    whole = walks()
    monkeypatch.setattr(mart, "_C_BLOCK", rows * n_out)
    assert len(list(trace.w_blocks(0))) == -(-N // rows)
    assert walks() == whole


def test_trace_summary_builds_each_slice_once(traces):
    # the structure and bound checks share one pass over W
    _, _, trace = traces["two-scale(alpha=0.3)"]
    calls = []
    counted = _perturbed(trace, lambda k, Wk: calls.append(k))
    summary = m.trace_summary(counted)
    assert summary["structure_passed"] and summary["bounds_passed"]
    N = trace.table.rows.shape[1]
    assert sorted(calls) == list(range(N + 1))


#: the rows demos/martingale_oracle.py checks
_DEMO_ROWS = [
    (m.build_model("iid-baseline"), 8),
    (m.build_model("moving-average", coeffs=(1.0, 0.5)), 7),
    (m.build_model("block-repeat", m_schedule=2), 8),
    (m.build_model("two-scale", alpha=0.3), 6),
]


def test_check_trace_returns_the_eleven_checks_in_order(traces):
    _, _, trace = traces["two-scale(alpha=0.3)"]
    assert [res.name for res in m.check_trace(trace)] == [
        "measurable-past",
        "independent-future",
        "window-difference",
        "partial-sum-form",
        "endpoint",
        "tower-mean-zero",
        "conditional-bound",
        "increment-bound",
        "prefix-gap",
        "mean-quadratic-variation",
        "variance-bound",
    ]


@pytest.mark.parametrize("model,n", _DEMO_ROWS, ids=lambda v: v.describe() if isinstance(v, m.ArrayModel) else str(v))
def test_check_trace_defaults_to_the_smallest_eps_the_bounds_apply_to(model, n):
    # eps = max(m, 1) * max|X|, as trace_summary reports it; each call
    # builds each slice of W once
    trace = m.build_trace(model, n)
    eps = max(trace.m, 1) * float(np.abs(trace.table.rows).max())
    calls = []
    counted = _perturbed(trace, lambda k, Wk: calls.append(k))
    N = trace.table.rows.shape[1]
    default = m.check_trace(counted)
    assert sorted(calls) == list(range(N + 1))
    calls.clear()
    assert m.check_trace(counted, eps) == default
    assert sorted(calls) == list(range(N + 1))
    assert m.trace_summary(trace)["eps"] == eps


@pytest.mark.parametrize(
    "i,k,value,identity,named",
    [
        (2, 3, 1e-3, "measurable-past", {"i": 2, "k": 3}),
        (3, 3, 1e-3, "partial-sum-form", {"k": 3}),
        (4, 2, 1e-3, "independent-future", {"i": 4, "k": 2}),
        (3, 3, 5.0, "conditional-bound", {"i": 3, "k": 3}),
    ],
    ids=["past", "window", "future", "above-eps-over-m"],
)
def test_a_failing_check_is_named_from_its_one_walk(traces, i, k, value, identity, named):
    # a failure rebuilds no slice: each check still builds each slice once
    _, _, trace = traces["two-scale(alpha=0.3)"]
    N = trace.table.rows.shape[1]
    eps = max(trace.m, 1) * float(np.abs(trace.table.rows).max())
    calls = []

    def edit(kk, Wk):
        calls.append(kk)
        if kk == k:
            Wk[11, i] += value

    bad = _perturbed(trace, edit)
    assert not m.trace_summary(bad)["checks"][identity]
    assert sorted(calls) == list(range(N + 1))
    calls.clear()
    results = {res.name: res for res in m.check_trace(bad, eps)}
    assert sorted(calls) == list(range(N + 1))
    assert {"outcome": 11, **named, "identity": identity}.items() <= results[identity].detail.items()


def test_trace_summary_fields(traces):
    model, n, trace = traces["two-scale(alpha=0.3)"]
    summary = m.trace_summary(trace)
    assert summary["eps"] == max(trace.m, 1) * float(np.abs(trace.table.rows).max())
    for key in ("n", "sigma2", "sum_q", "var_q", "max_abs_dm", "structure_passed"):
        assert key in summary
    assert summary["structure_passed"] and summary["tower_passed"] and summary["bounds_passed"]
    assert summary["sum_q"] == pytest.approx(summary["sigma2"], abs=1e-10)


@pytest.mark.parametrize("config,n", [({"family": "block-repeat", "m": 3}, 9), ({"family": "block-repeat", "m": 300}, 300)])
def test_block_rows_are_exact(config, n):
    # a row of independent blocks reveals each block's share of S_n at the
    # block's first entry, so Q_n is the same on every outcome and E Q_n is
    # sigma_n^2 to the bit, as M_k is a cell mean of the row sums
    summary = m.trace_summary(m.build_trace(m.model_from_config(config), n))
    assert summary["var_q"] == 0.0
    assert summary["sum_q"] == summary["sigma2"]
