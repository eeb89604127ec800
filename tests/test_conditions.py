"""Condition functionals: frozen exact values, orderings, verdicts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdepclt as m
from mdepclt import cli
from mdepclt import conditions as c
from mdepclt.laws import normal_tail_second_moment

from conftest import marginal_law, sample_row

GRID = list(cli.DEFAULT_N_GRID)
WIDE_GRID = [2**k for k in range(6, 19)]


def catalogue():
    return [
        m.build_model("iid-baseline"),
        m.build_model("two-scale", alpha=0.25),
        m.build_model("two-scale", alpha=0.4),
        m.build_model("block-repeat", m_schedule=2),
        m.build_model("block-repeat", m_schedule=m.Schedule("power", 0.25), innovation="normal"),
        m.build_model("tail-coupled", m_schedule=m.Schedule("power", 0.25)),
        m.build_model("moving-average", coeffs=(1.0, 0.5)),
    ]


# ---------------------------------------------------------------------------
# single-variable tails


def test_tail_second_moment_rademacher_atoms():
    law = marginal_law(m.build_model("iid-baseline"), 9, 1)
    a2 = 1 / 9  # squared atom at n = 9
    assert law.tail_second_moment(0.2) == pytest.approx(a2, abs=1e-15)
    assert law.tail_second_moment(1 / 3) == 0.0
    # t = 0 returns the full second moment
    assert law.tail_second_moment(0.0) == pytest.approx(a2, abs=1e-15)


def test_tail_second_moment_gaussian_closed_form():
    tc = m.build_model("tail-coupled", m_schedule=2)
    assert marginal_law(tc, 16, 1).tail_second_moment(1.0) == pytest.approx(
        normal_tail_second_moment(1.0), abs=1e-14
    )


@pytest.mark.parametrize(
    "model,n,i,t",
    [
        (m.build_model("two-scale", alpha=0.3), 32, 3, 0.3),
        (m.build_model("tail-coupled", m_schedule=2), 16, 2, 1.0),
        (m.build_model("moving-average", coeffs=(1.0, 0.5)), 32, 4, 0.2),
    ],
)
def test_tail_second_moment_mc_agrees_with_exact(model, n, i, t):
    exact = marginal_law(model, n, i).tail_second_moment(t)
    reps = 4000
    vals = np.empty(reps)
    for r in range(reps):
        x = sample_row(model, n, seed=5, replicate=r)[i - 1]
        vals[r] = x * x if abs(x) > t else 0.0
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - exact) <= 4 * se


# ---------------------------------------------------------------------------
# frozen exact values


def test_iid_lyapunov_r4_is_one_over_n():
    # E|X|^4 = n^-2 summed over n entries, sigma = 1, m floored at 1
    iid = m.build_model("iid-baseline")
    for n in (16, 64, 1024):
        assert m.lyapunov_ratio(iid, n, 4).value == pytest.approx(1 / n, rel=1e-12)


def test_two_scale_orey_value():
    ts = m.build_model("two-scale", alpha=0.25)
    # n Var X_1 / sigma^2 with Var X_1 = 1/n + 2 n^(-1/2): at n = 16,
    # sum of variances = 1 + 2 * 4 = 9 and sigma^2 = 1.5
    cv = m.orey_ratio(ts, 16)
    assert cv.value == pytest.approx(9.0 / 1.5, abs=1e-12)


def test_iid_orey_is_exactly_one():
    iid = m.build_model("iid-baseline")
    for n in (7, 64):
        assert m.orey_ratio(iid, n).value == pytest.approx(1.0, abs=1e-14)


def test_iid_rio_reduces_to_third_moment_sum():
    # |X| = n^(-1/2) <= sigma/m, so the cap never binds:
    # rio = (m^2/sigma^3) sum E|X|^3 = n * n^(-3/2) = n^(-1/2)
    iid = m.build_model("iid-baseline")
    for n in (16, 256):
        assert m.rio_functional(iid, n).value == pytest.approx(n**-0.5, rel=1e-12)


def test_two_scale_lindeberg_vanishes_beyond_bound():
    # |X| <= n^(-1/2) + 2 n^(-alpha): once that is <= eps sigma_n the
    # indicator can never fire and the functional is exactly zero
    alpha, eps = 0.25, 0.5
    ts = m.build_model("two-scale", alpha=alpha)
    for n in GRID:
        sigma = math.sqrt(m.exact_sigma2(ts, n))
        bound = n**-0.5 + 2 * n**-alpha
        cv = m.lindeberg_classic(ts, n, eps)
        if bound <= eps * sigma:
            assert cv.value == 0.0
        else:
            assert cv.value > 0.0


def test_lindeberg_mdep_equals_classic_when_m_is_one():
    ts = m.build_model("two-scale", alpha=0.3)
    for n in (16, 128):
        for eps in (0.1, 0.5):
            assert m.lindeberg_mdep(ts, n, eps).value == pytest.approx(
                m.lindeberg_classic(ts, n, eps).value, abs=1e-15
            )


def test_lindeberg_mdep_zero_m_contract():
    # an independent row (m_n = 0) is read as 1-dependent
    iid = m.build_model("iid-baseline")
    promoted = m.lindeberg_mdep(iid, 16, 0.5)
    assert promoted.value == pytest.approx(m.lindeberg_classic(iid, 16, 0.5).value, abs=1e-15)


@pytest.mark.parametrize("innovation", ["rademacher", "normal"])
@pytest.mark.parametrize("mn,n,eps", [(2, 16, 0.3), (3, 30, 0.7), (4, 64, 0.15), (2, 50, 1.0), (5, 40, 0.05)])
def test_block_repeat_mdep_lindeberg_equals_y_array_classic(innovation, mn, n, eps):
    """The repeated-block array's modified functional equals the plain
    Lindeberg functional of the underlying independent innovations."""
    br = m.build_model("block-repeat", m_schedule=mn, innovation=innovation)
    lhs = m.lindeberg_mdep(br, n, eps).value
    # independent oracle: J unit-variance innovations at threshold
    # eps * sigma, summed and divided by sigma^2
    sigma2 = m.exact_sigma2(br, n)
    t = eps * math.sqrt(sigma2)
    J = br.blocks(n)
    if innovation == "normal":
        tail = normal_tail_second_moment(t)
    else:
        tail = 1.0 if t < 1.0 else 0.0
    rhs = J * tail / sigma2
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_block_repeat_classic_lindeberg_relation():
    # X = Y/m repeated m times: the plain functional of the X-array equals
    # 1/m times the plain functional of the Y-array at threshold m*eps*sigma
    br = m.build_model("block-repeat", m_schedule=2, innovation="normal")
    n, eps = 8, 0.5
    sigma2 = m.exact_sigma2(br, n)
    t_y = 2 * eps * math.sqrt(sigma2)
    J = br.blocks(n)
    y_sum = J * normal_tail_second_moment(t_y) / sigma2
    assert m.lindeberg_classic(br, n, eps).value == pytest.approx(y_sum / 2, abs=1e-12)


def test_two_scale_lyapunov_matches_direct_sum():
    # independent oracle: six-point support summed by hand
    alpha, r, n = 0.3, 4.0, 64
    ts = m.build_model("two-scale", alpha=alpha)
    acc = 0.0
    for s, ps in ((-1, 0.5), (1, 0.5)):
        for d, pd in ((-2, 0.25), (0, 0.5), (2, 0.25)):
            acc += ps * pd * abs(s * n**-0.5 + d * n**-alpha) ** r
    sigma = math.sqrt(m.exact_sigma2(ts, n))
    expect = n * acc / sigma**r
    assert m.lyapunov_ratio(ts, n, r).value == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# orderings (pointwise inequalities between the functionals)


@pytest.mark.parametrize("model", catalogue(), ids=lambda mod: mod.describe())
def test_condition_ordering_chain(model):
    for n in (64, 256, 1024):
        lyap3 = m.lyapunov_ratio(model, n, 3).value
        rio = m.rio_functional(model, n).value
        assert rio <= lyap3 * (1 + 1e-12) + 1e-15
        for eps in cli.DEFAULT_EPS_GRID:
            lmd = m.lindeberg_mdep(model, n, eps).value
            assert lmd <= rio / min(eps, 1.0) * (1 + 1e-12) + 1e-15
            for r in (3.0, 4.0, 6.0):
                lyap = m.lyapunov_ratio(model, n, r).value
                assert lmd <= eps ** (2 - r) * lyap * (1 + 1e-12) + 1e-15


@pytest.mark.parametrize("model", catalogue(), ids=lambda mod: mod.describe())
def test_lindeberg_monotone_in_eps(model):
    for n in (64, 512):
        eps_grid = sorted(cli.DEFAULT_EPS_GRID)
        classic = [m.lindeberg_classic(model, n, e).value for e in eps_grid]
        mdep = [m.lindeberg_mdep(model, n, e).value for e in eps_grid]
        assert all(a >= b - 1e-15 for a, b in zip(classic, classic[1:]))
        assert all(a >= b - 1e-15 for a, b in zip(mdep, mdep[1:]))


@given(
    alpha=st.floats(0.05, 0.45),
    eps=st.floats(0.01, 2.0),
    n=st.integers(8, 4096),
    r=st.floats(2.1, 6.0),
)
@settings(max_examples=60, deadline=None)
def test_ordering_chain_fuzz(alpha, eps, n, r):
    model = m.build_model("two-scale", alpha=alpha)
    lmd = m.lindeberg_mdep(model, n, eps).value
    rio = m.rio_functional(model, n).value
    lyap_r = m.lyapunov_ratio(model, n, r).value
    lyap_3 = m.lyapunov_ratio(model, n, 3).value
    slack = 1 + 1e-12
    assert lmd <= eps ** (2 - r) * lyap_r * slack + 1e-15
    assert lmd <= rio / min(eps, 1.0) * slack + 1e-15
    assert rio <= lyap_3 * slack + 1e-15


@given(st.floats(0.1, 10.0))
@settings(max_examples=20, deadline=None)
def test_functionals_are_scale_free(factor):
    base = m.build_model("two-scale", alpha=0.3)
    scaled = m.build_model("two-scale", alpha=0.3, amplitude=factor)
    n = 128
    assert m.lindeberg_classic(scaled, n, 0.3).value == pytest.approx(
        m.lindeberg_classic(base, n, 0.3).value, rel=1e-10, abs=1e-15
    )
    assert m.lindeberg_mdep(scaled, n, 0.3).value == pytest.approx(
        m.lindeberg_mdep(base, n, 0.3).value, rel=1e-10, abs=1e-15
    )
    assert m.lyapunov_ratio(scaled, n, 4).value == pytest.approx(
        m.lyapunov_ratio(base, n, 4).value, rel=1e-10
    )
    assert m.orey_ratio(scaled, n).value == pytest.approx(
        m.orey_ratio(base, n).value, rel=1e-10
    )
    assert m.rio_functional(scaled, n).value == pytest.approx(
        m.rio_functional(base, n).value, rel=1e-10
    )


# ---------------------------------------------------------------------------
# slope fitting and verdicts


def _series(values, cid="test"):
    return [
        c.ConditionValue(cid, n, v, "closed-form") for n, v in zip(GRID[: len(values)], values)
    ]


def test_verdict_exact_power_law():
    values = [7.0 * n**-0.8 for n in GRID]
    rep = c.asymptotic_verdict(_series(values))
    assert rep.loglog_slope == pytest.approx(-0.8, abs=1e-12)
    assert rep.slope_std_err < 1e-12
    assert rep.verdict == "tends-to-zero"


def test_verdict_divergent_power_law():
    rep = c.asymptotic_verdict(_series([0.1 * n**0.5 for n in GRID]))
    assert rep.loglog_slope == pytest.approx(0.5, abs=1e-12)
    assert rep.verdict == "diverges"


def test_verdict_constant_series_is_bounded():
    rep = c.asymptotic_verdict(_series([3.7] * len(GRID)))
    assert abs(rep.loglog_slope) < 1e-12
    assert rep.verdict == "bounded"


def test_verdict_zero_short_circuits():
    rep = c.asymptotic_verdict(_series([1.0, 0.5, 0.0, 0.0, 0.0]))
    assert rep.verdict == "tends-to-zero"
    assert math.isnan(rep.loglog_slope)


def test_verdict_noisy_series_inconclusive():
    rng = np.random.default_rng(3)
    values = np.exp(rng.normal(0.0, 2.0, len(GRID)))
    rep = c.asymptotic_verdict(_series(list(values)))
    assert rep.verdict == "inconclusive"


def test_verdict_grid_validation():
    with pytest.raises(c.InsufficientGridError):
        c.asymptotic_verdict(_series([1.0, 2.0, 3.0]))
    bad = _series([1.0] * 5)
    bad[2] = c.ConditionValue("test", bad[1].n, 1.0, "closed-form")
    with pytest.raises(c.InsufficientGridError):
        c.asymptotic_verdict(bad)


def test_orey_two_scale_diverges_with_expected_slope():
    # the ratio (1 + 2 n^(1-2a))/(1 + 2 n^(-2a)) needs a grid starting above
    # 2^10 before the additive constants stop biasing the fitted slope
    slope_grid = [2**k for k in range(10, 19)]
    for alpha in (0.2, 0.25, 0.4):
        ts = m.build_model("two-scale", alpha=alpha)
        rep = c.condition_report(m.orey_ratio, ts, slope_grid)
        assert rep.verdict == "diverges"
        assert rep.loglog_slope == pytest.approx(1 - 2 * alpha, abs=0.02)


def test_lyapunov_two_scale_slopes_and_sign_flip():
    # value ~ 2^(r-1) n^(1-r*alpha): the sign of the slope flips as r
    # crosses 1/alpha (here between r = 3 and r = 4)
    ts = m.build_model("two-scale", alpha=0.3)
    slopes = {}
    for r in (3.0, 4.0, 6.0):
        rep = c.condition_report(m.lyapunov_ratio, ts, GRID, r=r)
        slopes[r] = rep.loglog_slope
        assert rep.loglog_slope == pytest.approx(1 - r * 0.3, abs=0.05)
    assert slopes[3.0] > 0 > slopes[4.0] > slopes[6.0]


def test_rio_two_scale_threshold_at_one_third():
    rio_03 = c.condition_report(m.rio_functional, m.build_model("two-scale", alpha=0.3), GRID)
    assert rio_03.verdict != "tends-to-zero"
    rio_04 = c.condition_report(m.rio_functional, m.build_model("two-scale", alpha=0.4), GRID)
    assert rio_04.verdict == "tends-to-zero"


def test_tail_coupled_lyapunov_boundary_slope_is_flat():
    # at beta = (r-2)/(2(r-1)) the power-law exponent vanishes; the floor
    # schedule leaves only a small wobble
    tc = m.build_model("tail-coupled", m_schedule=m.Schedule("power", 0.25))
    rep = c.condition_report(m.lyapunov_ratio, tc, WIDE_GRID, r=3)
    assert abs(rep.loglog_slope) < 0.1


# ---------------------------------------------------------------------------
# vector checks


def test_berk_components_iid():
    iid = m.build_model("iid-baseline")
    reports = c.component_reports(c.berk_check, iid, GRID, delta=1.0)
    by_eq = {rep.eq: rep for rep in reports.values()}
    # sup moment n^{-3/2} bounded (vanishes), variance ratio 1/n -> 0:
    # the positive-limit requirement fails
    assert by_eq["berkiii"].verdict == "tends-to-zero"
    assert not all(c.holds(rep) for rep in reports.values())


def test_berk_holds_on_block_repeat():
    br = m.build_model("block-repeat", m_schedule=2)
    reports = c.component_reports(c.berk_check, br, GRID, delta=1.0)
    by_eq = {rep.eq: rep for rep in reports.values()}
    assert by_eq["berkiii"].verdict == "bounded"  # sigma^2/N = 1/m
    assert by_eq["berkiv"].verdict == "tends-to-zero"
    assert all(c.holds(rep) for rep in reports.values())


@pytest.mark.parametrize("delta,expect", [(0.5, False), (3.0, True)])
def test_berk_growth_component_threshold_tail_coupled(delta, expect):
    # m = floor(n^(1/4)): m^(2+2/delta)/N -> 0 iff (2+2/delta)/4 < 1,
    # i.e. iff delta > 1
    tc = m.build_model("tail-coupled", m_schedule=m.Schedule("power", 0.25))
    reports = c.component_reports(c.berk_check, tc, WIDE_GRID, delta=delta)
    by_eq = {rep.eq: rep for rep in reports.values()}
    assert (by_eq["berkiv"].verdict == "tends-to-zero") == expect


def test_romano_wolf_reduces_to_berk_at_gamma_zero():
    br = m.build_model("block-repeat", m_schedule=2)
    delta = 2.0
    rw = {cv.eq: cv for cv in c.romano_wolf_check(br, 64, delta)}
    berk = {cv.eq: cv for cv in c.berk_check(br, 64, delta)}
    assert rw["RW6"].value == pytest.approx(berk["berkiv"].value, rel=1e-12)
    assert rw["RW1"].value == pytest.approx(1.0, abs=1e-12)  # sup-moment preset
    assert rw["RW3"].value == pytest.approx(1.0, abs=1e-12)  # largest admissible L


@pytest.mark.parametrize(
    "schedule",
    [m.Schedule("power", 0.2), m.Schedule("power", 0.25), m.Schedule("power", 1 / 3), m.Schedule("log")],
    ids=["n^0.2", "n^0.25", "n^(1/3)", "log"],
)
def test_romano_wolf_fails_for_growing_m_tail_coupled(schedule):
    # the shared tail variable forces the window-variance component to grow
    # like m_n, so no admissible (Delta, L) choice can rescue the criterion
    tc = m.build_model("tail-coupled", m_schedule=schedule)
    reports = c.component_reports(c.romano_wolf_check, tc, WIDE_GRID, delta=2.0)
    assert not all(c.holds(rep) for rep in reports.values())
    by_eq = {rep.eq: rep for rep in reports.values()}
    assert by_eq["RWvar"].verdict == "diverges"


@pytest.mark.parametrize(
    "model",
    [
        m.build_model("iid-baseline"),
        m.build_model("block-repeat", m_schedule=2),
        m.build_model("moving-average", coeffs=(1.0, 0.5)),
    ],
    ids=lambda mod: mod.family,
)
def test_romano_wolf_holds_for_fixed_m(model):
    reports = c.component_reports(c.romano_wolf_check, model, GRID, delta=2.0)
    assert all(c.holds(rep) for rep in reports.values())


def test_rw6_slope_matches_closed_form_exponent():
    # m = floor(n^(1/4)) is exact on n = j^4, removing the staircase bias;
    # the fitted slope of m^3/N then approaches the exponent 3/4 - 1
    tc = m.build_model("tail-coupled", m_schedule=m.Schedule("power", 0.25))
    grid = [j**4 for j in range(8, 25)]
    reports = c.component_reports(c.romano_wolf_check, tc, grid, delta=2.0)
    rep = {r.eq: r for r in reports.values()}["RW6"]
    assert rep.loglog_slope == pytest.approx(-0.25, abs=0.005)
    assert rep.verdict == "tends-to-zero"


def test_window_variance_component_value_tail_coupled():
    # wvar = m^2, so the component is m^2 * N / (m * sigma^2) ~ m
    tc = m.build_model("tail-coupled", m_schedule=4)
    cv = {v.eq: v for v in c.romano_wolf_check(tc, 256, 2.0)}["RWvar"]
    n, mn = 256, 4
    expect = mn**2 * (n + mn) / (mn * (n + mn**2))
    assert cv.value == pytest.approx(expect, rel=1e-12)


def test_condition_value_validation():
    with pytest.raises(ValueError):
        c.ConditionValue("x", 8, -0.1)
    with pytest.raises(ValueError):
        c.ConditionValue("x", 8, math.inf)
    cv = c.ConditionValue("x", 8, 0.1)
    assert (cv.method, cv.mc_std_err) == ("closed-form", 0.0)


def test_every_emitted_eq_token_has_a_holding_rule():
    model = m.build_model("block-repeat", m_schedule=2)
    values = [
        c.lindeberg_classic(model, 64, eps=0.5),
        c.lindeberg_mdep(model, 64, eps=0.5),
        c.lyapunov_ratio(model, 64, r=4.0),
        c.orey_ratio(model, 64),
        c.rio_functional(model, 64),
        *c.berk_check(model, 64, delta=2.0),
        *c.romano_wolf_check(model, 64, delta=2.0),
    ]
    assert {cv.eq for cv in values} == set(c.HOLDING_VERDICTS)
    assert all(set(ok) <= set(c.VERDICTS) for ok in c.HOLDING_VERDICTS.values())


@pytest.mark.parametrize(
    "model",
    [
        m.build_model("iid-baseline"),
        m.build_model("two-scale", alpha=0.25),
        m.build_model("moving-average", coeffs=(1.0, 0.5)),
    ],
    ids=lambda model: model.family,
)
@pytest.mark.parametrize("n", [1, 5, 64, 2**14])
@pytest.mark.parametrize("eps", [0.05, 0.3, 1.0, 4.0])
def test_classic_lindeberg_is_the_m_adapted_sum_where_m_is_at_most_one(model, n, eps):
    # the classic sum is the m-adapted one at m = 1: eps*sigma/1 and 1*total are exact
    assert model.m(n) <= 1
    assert c.lindeberg_classic(model, n, eps).value == c.lindeberg_mdep(model, n, eps).value


# ---------------------------------------------------------------------------
# serialization


def test_report_round_trips_to_json_and_csv():
    ts = m.build_model("two-scale", alpha=0.25)
    rep = c.condition_report(m.orey_ratio, ts, GRID)
    payload = {"reports": [c.report_to_dict(rep)]}
    blob = cli.payload_to_json(payload)
    assert '"verdict": "diverges"' in blob
    assert '"eq": "cond+"' in blob
    csv_text = cli.payload_to_csv("conditions", payload)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "condition_id,eq,n,value,method,mc_std_err,verdict"
    assert len(lines) == 1 + len(GRID)
