"""Acceptance suite: one test per criterion, one summary line each.

Grid choices that differ from the everyday default are stated inline: the
slope criteria run on exact closed-form values, so wider or shifted dyadic
grids cost nothing and remove the finite-size bias of the smallest sizes.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

import mdepclt as m
from mdepclt import conditions as c
from mdepclt.laws import normal_tail_second_moment

from conftest import record_acceptance

DEFAULT_GRID = list(c.DEFAULT_N_GRID)  # 2^6 .. 2^14
SLOPE_GRID = [2**k for k in range(10, 19)]  # shifted: constants decayed
WIDE_GRID = [2**k for k in range(6, 19)]  # wide: floor-schedule wobble averaged


@contextmanager
def criterion(idx: int, title: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        record_acceptance(f"criterion {idx} [{title}]: FAIL")
        raise
    record_acceptance(
        f"criterion {idx} [{title}]: PASS ({time.perf_counter() - start:.1f}s)"
    )


def test_criterion_1_two_scale_exact_variance():
    with criterion(1, "two-scale exact variance"):
        start = time.perf_counter()
        for alpha in (0.2, 0.25, 0.4):
            model = m.build_model("two-scale", alpha=alpha)
            for n in DEFAULT_GRID:
                assert abs(m.exact_sigma2(model, n) - (1 + 2 * n ** (-2 * alpha))) < 1e-12
            # independent confirmation by exhaustive enumeration
            for n in (3, 6, 9):
                table = m.enumerate_outcomes(model, n)
                assert abs(table.var_sum() - (1 + 2 * n ** (-2 * alpha))) < 1e-10
        assert time.perf_counter() - start < 5.0


def test_criterion_2_orey_counterexample():
    with criterion(2, "variance-sum condition fails, Lindeberg holds"):
        start = time.perf_counter()
        for alpha in (0.2, 0.25, 0.4):
            model = m.build_model("two-scale", alpha=alpha)
            rep = c.condition_report(m.orey_ratio, model, SLOPE_GRID)
            assert rep.verdict == "diverges"
            assert abs(rep.loglog_slope - (1 - 2 * alpha)) <= 0.02
            # the classical Lindeberg sum is exactly zero once the entry
            # bound n^(-1/2) + 2 n^(-alpha) drops below eps * sigma_n
            for eps in c.DEFAULT_EPS_GRID:
                for n in DEFAULT_GRID:
                    bound = n**-0.5 + 2 * n**-alpha
                    sigma = math.sqrt(m.exact_sigma2(model, n))
                    value = m.lindeberg_classic(model, n, eps).value
                    if bound <= eps * sigma:
                        assert value == 0.0
                    else:
                        assert value > 0.0
        assert time.perf_counter() - start < 5.0


def test_criterion_3_lyapunov_exponents():
    with criterion(3, "Lyapunov slopes 1 - r*alpha with sign flip"):
        alpha = 0.3  # 1/alpha between r = 3 and r = 4
        model = m.build_model("two-scale", alpha=alpha)
        slopes = {}
        for r in (3.0, 4.0, 6.0):
            rep = c.condition_report(m.lyapunov_ratio, model, DEFAULT_GRID, r=r)
            slopes[r] = rep.loglog_slope
            assert abs(rep.loglog_slope - (1 - r * alpha)) <= 0.05
        assert slopes[3.0] > 0 > slopes[4.0] > slopes[6.0]


def test_criterion_4_block_repeat_lindeberg_equivalence():
    with criterion(4, "repeated-block Lindeberg equivalence"):
        combos = [
            ("rademacher", 2, 16, 0.3),
            ("rademacher", 3, 30, 0.7),
            ("normal", 2, 50, 1.0),
            ("normal", 4, 64, 0.15),
            ("normal", 5, 40, 0.05),
        ]
        for innovation, mn, n, eps in combos:
            model = m.build_model("block-repeat", m_schedule=mn, innovation=innovation)
            lhs = m.lindeberg_mdep(model, n, eps).value
            sigma2 = m.exact_sigma2(model, n)
            t = eps * math.sqrt(sigma2)
            J = model.blocks(n)
            tail = normal_tail_second_moment(t) if innovation == "normal" else float(t < 1.0)
            assert abs(lhs - J * tail / sigma2) < 1e-10


def test_criterion_5_tail_coupled_thresholds():
    with criterion(5, "shared-tail Lyapunov threshold and block-criterion failure"):
        for r in (3.0, 4.0):
            b_star = (r - 2) / (2 * (r - 1))
            for db, expected in [
                (-0.15, "tends-to-zero"),
                (-0.07, "tends-to-zero"),
                (0.07, "diverges"),
                (0.15, "diverges"),
            ]:
                model = m.build_model(
                    "tail-coupled", m_schedule=m.Schedule("power", b_star + db)
                )
                rep = c.condition_report(m.lyapunov_ratio, model, WIDE_GRID, r=r)
                assert rep.verdict == expected, (r, db, rep.loglog_slope, rep.verdict)
        # any preset with m_n -> infinity must fail the block criterion
        for sched in (
            m.Schedule("power", 0.2),
            m.Schedule("power", 0.25),
            m.Schedule("power", 1 / 3),
            m.Schedule("log"),
        ):
            model = m.build_model("tail-coupled", m_schedule=sched)
            reports = c.component_reports(
                c.romano_wolf_check, model, WIDE_GRID, delta=2.0, gamma=0.0
            )
            assert not c.romano_wolf_holds(reports)


def test_criterion_6_martingale_proof_oracle():
    with criterion(6, "martingale identities, bounds, truncation"):
        start = time.perf_counter()
        cases = [
            (m.build_model("iid-baseline"), 10),
            (m.build_model("moving-average", coeffs=(1.0, 0.5)), 8),
            (m.build_model("block-repeat", m_schedule=2), 8),
            (m.build_model("two-scale", alpha=0.3), 6),
        ]
        for model, n in cases:
            trace = m.build_trace(model, n)
            for res in m.check_structure(trace, tol=1e-10):
                assert res.passed, (model.describe(), str(res))
            for res in m.check_tower(trace):
                assert res.passed, (model.describe(), str(res))
            assert abs(trace.q.sum() - m.exact_sigma2(model, n)) < 1e-10
            # increment and quadratic-variation bounds under |X| <= eps/m
            eps = max(trace.m, 1) * float(np.abs(trace.table.rows).max())
            results = m.check_bounds(trace, eps)
            for res in results:
                assert res.passed, (model.describe(), str(res))
            slack = results[-1].detail
            assert slack["var_q_over_eps2_sigma2"] <= 48.0
            assert slack["max_dm_over_eps"] <= 4.0
            # centred truncation split at a mid-support and a trivial eps
            for eps_t in (0.4, 5.0):
                chk = m.check_truncation(trace, eps_t)
                assert chk.passed, (model.describe(), eps_t)
        assert time.perf_counter() - start < 30.0


def test_criterion_7_clt_convergence():
    with criterion(7, "normal convergence and Lindeberg-violating control"):
        start = time.perf_counter()
        n, reps = 2**14, 10_000
        positives = [
            m.build_model("two-scale", alpha=0.25),
            m.build_model(
                "block-repeat", innovation="normal", m_schedule=m.Schedule("power", 0.25)
            ),
            m.build_model("moving-average", coeffs=(1.0, 0.5)),
        ]
        for model in positives:
            emp = m.simulate_normalized_sums(model, n, reps=reps, seed=42)
            ks = m.ks_statistic(emp)
            assert ks <= 0.03, (model.describe(), ks)
        # one block holding 90% of the variance: the limit is a normal
        # mixture about 0.16 away from Phi in sup distance
        control = m.build_model("block-repeat", m_schedule=1, spike_frac=0.9)
        sweep = m.convergence_sweep(control, [2**k for k in range(8, 15)], reps=4000, seed=42)
        for row in sweep.grid:
            assert row["ks_stat"] >= 0.1, row
        assert time.perf_counter() - start < 120.0


def test_criterion_8_condition_ordering():
    with criterion(8, "Lindeberg <= Rio <= Lyapunov orderings"):
        models = [
            m.build_model("iid-baseline"),
            m.build_model("two-scale", alpha=0.25),
            m.build_model("two-scale", alpha=0.4),
            m.build_model("block-repeat", m_schedule=2),
            m.build_model(
                "block-repeat", innovation="normal", m_schedule=m.Schedule("power", 0.25)
            ),
            m.build_model("tail-coupled", m_schedule=m.Schedule("power", 0.25)),
            m.build_model("moving-average", coeffs=(1.0, 0.5)),
        ]
        violations = 0
        for model in models:
            for n in DEFAULT_GRID:
                rio = m.rio_functional(model, n).value
                lyap = {r: m.lyapunov_ratio(model, n, r).value for r in (3.0, 4.0, 6.0)}
                if rio > lyap[3.0] * (1 + 1e-12) + 1e-15:
                    violations += 1
                for eps in c.DEFAULT_EPS_GRID:
                    lmd = m.lindeberg_mdep(model, n, eps, zero_m="promote").value
                    if lmd > rio / min(eps, 1.0) * (1 + 1e-12) + 1e-15:
                        violations += 1
                    for r, ly in lyap.items():
                        if lmd > eps ** (2 - r) * ly * (1 + 1e-12) + 1e-15:
                            violations += 1
        assert violations == 0
