"""Self-tests of the benchmark; fast, tiny inputs, no timing.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import math
import sys

import pytest

import run
import traced
import workloads
from reference import two_scale_dk

sys.path.insert(0, str(run.SRC))

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "oracle": ("--cmd", "oracle", "--config", workloads.TWO_SCALE_CONFIG, "--n-grid", "2,4", "--eps", "0.5"),
    "clt": ("--cmd", "clt", "--model", "tail-coupled", "--n-grid", "64,128", "--reps", "1000"),
    "sweep": ("--cmd", "sweep", "--n-grid", "6..9"),
    "conditions": ("--cmd", "conditions", "--model", "moving-average", "--n-grid", "6..9"),
}


@pytest.fixture(scope="module")
def tiny_traced(monkeypatch_module):
    monkeypatch_module.chdir(run.ROOT)
    return traced.traced_run(list(TINY.values()))


@pytest.fixture(scope="module")
def monkeypatch_module():
    with pytest.MonkeyPatch.context() as mp:
        yield mp


def _names(section):
    return [m["name"] for m in DECLARED[section]]


def _proc(stdout="", returncode=0):
    return run.Proc([], returncode, 1.0, 0.5, 0.1, 50.0, 1000, stdout, "")


def _fake_run(monkeypatch, steps, stdouts):
    """Gate `stdouts` through the real iteration loop, without processes."""
    outputs = iter(stdouts)
    monkeypatch.setattr(run, "launch", lambda args, env: _proc(next(outputs)))
    return run.run_iterations(steps, 0.0, {})


def _passing_oracle_payload():
    ref = workloads.load_reference("oracle-enum")
    return {
        "passed": True,
        "traces": [
            {"n": int(n), "outcomes": t["outcomes"], "sigma2": t["exact_sigma2"], "checks": dict.fromkeys(t["checks"], True)}
            for n, t in ref["traces"].items()
        ],
        "truncation": [{"n": n, "eps": eps, "passed": True} for n, eps in ref["truncation"]],
    }


def _clt_payload(family, seed, ks):
    ref = workloads.load_reference("clt-sample")
    return {
        "model": {"family": family},
        "grid": [{"n": n, "ks_stat": ks, "reps": ref["reps"], "seed": seed} for n in ref["n_grid"]],
    }


# ---------------------------------------------------------------------------
# every declared metric is emitted


def test_end_to_end_metrics_match_benchmark_json(monkeypatch):
    steps = workloads.WORKLOADS["oracle-enum"](1)
    iterations = _fake_run(monkeypatch, steps, [json.dumps(_passing_oracle_payload())])
    metrics, _ = run.end_to_end(iterations, [0.7, 0.8])
    assert sorted(metrics) == sorted(_names("end_to_end"))
    assert all(v > 0 for v in metrics.values())


def test_per_layer_metrics_match_benchmark_json(tiny_traced):
    layers = tiny_traced[0]
    assert sorted(layers) == sorted(traced.metric_names())
    emitted = list(run.proc_metrics([[(None, _proc(), [], 0)]])) + list(layers) + ["fail_rate"]
    assert sorted(emitted) == sorted(_names("per_layer"))


def test_tiny_traced_run_touches_every_layer(tiny_traced):
    layers, outputs, _, _ = tiny_traced
    assert [o["returncode"] for o in outputs] == [0, 0, 0, 0]
    for name in ("martingale.build_trace", "models.sample_row", "models.exact_sigma2", "conditions.condition_report"):
        assert layers[f"{name}.self_s"] > 0
    assert layers["martingale.check_truncation.calls"] == 2  # one eps, two sizes
    assert layers["montecarlo.replicates"] == 2000
    assert layers["models.sample_row.calls"] == 2000
    assert layers["models.values_drawn"] == 1000 * ((64 + 2) + (128 + 3))  # N_n = n + m_n
    assert 0 < layers["martingale.band_ratio"] < 1


def test_sweep_units_match_traced_condition_count():
    payloads, counts = [], []
    for args in (TINY["sweep"], TINY["conditions"]):
        layers, outputs, _, _ = traced.traced_run([args])
        payloads.append(json.loads(outputs[0]["stdout"]))
        counts.append(layers["conditions.values"])
    assert workloads.units_sweep(payloads[0]) == counts[0]
    assert workloads.units_conditions(payloads[1]) == counts[1]


# ---------------------------------------------------------------------------
# a tampered payload raises fail_rate


def test_untampered_oracle_payload_passes(monkeypatch):
    steps = workloads.WORKLOADS["oracle-enum"](1)
    iterations = _fake_run(monkeypatch, steps, [json.dumps(_passing_oracle_payload())])
    assert run._failures(iterations) == (1, 0)


@pytest.mark.parametrize(
    "tamper",
    [
        lambda p: p["traces"][1]["checks"].pop("tower-mean-zero"),
        lambda p: p["truncation"].pop(),
        lambda p: p["traces"][0].update(outcomes=256),
        lambda p: p["traces"][1].update(sigma2=p["traces"][1]["sigma2"] * (1 + 1e-9)),
        lambda p: p.update(passed=False),
    ],
    ids=["dropped-check", "dropped-truncation", "outcomes", "sigma2", "passed"],
)
def test_tampered_oracle_payload_fails(monkeypatch, tamper):
    payload = _passing_oracle_payload()
    tamper(payload)
    steps = workloads.WORKLOADS["oracle-enum"](1)
    iterations = _fake_run(monkeypatch, steps, [json.dumps(payload)])
    assert run._failures(iterations) == (1, 1)
    metrics, _ = run.end_to_end(iterations, [0.7])
    assert metrics["pass_rate"] == 0.0


def test_ks_above_band_fails(monkeypatch):
    ref = workloads.load_reference("clt-sample")
    steps = workloads.WORKLOADS["clt-sample"](7)
    inside = ref["band"]  # d_K >= 0, so the band itself is always admissible
    outside = ref["band"] + ref["d_K"]["two-scale"]["4096"] + 1e-6
    stdouts = [
        json.dumps(_clt_payload("two-scale", 7, outside)),
        json.dumps(_clt_payload("tail-coupled", 7, inside)),
    ]
    iterations = _fake_run(monkeypatch, steps, stdouts)
    assert run._failures(iterations) == (2, 1)
    assert [bool(problems) for _, _, problems, _ in iterations[0]] == [True, False]


def test_sweep_value_drift_fails():
    ref = workloads.load_reference("sweep-exact")["conditions"]
    payload = {
        "model": ref["model"],
        "reports": [
            {"condition_id": r["condition_id"], "verdict": r["verdict"],
             "grid": [{"n": n, "value": v} for n, v in zip(r["n"], r["value"])]}
            for r in ref["reports"]
        ],
    }
    assert workloads.gate_conditions(payload, ref) == []
    bad = copy.deepcopy(payload)
    bad["reports"][-1]["grid"][3]["value"] *= 1 + 1e-10
    assert workloads.gate_conditions(bad, ref)
    sweep = workloads.load_reference("sweep-exact")["sweep"]
    flipped = copy.deepcopy(sweep)
    flipped["rows"][0]["orey"] = not flipped["rows"][0]["orey"]
    assert workloads.gate_sweep(sweep, sweep) == []
    assert workloads.gate_sweep(flipped, sweep)


def test_failed_process_counts(monkeypatch):
    steps = workloads.WORKLOADS["sweep-exact"](1)
    monkeypatch.setattr(run, "launch", lambda args, env: _proc("", returncode=1))
    iterations = run.run_iterations(steps, 0.0, {})
    assert run._failures(iterations) == (2, 2)


# ---------------------------------------------------------------------------
# traced self times


def test_traced_self_times_are_consistent(tiny_traced):
    _, _, spans, wall = tiny_traced
    selfs = traced.self_times(spans)
    assert min(selfs.values()) >= 0.0
    assert sum(selfs.values()) <= wall
    roots = [s for s in spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.run"] * len(TINY)
    assert [s[4] for s in roots] == list(range(len(TINY)))


# ---------------------------------------------------------------------------
# the exact distance behind the KS gate


def test_two_scale_dk_matches_enumeration():
    from mdepclt import build_model, enumerate_outcomes, exact_sigma2
    from scipy.special import ndtr

    model = build_model("two-scale", alpha=0.25)
    for n in (4, 5, 8):
        table = enumerate_outcomes(model, n)
        z = table.row_sums() / math.sqrt(exact_sigma2(model, n))
        atoms = {round(v, 9): v for v in z}.values()  # one actual value per atom
        worst = 0.0
        for a in atoms:
            below = float(table.probs[z < a - 1e-9].sum())
            upto = float(table.probs[z <= a + 1e-9].sum())
            phi = float(ndtr(a))
            worst = max(worst, abs(below - phi), abs(upto - phi))
        assert two_scale_dk(0.25, n) == pytest.approx(worst, abs=1e-12)
