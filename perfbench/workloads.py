"""The benchmark's workloads: which CLI calls each one makes, how many work
units each call delivers, and the correctness gate each output must pass.

Every workload is a list of steps. A step is one `mdepclt` CLI process;
one iteration of a workload runs its steps one after another. Only the
`clt-sample` steps depend on the seed: it is passed through `--seed`.

The gates compare against `reference/*.json`, recorded on the base
commit with `reference.py`. They check what a verdict rests on, not how it
was computed, so an exact or streaming implementation still passes them.
This module imports neither numpy nor mdepclt: it runs inside run.py.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference"
#: relative to the checkout root, which is the working directory of every step
TWO_SCALE_CONFIG = "perfbench/configs/two-scale.json"

CLT_REPS = 3000
CLT_GRID = "12..14"
#: relative tolerance for the closed-form values the gates compare
EXACT_RTOL = 1e-12


@dataclass(frozen=True)
class Step:
    """One CLI process: its arguments, gate and work-unit count."""

    label: str
    args: tuple  # arguments after `python -m mdepclt.cli`
    gate: Callable[[dict], list]  # payload -> list of problems (empty: passed)
    units: Callable[[dict], int]  # payload -> work units delivered


@functools.cache
def load_reference(name: str) -> dict:
    with open(REFERENCE / f"{name}.json") as fh:
        return json.load(fh)


def _close(value: float, ref: float, rtol: float = EXACT_RTOL) -> bool:
    if math.isnan(ref):
        return math.isnan(value)
    return abs(value - ref) <= rtol * max(abs(value), abs(ref))


# ---------------------------------------------------------------------------
# oracle-enum


def gate_oracle(payload: dict, ref: dict) -> list:
    """Every oracle identity of the base commit is still asserted, and passes."""
    problems = []
    if payload.get("passed") is not True:
        problems.append("payload reports passed != true")
    traces = {str(t["n"]): t for t in payload.get("traces", [])}
    if sorted(traces) != sorted(ref["traces"]):
        problems.append(f"trace sizes {sorted(traces)} != {sorted(ref['traces'])}")
    for n, want in ref["traces"].items():
        got = traces.get(n)
        if got is None:
            continue
        if got.get("outcomes") != want["outcomes"]:
            problems.append(f"n={n}: {got.get('outcomes')} outcomes, base commit had {want['outcomes']}")
        checks = got.get("checks", {})
        if sorted(checks) != want["checks"]:
            problems.append(f"n={n}: checks {sorted(checks)} != {want['checks']}")
        failed = sorted(name for name, ok in checks.items() if ok is not True)
        if failed:
            problems.append(f"n={n}: failed checks {failed}")
        sigma2 = got.get("sigma2", float("nan"))
        if not abs(sigma2 - want["exact_sigma2"]) <= EXACT_RTOL * max(1.0, abs(want["exact_sigma2"])):
            problems.append(f"n={n}: sigma2 {sigma2!r} != exact_sigma2 {want['exact_sigma2']!r}")
    trunc = payload.get("truncation", [])
    pairs = sorted([t["n"], t["eps"]] for t in trunc)
    if pairs != sorted(ref["truncation"]):
        problems.append(f"truncation checks at {pairs} != {sorted(ref['truncation'])}")
    failed = [[t["n"], t["eps"]] for t in trunc if t.get("passed") is not True]
    if failed:
        problems.append(f"failed truncation checks {failed}")
    return problems


def units_oracle(payload: dict) -> int:
    """Outcomes verified, summed over n."""
    return sum(t["outcomes"] for t in payload["traces"])


# ---------------------------------------------------------------------------
# clt-sample


def gate_clt(payload: dict, ref: dict, family: str, seed: int) -> list:
    """Each KS distance lies within the Kolmogorov band of the replicate
    count plus the family's exact distance d_K to N(0,1).

    The bound holds whatever random stream a sampler uses, so exact or
    direct samplers pass it as long as they draw from the right law.
    """
    problems = []
    if payload.get("model", {}).get("family") != family:
        problems.append(f"model {payload.get('model')} is not {family}")
    grid = payload.get("grid", [])
    ns = [row["n"] for row in grid]
    if ns != ref["n_grid"]:
        problems.append(f"grid {ns} != {ref['n_grid']}")
    for row in grid:
        if row["reps"] != ref["reps"] or row["seed"] != seed:
            problems.append(f"n={row['n']}: reps {row['reps']}, seed {row['seed']}")
        limit = ref["band"] + ref["d_K"][family].get(str(row["n"]), math.inf)
        if not row["ks_stat"] <= limit:
            problems.append(f"n={row['n']}: ks_stat {row['ks_stat']:.5f} > {limit:.5f}")
    return problems


def units_clt(payload: dict) -> int:
    """Replicates drawn."""
    return sum(row["reps"] for row in payload["grid"])


# ---------------------------------------------------------------------------
# sweep-exact


def gate_sweep(payload: dict, ref: dict) -> list:
    """The verdict table equals the base commit's."""
    problems = []
    for key in ("n_grid", "eps", "r"):
        if payload.get(key) != ref[key]:
            problems.append(f"{key} {payload.get(key)} != {ref[key]}")
    if payload.get("rows") != ref["rows"]:
        got = {row.get("model"): row for row in payload.get("rows", [])}
        diff = [r["model"] for r in ref["rows"] if got.get(r["model"]) != r]
        problems.append(f"verdict table differs for {diff or 'the row list'}")
    return problems


def units_sweep(payload: dict) -> int:
    """Condition values behind the verdict table: per model, two Lindeberg
    series per eps, one Lyapunov series per r, Orey, Rio, and the 3 + 5
    components of the two block criteria, each over the whole n-grid."""
    per_model = 2 * len(payload["eps"]) + len(payload["r"]) + 2 + 3 + 5
    return len(payload["n_grid"]) * per_model * len(payload["rows"])


def condition_table(payload: dict) -> list:
    """The part of a conditions payload the gate compares."""
    return [
        {
            "condition_id": rep["condition_id"],
            "verdict": rep["verdict"],
            "n": [cv["n"] for cv in rep["grid"]],
            "value": [cv["value"] for cv in rep["grid"]],
        }
        for rep in payload["reports"]
    ]


def gate_conditions(payload: dict, ref: dict) -> list:
    """Same verdicts, and every value within EXACT_RTOL of the base commit's."""
    problems = []
    if payload.get("model") != ref["model"]:
        problems.append(f"model {payload.get('model')} != {ref['model']}")
    got = condition_table(payload)
    if [r["condition_id"] for r in got] != [r["condition_id"] for r in ref["reports"]]:
        return problems + ["report list differs from the base commit's"]
    for g, w in zip(got, ref["reports"]):
        cid = w["condition_id"]
        if g["verdict"] != w["verdict"]:
            problems.append(f"{cid}: verdict {g['verdict']} != {w['verdict']}")
        if g["n"] != w["n"]:
            problems.append(f"{cid}: grid {g['n']} != {w['n']}")
            continue
        bad = [n for n, a, b in zip(w["n"], g["value"], w["value"]) if not _close(a, b)]
        if bad:
            problems.append(f"{cid}: values differ at n={bad}")
    return problems


def units_conditions(payload: dict) -> int:
    """Condition values evaluated."""
    return sum(len(rep["grid"]) for rep in payload["reports"])


# ---------------------------------------------------------------------------
# the workloads


def _oracle_steps(seed: int) -> list:
    return [
        Step(
            "two-scale",
            ("--cmd", "oracle", "--config", TWO_SCALE_CONFIG, "--n-grid", "4,8"),
            lambda p: gate_oracle(p, load_reference("oracle-enum")),
            units_oracle,
        )
    ]


def _clt_steps(seed: int) -> list:
    common = ("--cmd", "clt", "--n-grid", CLT_GRID, "--reps", str(CLT_REPS), "--seed", str(seed))
    return [
        Step(
            "two-scale",
            common + ("--config", TWO_SCALE_CONFIG),
            lambda p: gate_clt(p, load_reference("clt-sample"), "two-scale", seed),
            units_clt,
        ),
        Step(
            "tail-coupled",
            common + ("--model", "tail-coupled"),
            lambda p: gate_clt(p, load_reference("clt-sample"), "tail-coupled", seed),
            units_clt,
        ),
    ]


def _sweep_steps(seed: int) -> list:
    return [
        Step("sweep", ("--cmd", "sweep"), lambda p: gate_sweep(p, load_reference("sweep-exact")["sweep"]), units_sweep),
        Step(
            "conditions",
            ("--cmd", "conditions", "--model", "moving-average", "--n-grid", "6..22"),
            lambda p: gate_conditions(p, load_reference("sweep-exact")["conditions"]),
            units_conditions,
        ),
    ]


#: workload name -> (seed -> the steps of one iteration)
WORKLOADS = {
    "oracle-enum": _oracle_steps,
    "clt-sample": _clt_steps,
    "sweep-exact": _sweep_steps,
}


def check_output(step: Step, returncode: int, stdout: str) -> tuple:
    """(payload or None, problems) for one finished step."""
    if returncode != 0:
        return None, [f"exit code {returncode}"]
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not JSON: {exc}"]
    try:
        return payload, step.gate(payload)
    except (KeyError, TypeError, AttributeError) as exc:
        return payload, [f"payload lacks {exc!r}"]
