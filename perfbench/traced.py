"""In-process traced run of one workload's CLI calls.

Runs each step of the workload through `mdepclt.cli.run` twice in one
process: once untraced, then once with the public functions of each layer
replaced by span recorders. Prints one JSON object (per-layer metrics and
the traced run's outputs) on stdout, and writes the spans to --spans.

    python3 perfbench/traced.py --workload clt-sample --seed 1 --spans spans.json

A wrapper replaces a function in every module namespace that binds it
(`sample_row` is bound in both `mdepclt.models` and `mdepclt.montecarlo`;
`trace_summary` calls `check_structure` through the module globals), so
calls are seen whichever name they go through. Nothing in `src/` changes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys
import time
from collections import Counter, defaultdict

from workloads import WORKLOADS

FUNCTIONALS = (
    "lindeberg_classic",
    "lindeberg_mdep",
    "lyapunov_ratio",
    "orey_ratio",
    "rio_functional",
    "berk_check",
    "romano_wolf_check",
)

#: module -> public functions wrapped in spans
LAYERS = {
    "cli": (
        "run",
        "resolve_config",
        "conditions_payload",
        "oracle_payload",
        "clt_payload",
        "sweep_payload",
        "payload_to_json",
    ),
    "models": (
        "enumerate_outcomes",
        "sample_row",
        "row_rng",
        "exact_sigma2",
        "marginal_law_groups",
        "window_variance_max",
        "cov_band",
    ),
    "conditions": ("condition_report", "component_reports", "asymptotic_verdict") + FUNCTIONALS,
    "martingale": (
        "build_trace",
        "check_structure",
        "check_bounds",
        "check_tower",
        "trace_summary",
        "check_truncation",
    ),
    "montecarlo": ("simulate_normalized_sums", "ks_statistic"),
}

#: the per-layer metrics this module emits, in BENCHMARK.json order
SELF_TIMES = (
    "martingale.build_trace",
    "martingale.check_structure",
    "martingale.check_bounds",
    "martingale.check_tower",
    "martingale.trace_summary",
    "martingale.check_truncation",
    "models.enumerate_outcomes",
    "models.sample_row",
    "models.row_rng",
    "montecarlo.simulate_normalized_sums",
    "montecarlo.ks_statistic",
    "conditions.condition_report",
    "conditions.component_reports",
    "conditions.asymptotic_verdict",
    "models.exact_sigma2",
    "models.marginal_law_groups",
    "models.window_variance_max",
    "models.cov_band",
    "cli.resolve_config",
    "cli.conditions_payload",
    "cli.oracle_payload",
    "cli.clt_payload",
    "cli.sweep_payload",
    "cli.payload_to_json",
)
CALLS = (
    "martingale.check_truncation",
    "models.sample_row",
    "models.row_rng",
    "models.exact_sigma2",
)
COUNTS = (
    "martingale.cells_stored",
    "martingale.cells_band",
    "martingale.trace_bytes",
    "models.outcomes",
    "models.values_drawn",
    "montecarlo.replicates",
    "conditions.values",
    "cli.stdout_bytes",
)


def metric_names() -> list:
    """Every metric name `layer_metrics` returns."""
    return (
        [f"{name}.self_s" for name in SELF_TIMES]
        + ["conditions.functionals.self_s"]
        + [f"{name}.calls" for name in CALLS]
        + ["models.sample_row.p50_us", "models.sample_row.p99_us"]
        + list(COUNTS)
        + ["martingale.band_ratio", "cli.import_s", "trace.overhead_s"]
    )


# ---------------------------------------------------------------------------
# counts taken from a wrapped call's arguments and result


def _count_trace(counts, args, result):
    """Cells and bytes of the martingale trace; bytes are computed from the
    array sizes, not measured."""
    model, n = args[0], args[1]
    outcomes = len(result.table.probs)
    arrays = [v for v in vars(result).values() if hasattr(v, "nbytes") and hasattr(v, "ndim")]
    counts["martingale.cells_stored"] += sum(a.size for a in arrays if a.ndim == 3)
    counts["martingale.trace_bytes"] += sum(a.nbytes for a in arrays)
    N, m = model.length(n), model.m(n)
    counts["martingale.cells_band"] += outcomes * sum(min(m + 1, N - k) for k in range(N + 1))


def _counter(name, size):
    def count(counts, args, result):
        counts[name] += size(result)

    return count


HOOKS = {
    "martingale.build_trace": _count_trace,
    "models.enumerate_outcomes": _counter("models.outcomes", lambda r: len(r.probs)),
    "models.sample_row": _counter("models.values_drawn", lambda r: r.values.size),
    "montecarlo.simulate_normalized_sums": _counter("montecarlo.replicates", lambda r: r.reps),
    **{
        f"conditions.{f}": _counter(
            "conditions.values", lambda r: len(r) if isinstance(r, list) else 1
        )
        for f in FUNCTIONALS
    },
}


# ---------------------------------------------------------------------------
# spans


class Tracer:
    """Records spans (name, start, end, parent, request) in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request = 0
        self._stack = []

    def wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.request])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced


def install(tracer: Tracer) -> list:
    """Wrap every LAYERS function in every mdepclt namespace that binds it;
    returns the (namespace, attribute, original) triples to restore."""
    import mdepclt

    namespaces = [mdepclt] + [
        mod for name, mod in sorted(sys.modules.items()) if name.startswith("mdepclt.")
    ]
    restore = []
    for module, names in LAYERS.items():
        home = sys.modules[f"mdepclt.{module}"]
        for fn_name in names:
            original = getattr(home, fn_name, None)
            if original is None:  # removed by a later version: its metrics read 0
                continue
            wrapper = tracer.wrap(f"{module}.{fn_name}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        restore.append((ns, attr, original))
    return restore


def uninstall(restore: list) -> None:
    for ns, attr, original in restore:
        setattr(ns, attr, original)


def _quantile(sorted_values, q):
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def self_times(spans) -> dict:
    """Self time per span name: its duration minus the durations of its
    direct children (children of one span never overlap)."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = defaultdict(float)
    for i, (name, t0, t1, _, _) in enumerate(spans):
        out[name] += (t1 - t0) - child[i]
    return out


def layer_metrics(spans, counts, import_s: float, overhead_s: float) -> dict:
    selfs = self_times(spans)
    calls = Counter(span[0] for span in spans)
    durs = sorted(t1 - t0 for name, t0, t1, _, _ in spans if name == "models.sample_row")
    out = {f"{name}.self_s": selfs.get(name, 0.0) for name in SELF_TIMES}
    out["conditions.functionals.self_s"] = sum(selfs.get(f"conditions.{f}", 0.0) for f in FUNCTIONALS)
    out.update({f"{name}.calls": calls.get(name, 0) for name in CALLS})
    out["models.sample_row.p50_us"] = _quantile(durs, 0.50) * 1e6
    out["models.sample_row.p99_us"] = _quantile(durs, 0.99) * 1e6
    out.update({name: counts.get(name, 0) for name in COUNTS})
    stored = counts.get("martingale.cells_stored", 0)
    out["martingale.band_ratio"] = counts.get("martingale.cells_band", 0) / stored if stored else 0.0
    out["cli.import_s"] = import_s
    out["trace.overhead_s"] = overhead_s
    return out


def _run_steps(cli, step_args, tracer=None):
    """Run each argv through cli.run; returns (wall seconds, outputs)."""
    outputs = []
    wall = 0.0
    for i, args in enumerate(step_args):
        if tracer is not None:
            tracer.request = i
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.run(list(args))
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
        wall += time.perf_counter() - t0
        outputs.append({"args": list(args), "returncode": code, "stdout": buf.getvalue()})
    return wall, outputs


def traced_run(step_args) -> tuple:
    """(metrics, outputs, spans, traced wall seconds) for one untraced and
    one traced pass over the same argvs."""
    t0 = time.perf_counter()
    import mdepclt.cli as cli

    import_s = time.perf_counter() - t0
    untraced_wall, _ = _run_steps(cli, step_args)
    tracer = Tracer()
    restore = install(tracer)
    try:
        traced_wall, outputs = _run_steps(cli, step_args, tracer)
    finally:
        uninstall(restore)
    tracer.counts["cli.stdout_bytes"] = sum(len(o["stdout"].encode()) for o in outputs)
    metrics = layer_metrics(tracer.spans, tracer.counts, import_s, traced_wall - untraced_wall)
    return metrics, outputs, tracer.spans, traced_wall


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", required=True, help="file the spans are written to")
    opts = parser.parse_args()
    steps = WORKLOADS[opts.workload](opts.seed)
    metrics, outputs, spans, _ = traced_run([s.args for s in steps])
    origin = spans[0][1] if spans else 0.0
    with open(opts.spans, "w") as fh:
        json.dump(
            {
                "columns": ["name", "start_s", "end_s", "parent", "request"],
                "spans": [[n, t0 - origin, t1 - origin, p, r] for n, t0, t1, p, r in spans],
            },
            fh,
        )
    print(json.dumps({"metrics": metrics, "outputs": outputs}))


if __name__ == "__main__":
    main()
