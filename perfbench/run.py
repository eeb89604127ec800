"""Benchmark of the mdepclt CLI: one workload, one run, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oracle-enum --seed 1 --seconds 30 --trace 0

A run first times `import mdepclt.cli` in fresh interpreters (setup_s).
It then launches the workload's CLI processes one after another, a closed
loop with one client, until --seconds have passed, and gates every output
for correctness. With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json. With --trace 1 it reports the per-layer metrics instead:
rusage of the same untraced processes, plus one in-process traced run of
the workload (traced.py) in a separate interpreter.

The last line of stdout is the result object. The lines before it give
every metric with its unit. A full record with provenance and every
process's argv and rusage goes to .bench_results/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import traced
from workloads import WORKLOADS, check_output

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

#: fresh interpreters timed per run for setup_s, after one warm-up
SETUP_SAMPLES = 5
#: a process still running after this long is killed and counts as failed
PROCESS_TIMEOUT_S = 60
#: environment variables that change thread counts or heap behaviour
PROVENANCE_ENV = ("_NUM_THREADS", "MALLOC_", "GLIBC_TUNABLES", "PYTHONHASHSEED")


class BenchError(RuntimeError):
    """The benchmark cannot run here (reported with exit code 2)."""


@dataclass
class Proc:
    """One finished child process, with its rusage from wait4."""

    argv: list
    returncode: int
    wall_s: float
    user_s: float
    sys_s: float
    maxrss_mib: float
    minflt: int
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def launch(args, env: dict) -> Proc:
    """Run `python <args>` from the checkout root and wait for it with
    wait4, so the rusage is this process's own."""
    argv = [sys.executable, *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    killer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    with proc.stdout, proc.stderr:
        try:
            out = proc.stdout.read()
            reader.join()
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child running
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        argv,
        proc.returncode,
        wall,
        ru.ru_utime,
        ru.ru_stime,
        ru.ru_maxrss / 1024.0,  # KiB on Linux
        ru.ru_minflt,
        out.decode(errors="replace"),
        err[0].decode(errors="replace")[-2000:] if err else "",
    )


def measure_setup(env: dict, samples: int) -> list:
    """Wall seconds of `import mdepclt.cli` in fresh interpreters.

    A warm-up process first compiles the bytecode and confirms that the
    package measured is the one in this checkout."""
    warm = launch(["-c", "import mdepclt.cli; print(mdepclt.cli.__file__)"], env)
    if warm.returncode != 0:
        raise BenchError(f"cannot import mdepclt.cli from {SRC}: {warm.stderr.strip()}")
    where = Path(warm.stdout.strip()).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"mdepclt.cli resolves to {where}, not under {SRC}")
    return [launch(["-c", "import mdepclt.cli"], env).wall_s for _ in range(samples)]


def run_iterations(steps, seconds: float, env: dict) -> list:
    """Run all steps in order, again and again, until `seconds` have passed
    (at least once). Returns one list of (step, Proc, problems, units) per
    iteration."""
    iterations = []
    deadline = time.perf_counter() + seconds
    while not iterations or time.perf_counter() < deadline:
        records = []
        for step in steps:
            proc = launch(["-m", "mdepclt.cli", *step.args], env)
            payload, problems = check_output(step, proc.returncode, proc.stdout)
            units = step.units(payload) if payload is not None and not problems else 0
            records.append((step, proc, problems, units))
        iterations.append(records)
    return iterations


def _spread(values) -> dict:
    """Median, quartiles and count of a sample."""
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q2 = q3 = values[0]
    return {"median": q2, "q1": q1, "q3": q3, "mean": statistics.fmean(values), "count": len(values)}


def end_to_end(iterations, setup: list) -> tuple:
    """End-to-end metrics and their per-iteration spreads.

    wall_s and cpu_s are means over the run's iterations: the Rademacher
    sampling process lands in one of two allocator modes (NOTES.md), and a
    mean over several processes averages that mix where a median of a few
    would flip between the modes."""
    wall = [sum(p.wall_s for _, p, _, _ in it) for it in iterations]
    cpu = [sum(p.user_s + p.sys_s for _, p, _, _ in it) for it in iterations]
    rss = [max(p.maxrss_mib for _, p, _, _ in it) for it in iterations]
    units = [sum(u for _, _, _, u in it) for it in iterations]
    attempted, failed = _failures(iterations)
    metrics = {
        "wall_s": statistics.fmean(wall),
        "cpu_s": statistics.fmean(cpu),
        "peak_rss_mib": statistics.median(rss),
        "units_per_s": sum(units) / sum(wall),
        "setup_s": statistics.median(setup),
        "pass_rate": (attempted - failed) / attempted,
    }
    spreads = {"wall_s": _spread(wall), "cpu_s": _spread(cpu), "peak_rss_mib": _spread(rss), "setup_s": _spread(setup)}
    return metrics, spreads


def _failures(iterations) -> tuple:
    records = [r for it in iterations for r in it]
    return len(records), sum(1 for _, _, problems, _ in records if problems)


def proc_metrics(iterations) -> dict:
    """rusage of the untraced processes, summed per iteration, averaged."""
    def per_iteration(field):
        return statistics.fmean(sum(getattr(p, field) for _, p, _, _ in it) for it in iterations)

    return {
        "proc.user_s": per_iteration("user_s"),
        "proc.sys_s": per_iteration("sys_s"),
        "proc.minflt": per_iteration("minflt"),
    }


def traced_metrics(workload: str, seed: int, env: dict, steps) -> tuple:
    """Per-layer metrics from traced.py, and (attempted, failed, problems)
    of its outputs under the same gates."""
    spans = RESULTS / f"{workload}-seed{seed}-spans.json"
    proc = launch([str(BENCH / "traced.py"), "--workload", workload, "--seed", str(seed), "--spans", str(spans)], env)
    if proc.returncode != 0:
        problem = f"traced run exit code {proc.returncode}: {proc.stderr.strip()}"
        return dict.fromkeys(traced.metric_names(), 0.0), (len(steps), len(steps), [problem])
    result = json.loads(proc.stdout.splitlines()[-1])
    problems, failed = [], 0
    for step, out in zip(steps, result["outputs"]):
        _, found = check_output(step, out["returncode"], out["stdout"])
        failed += bool(found)
        problems += [f"traced {step.label}: {p}" for p in found]
    return result["metrics"], (len(steps), failed, problems)


def provenance(opts) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        rev = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": opts.workload,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
        "python": sys.version,
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "env": {k: v for k, v in sorted(os.environ.items()) if any(tag in k for tag in PROVENANCE_ENV)},
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _record(it_index, step, proc, problems, units) -> dict:
    rec = asdict(proc)
    rec.pop("stdout")
    rec.update(iteration=it_index, step=step.label, problems=problems, units=units)
    return rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if opts.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        if not (SRC / "mdepclt" / "cli.py").is_file():
            raise BenchError(f"no mdepclt sources under {SRC}")
        RESULTS.mkdir(exist_ok=True)
        env = child_env()
        prov = provenance(opts)
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if opts.trace else "end_to_end"]
        steps = WORKLOADS[opts.workload](opts.seed)
        setup = measure_setup(env, SETUP_SAMPLES if opts.trace == 0 else 0)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    iterations = run_iterations(steps, opts.seconds, env)
    attempted, failed = _failures(iterations)
    problems = [f"iteration {i} {s.label}: {p}" for i, it in enumerate(iterations) for s, _, ps, _ in it for p in ps]
    record = {"provenance": prov, "setup_s": setup}
    if opts.trace == 0:
        metrics, record["spreads"] = end_to_end(iterations, setup)
    else:
        metrics = proc_metrics(iterations)
        layers, (t_att, t_failed, t_problems) = traced_metrics(opts.workload, opts.seed, env, steps)
        attempted, failed, problems = attempted + t_att, failed + t_failed, problems + t_problems
        metrics.update(layers)
        metrics["fail_rate"] = failed / attempted
    record["processes"] = [_record(i, *r) for i, it in enumerate(iterations) for r in it]
    record["problems"] = problems
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    record["result"] = result
    out = RESULTS / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{opts.workload} seed={opts.seed}: {len(iterations)} iterations, "
          f"{attempted} processes, {failed} failed (fail_rate {failed / attempted:.4g})")
    for problem in problems[:20]:
        print(f"  FAIL {problem}")
    for name, entry in result["metrics"].items():
        line = f"  {name:44s} {entry['value']:14.6g} {entry['unit']}"
        if name in record.get("spreads", {}):
            sp = record["spreads"][name]
            line += f"  (median {sp['median']:.4g}, q1 {sp['q1']:.4g}, q3 {sp['q3']:.4g} of {sp['count']})"
        print(line)
    print(f"  record: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
