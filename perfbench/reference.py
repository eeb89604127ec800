"""Record the reference outputs the correctness gates compare against.

    python3 perfbench/reference.py

Runs each deterministic workload's CLI calls once with the checkout's
code and writes reference/<workload>.json. The committed files were made
on the commit the benchmark was added on (its base commit); regenerating
them is a change to the benchmark, never part of a change that claims a
speed-up.

For clt-sample it records the exact Kolmogorov distance d_K of S_n/sigma_n
from N(0,1) per family and n, and the Kolmogorov band of the replicate
count: a KS statistic of a correct sampler exceeds band + d_K with
probability at most 1 - KS_CONFIDENCE per grid point.
"""

from __future__ import annotations

import json
import math
import sys

from run import SRC, child_env, launch
from workloads import CLT_GRID, CLT_REPS, REFERENCE, WORKLOADS, condition_table

#: per grid point; every seed's KS values are fixed, so a false alarm would
#: reject a correct program on that seed in every run
KS_CONFIDENCE = 1 - 1e-6


def _payloads(workload: str) -> list:
    env = child_env()
    out = []
    for step in WORKLOADS[workload](0):
        proc = launch(["-m", "mdepclt.cli", *step.args], env)
        if proc.returncode != 0:
            sys.exit(f"{workload} {step.label}: exit code {proc.returncode}\n{proc.stderr}")
        out.append(json.loads(proc.stdout))
    return out


def two_scale_dk(alpha: float, n: int) -> float:
    """Exact sup_x |P(S_n/sigma_n <= x) - Phi(x)| for the two-scale row.

    The eta terms telescope: S_n = n^-1/2 (2K - n) + n^-alpha (eta_n - eta_0)
    with K ~ Binomial(n, 1/2) and eta_n - eta_0 in {-2, 0, 2} with
    probabilities 1/4, 1/2, 1/4. The sup is attained at an atom, from the
    left or the right."""
    import numpy as np
    from scipy.special import ndtr
    from scipy.stats import binom

    sigma = math.sqrt(1.0 + 2.0 * n ** (-2.0 * alpha))
    k = np.arange(n + 1)
    lattice = (2.0 * k - n) / math.sqrt(n)
    pk = binom.pmf(k, n, 0.5)
    atoms = np.concatenate([lattice + d * n**-alpha for d in (-2.0, 0.0, 2.0)]) / sigma
    probs = np.concatenate([pk * w for w in (0.25, 0.5, 0.25)])
    order = np.argsort(atoms, kind="stable")
    atoms, probs = atoms[order], probs[order]
    # merge atoms that coincide (n^(1/2 - alpha) integer) up to rounding
    new = np.concatenate([[True], np.diff(atoms) > 1e-9])
    starts = np.flatnonzero(new)
    atoms, probs = atoms[starts], np.add.reduceat(probs, starts)
    right = np.cumsum(probs)
    left = right - probs
    phi = ndtr(atoms)
    return float(max(np.max(np.abs(right - phi)), np.max(np.abs(left - phi))))


def main() -> None:
    sys.path.insert(0, str(SRC))
    from mdepclt.models import build_model, exact_sigma2
    from mdepclt.montecarlo import kolmogorov_band

    REFERENCE.mkdir(exist_ok=True)

    (oracle,) = _payloads("oracle-enum")
    model = build_model("two-scale", alpha=0.25)
    ref = {
        "traces": {
            str(t["n"]): {
                "outcomes": t["outcomes"],
                "checks": sorted(t["checks"]),
                "exact_sigma2": exact_sigma2(model, t["n"]),
            }
            for t in oracle["traces"]
        },
        "truncation": sorted([t["n"], t["eps"]] for t in oracle["truncation"]),
    }
    _write("oracle-enum", ref)

    lo, hi = (int(k) for k in CLT_GRID.split(".."))
    ns = [2**k for k in range(lo, hi + 1)]
    _write(
        "clt-sample",
        {
            "reps": CLT_REPS,
            "n_grid": ns,
            "confidence": KS_CONFIDENCE,
            "band": kolmogorov_band(CLT_REPS, KS_CONFIDENCE),
            "d_K": {
                "two-scale": {str(n): two_scale_dk(0.25, n) for n in ns},
                # n normals plus m_n copies of one more normal: S_n is Gaussian
                "tail-coupled": {str(n): 0.0 for n in ns},
            },
        },
    )

    sweep, conditions = _payloads("sweep-exact")
    _write(
        "sweep-exact",
        {
            "sweep": {key: sweep[key] for key in ("n_grid", "eps", "r", "rows")},
            "conditions": {"model": conditions["model"], "reports": condition_table(conditions)},
        },
    )


def _write(name: str, data: dict) -> None:
    path = REFERENCE / f"{name}.json"
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
