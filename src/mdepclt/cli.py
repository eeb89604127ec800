"""Command-line front end: model configs in, machine-readable reports out.

The CLI is a thin shell: each command assembles its payload through a
library function in this module, so scripted library use and the command
line produce byte-identical output.

Each payload builder imports its engine (conditions, martingale or
montecarlo) inside itself, so a command loads only the engine it runs
besides models and laws, which every command needs.

Exit codes: 0 success, 1 check/threshold violation, 2 configuration error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys

from .models import (
    MODEL_CONFIG_KEYS,
    ArrayModel,
    ContinuousModelError,
    EnumerationTooLargeError,
    InvalidParameterError,
    Schedule,
    build_model,
    model_from_config,
    model_to_config,
)

DEFAULT_KS_THRESHOLD = 0.05

#: representative thresholds standing in for "every eps > 0"
DEFAULT_EPS_GRID = (0.05, 0.1, 0.5, 1.0)
#: default moment orders for the r > 2 conditions
DEFAULT_R_GRID = (3.0, 4.0, 6.0)
#: default geometric n-grid 2^6 .. 2^14, for the conditions command
DEFAULT_N_GRID = tuple(2**k for k in range(6, 15))

#: sweep default: wide enough that bounded rows reach their exactly-zero
#: Lindeberg regime even at the smallest representative eps (evaluation is
#: closed-form, so the extra points cost nothing)
SWEEP_N_GRID = tuple(2**k for k in range(6, 23))

#: clt default: sampling is the expensive path, start at 2^8
CLT_N_GRID = tuple(2**k for k in range(8, 15))

#: oracle default: sizes whose whole outcome table every Rademacher row of
#: the catalogue can enumerate
ORACLE_N_GRID = (4, 6, 8)


class ConfigError(ValueError):
    """Malformed run configuration (reported with exit code 2)."""


def parse_grid(text: str) -> list[int]:
    """Either comma-separated sizes ("64,256,1024") or a dyadic exponent
    range ("6..14" meaning 2^6 .. 2^14); ValueError if neither."""
    if ".." not in text:
        return [int(tok) for tok in text.split(",") if tok]
    lo, hi = (int(tok) for tok in text.split(".."))
    if hi < lo:
        raise ValueError("empty range")
    if lo < 0 or hi > 1023:  # before the list is built: n >= 1, and 2^1024 exceeds the floats
        raise ValueError("exponents must lie in 0..1023")
    return [2**k for k in range(lo, hi + 1)]


def catalogue() -> dict[str, ArrayModel]:
    """Models exercised by the sweep command."""
    return {
        "iid-baseline": build_model("iid-baseline"),
        "two-scale": build_model("two-scale", alpha=0.25),
        "block-repeat": build_model("block-repeat", m_schedule=2),
        "block-repeat-gaussian": build_model(
            "block-repeat", innovation="normal", m_schedule=Schedule("power", 0.25)
        ),
        "tail-coupled": build_model("tail-coupled", m_schedule=Schedule("power", 0.25)),
        "moving-average": build_model("moving-average", coeffs=(1.0, 0.5)),
    }


# ---------------------------------------------------------------------------
# payload builders (library surface mirrored by the CLI)


def condition_reports(model: ArrayModel, n_grid, eps_list, r_list, deltas) -> list:
    """Every condition report for one model over one grid, in payload
    order: classic and m-adapted Lindeberg per eps, Lyapunov per r, Orey,
    Rio, then the Berk and Romano-Wolf components per delta."""
    from . import conditions as cond

    reports = []
    for eps in eps_list:
        reports.append(cond.condition_report(cond.lindeberg_classic, model, n_grid, eps=eps))
        reports.append(cond.condition_report(cond.lindeberg_mdep, model, n_grid, eps=eps))
    for r in r_list:
        reports.append(cond.condition_report(cond.lyapunov_ratio, model, n_grid, r=r))
    reports.append(cond.condition_report(cond.orey_ratio, model, n_grid))
    reports.append(cond.condition_report(cond.rio_functional, model, n_grid))
    for delta in deltas:
        reports.extend(cond.component_reports(cond.berk_check, model, n_grid, delta=delta).values())
        reports.extend(cond.component_reports(cond.romano_wolf_check, model, n_grid, delta=delta).values())
    return reports


def conditions_payload(model: ArrayModel, n_grid, eps_list, r_list) -> dict:
    """All condition reports for one model over one grid."""
    from . import conditions as cond

    reports = condition_reports(model, n_grid, eps_list, r_list, [r - 2 for r in r_list])
    return {
        "model": model_to_config(model),
        "reports": [cond.report_to_dict(rep) for rep in reports],
    }


def oracle_payload(model: ArrayModel, n_grid, eps_list) -> dict:
    """Structure, tower, bound, and truncation checks at enumerable sizes,
    on one trace per size.  Each skipped size gets one stderr line with its
    reason (continuous marginals, or a cap exceeded), once every check has
    run; when every size is skipped, the smallest one's reason is the
    configuration error, with the largest n below the grid that fits, if
    any."""
    from . import martingale as mart

    if any(a >= b for a, b in zip(n_grid, n_grid[1:])):
        raise ConfigError("n_grid must be strictly increasing")
    traces, trunc, skipped = [], [], []
    for n in n_grid:
        try:
            trace = mart.build_trace(model, n)
        except (ContinuousModelError, EnumerationTooLargeError) as exc:
            skipped.append((n, exc))
            continue
        traces.append(mart.trace_summary(trace))
        for eps, chk in zip(eps_list, mart.check_truncations(trace, eps_list)):
            trunc.append({"n": n, "eps": eps, "passed": chk.passed, **chk.values})
    if not traces:
        reason = skipped[0][1]
        if isinstance(reason, ContinuousModelError):
            fits = "no n fits"
        elif (largest := mart._largest_trace_n(model, n_grid[0])) is None:
            fits = f"no n below {n_grid[0]} fits"
        else:
            fits = f"the largest n below {n_grid[0]} that fits is {largest}"
        raise ConfigError(f"no grid point is exactly enumerable for this model: {reason}; {fits}")
    for n, exc in skipped:
        print(f"skipped n={n}: {exc}", file=sys.stderr)
    passed = all(t["structure_passed"] and t["tower_passed"] and t["bounds_passed"] for t in traces)
    passed = passed and all(t["passed"] for t in trunc)
    return {
        "model": model_to_config(model),
        "traces": traces,
        "truncation": trunc,
        "passed": passed,
    }


def clt_payload(model: ArrayModel, n_grid, reps, seed, threshold) -> dict:
    from . import montecarlo as mc

    report = mc.convergence_sweep(model, n_grid, reps=reps, seed=seed)
    payload = mc.report_to_dict(report)
    payload["ks_threshold"] = threshold
    payload["passed"] = report.final_ks <= threshold
    return payload


def sweep_payload(n_grid, eps_list, r_list) -> dict:
    """Which condition sets hold on which catalogued models.

    A set is a condition id without its eps argument or :component
    suffix; it holds when every report in it holds."""
    from . import conditions as cond

    rows = []
    for name, model in catalogue().items():
        entry = {"model": name, "config": model_to_config(model)}
        for rep in condition_reports(model, n_grid, eps_list, r_list, [2.0]):
            column = rep.condition_id.split(":")[0].split("(eps=")[0]
            entry[column] = entry.get(column, True) and cond.holds(rep)
        rows.append(entry)
    return {"n_grid": list(n_grid), "eps": list(eps_list), "r": list(r_list), "rows": rows}


# ---------------------------------------------------------------------------
# rendering


def payload_to_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_from_rows(header, rows) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def payload_to_csv(command: str, payload: dict) -> str:
    if command == "conditions":
        rows = [
            [cv["condition_id"], cv["eq"], cv["n"], repr(cv["value"]), cv["method"], rep["verdict"]]
            for rep in payload["reports"]
            for cv in rep["grid"]
        ]
        return _csv_from_rows(["condition_id", "eq", "n", "value", "method", "verdict"], rows)
    if command == "clt":
        rows = [
            [row["n"], repr(row["ks_stat"]), row["reps"], row["seed"]]
            for row in payload["grid"]
        ]
        return _csv_from_rows(["n", "ks_stat", "reps", "seed"], rows)
    if command == "oracle":
        rows = [
            [t["n"], name, passed]
            for t in payload["traces"]
            for name, passed in sorted(t["checks"].items())
        ]
        rows += [[t["n"], f"truncation(eps={t['eps']:g})", t["passed"]] for t in payload["truncation"]]
        return _csv_from_rows(["n", "check", "passed"], rows)
    # sweep
    conditions = [k for k in payload["rows"][0] if k not in ("model", "config")]
    rows = [[row["model"]] + [row[c] for c in conditions] for row in payload["rows"]]
    return _csv_from_rows(["model"] + conditions, rows)


# ---------------------------------------------------------------------------
# argument handling


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdepclt",
        description="Evaluate dependence conditions, martingale identities, and "
        "normal convergence for m-dependent triangular arrays.",
    )
    parser.add_argument("--cmd", choices=("conditions", "clt", "oracle", "sweep"), required=True)
    parser.add_argument("--model", help="family name (uses that family's default parameters)")
    parser.add_argument("--config", help="JSON file with model and run settings")
    parser.add_argument("--n-grid", help='either "6..14" (powers of two) or "64,128,..."')
    parser.add_argument("--reps", type=int, help="Monte Carlo replicates (clt)")
    parser.add_argument("--seed", type=int, help="base RNG seed")
    parser.add_argument("--eps", help="comma-separated thresholds")
    parser.add_argument("--r", help="comma-separated moment orders (> 2)")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv"), help="output format")
    return parser


def _integer(key: str, value) -> int:
    if type(value) is not int:  # JSON integers only: no bools, no 300.0
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _number(key: str, value) -> float:
    try:
        x = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return x


def _string(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _format(key: str, value) -> str:
    if value not in ("json", "csv"):
        raise ConfigError(f"{key} must be 'json' or 'csv', got {value!r}")
    return value


def _split_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _list_of(item, parse_text):
    """Converter for a list setting given as a JSON list or as flag text."""

    def convert(key: str, value) -> list:
        if isinstance(value, str):
            try:
                value = parse_text(value.strip())
            except ValueError as exc:
                raise ConfigError(f"cannot parse {key} {value!r}: {exc}") from None
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return [item(key, v) for v in value]

    return convert


#: run setting -> converter(key, value) raising ConfigError; each name is a
#: config key and, where the setting has a flag, its argparse destination
SETTINGS = {
    "n_grid": _list_of(_integer, parse_grid),
    "reps": _integer,
    "seed": _integer,
    "eps": _list_of(_number, _split_floats),
    "r": _list_of(_number, _split_floats),
    "ks_threshold": _number,
    "out": _string,
    "format": _format,
}


def _read_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    return raw


def resolve_config(args) -> dict:
    """Merge defaults, config file, and flags (flags win).

    Every run setting, from the config and then from its flag, goes
    through the one converter SETTINGS holds for it; range checks are
    left to the engines."""
    default_grid = {"sweep": SWEEP_N_GRID, "clt": CLT_N_GRID, "oracle": ORACLE_N_GRID}.get(args.cmd, DEFAULT_N_GRID)
    settings: dict = {
        "n_grid": list(default_grid),
        "reps": 10_000,
        "seed": 0,
        "eps": list(DEFAULT_EPS_GRID),
        "r": list(DEFAULT_R_GRID),
        "format": "json",
        "out": None,
        "ks_threshold": DEFAULT_KS_THRESHOLD,
    }
    raw = _read_config(args.config) if args.config else {}
    model_cfg = {k: raw.pop(k) for k in list(raw) if k in MODEL_CONFIG_KEYS}
    for key, convert in SETTINGS.items():
        if key in raw:
            settings[key] = convert(key, raw.pop(key))
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = convert(key, flag)
    if raw:
        raise ConfigError(f"unknown config keys: {sorted(raw)}")
    if args.model and model_cfg.get("family") != args.model:
        model_cfg = {"family": args.model}  # config parameters only for the same family
    settings["model_cfg"] = model_cfg
    for key in ("n_grid", "eps"):
        if not settings[key]:
            raise ConfigError(f"{key} must be nonempty")
    return settings


def _model_from_settings(settings: dict) -> ArrayModel:
    if not settings["model_cfg"]:
        raise ConfigError("this command needs a model (--model or config file)")
    try:
        return model_from_config(settings["model_cfg"])
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from None


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = resolve_config(args)
        grid, eps, r = settings["n_grid"], settings["eps"], settings["r"]
        if args.cmd == "sweep":
            payload = sweep_payload(grid, eps, r)
        else:
            model = _model_from_settings(settings)
            if args.cmd == "conditions":
                payload = conditions_payload(model, grid, eps, r)
            elif args.cmd == "oracle":
                payload = oracle_payload(model, grid, eps)
            else:
                payload = clt_payload(
                    model, grid, settings["reps"], settings["seed"], settings["ks_threshold"]
                )
        failed = not payload.get("passed", True)
        if settings["format"] == "json":
            text = payload_to_json(payload)
        else:
            text = payload_to_csv(args.cmd, payload)
        if settings["out"]:
            try:
                with open(settings["out"], "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write out file {settings['out']}: {exc.strerror}") from None
        else:
            sys.stdout.write(text)
        return 1 if failed else 0
    except ValueError as exc:
        # ConfigError, model parameter errors, and the engines' own
        # argument validation (eps > 0, r > 2, 100 <= reps <= SAMPLE_CAP,
        # grids, weight groups of S_n below 2^62 innovations)
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
