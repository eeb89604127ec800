"""Command-line interface: commands, exit codes, output identity."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdepclt import cli
from mdepclt import conditions as cond
from mdepclt import martingale as mart
from mdepclt import models
from mdepclt import montecarlo as mc


def run_cli(*argv):
    return cli.run(list(argv))


@pytest.fixture
def two_scale_config(tmp_path):
    path = tmp_path / "two-scale.json"
    path.write_text(json.dumps({"family": "two-scale", "alpha": 0.25}))
    return str(path)


# ---------------------------------------------------------------------------
# conditions


def test_conditions_command_json(tmp_path, two_scale_config):
    out = tmp_path / "report.json"
    code = run_cli(
        "--cmd", "conditions", "--config", two_scale_config,
        "--n-grid", "6..10", "--eps", "0.5", "--r", "4", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["model"] == {"family": "two-scale", "alpha": 0.25}
    verdicts = {rep["condition_id"]: rep["verdict"] for rep in payload["reports"]}
    assert verdicts["orey"] == "diverges"
    eqs = {rep["eq"] for rep in payload["reports"]}
    assert {"tmL", "tmnL", "lyap", "cond+", "rio", "berki", "RW6", "RWvar"} <= eqs


def test_conditions_output_matches_library_serialization(tmp_path, two_scale_config):
    out = tmp_path / "cli.json"
    run_cli(
        "--cmd", "conditions", "--config", two_scale_config,
        "--n-grid", "6..10", "--eps", "0.5", "--r", "4", "--out", str(out),
    )
    from mdepclt.models import model_from_config

    model = model_from_config({"family": "two-scale", "alpha": 0.25})
    grid = [2**k for k in range(6, 11)]
    expected = cli.payload_to_json(cli.conditions_payload(model, grid, [0.5], [4.0]))
    assert out.read_text() == expected


def test_conditions_csv_format(tmp_path, two_scale_config):
    out = tmp_path / "report.csv"
    code = run_cli(
        "--cmd", "conditions", "--config", two_scale_config,
        "--n-grid", "6..10", "--eps", "0.5", "--r", "4",
        "--out", str(out), "--format", "csv",
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "condition_id,eq,n,value,method,mc_std_err,verdict"
    assert len(lines) > 10


# ---------------------------------------------------------------------------
# oracle


def test_oracle_command_passes_on_catalogued_models(tmp_path):
    out = tmp_path / "oracle.json"
    code = run_cli(
        "--cmd", "oracle", "--model", "moving-average",
        "--n-grid", "4,6,8", "--eps", "0.4", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"]
    assert all(t["structure_passed"] for t in payload["traces"])
    assert all(abs(t["sum_q"] - t["sigma2"]) < 1e-10 for t in payload["traces"])
    assert all(t["var_q_over_eps2_sigma2"] <= 48.0 for t in payload["traces"])


def test_oracle_csv(tmp_path):
    out = tmp_path / "oracle.csv"
    code = run_cli(
        "--cmd", "oracle", "--model", "iid-baseline",
        "--n-grid", "4,6", "--eps", "0.5", "--format", "csv", "--out", str(out),
    )
    assert code == 0
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    assert header == ["n", "check", "passed"]
    pairs = [(n, check) for n, check, _ in rows]
    assert len(set(pairs)) == len(pairs)
    assert {c for n, c in pairs if n == "4"} == {c for n, c in pairs if n == "6"}
    assert sorted(n for n, check in pairs if check == "truncation(eps=0.5)") == ["4", "6"]
    assert all(passed == "True" for _, _, passed in rows)


def test_oracle_enumerates_each_grid_point_once(monkeypatch):
    # every check at a grid point, the truncation check at each eps
    # included, runs on the one trace built there
    calls = []
    original = models.enumerate_outcomes

    def enumerate_outcomes(model, n):
        calls.append(n)
        return original(model, n)

    for module in (models, mart):
        monkeypatch.setattr(module, "enumerate_outcomes", enumerate_outcomes)
    model = models.build_model("two-scale", alpha=0.25)
    eps = cli.DEFAULT_EPS_GRID
    assert len(eps) == 4
    payload = cli.oracle_payload(model, [4, 8], eps)
    assert payload["passed"] and len(payload["truncation"]) == 2 * len(eps)
    assert calls == [4, 8]
    trace = mart.build_trace(model, 4)
    calls.clear()
    assert mart.check_truncation(trace, 0.5).passed
    assert calls == []


#: the floats oracle_payload prints for two-scale (alpha = 0.25) at n = 4
#: and 7 over DEFAULT_EPS_GRID, as repr gives them, recorded before the
#: table became variable-major: per n, the trace summary's floats in key
#: order, and per (n, eps) the truncation values in key order
_PINNED_TRACES = {
    4: ["2.0", "1.999999999999999", "1.1249999999999987", "1.9142135623730951",
        "1.9142135623730951", "0.15351179466616602", "1.0"],
    7: ["1.7559289460184546", "1.755928946018524", "0.4408879691534524", "1.6075407789117562",
        "1.607540778911756", "0.09716219395162712", "1.0000000000000002"],
}
_PINNED_TRUNCATION = [
    ["0.07071067811865477", "5.0", "2.0", "15.0"],
    ["0.14142135623730953", "5.0", "2.0", "15.0"],
    ["0.7071067811865476", "4.5", "1.5", "13.5"],
    ["1.4142135623730951", "3.6642135623730954", "2.2901334764831844", "10.992640687119286"],
    ["0.06625573458234492", "6.2915026221291805", "1.7559289460184546", "18.874507866387543"],
    ["0.13251146916468984", "6.2915026221291805", "1.7559289460184546", "18.874507866387543"],
    ["0.6625573458234492", "5.791502622129181", "1.2559289460184544", "17.374507866387546"],
    ["1.3251146916468983", "4.522327872762377", "2.5841873558642154", "13.56698361828713"],
]


def test_oracle_payload_floats_are_pinned():
    # the cell means, tower sums and truncation moments are plain sums
    # scaled by 2^-bits, which round exactly as the probability-weighted
    # sums: the printed digits do not move.  At n = 7 (2^15 outcomes) the
    # row sums span several blocks
    model = models.build_model("two-scale", alpha=0.25)
    payload = cli.oracle_payload(model, [4, 7], cli.DEFAULT_EPS_GRID)
    traces = {t["n"]: [repr(v) for v in t.values() if isinstance(v, float)] for t in payload["traces"]}
    assert traces == _PINNED_TRACES
    rows = [[repr(v) for key, v in t.items() if key != "eps" and isinstance(v, float)] for t in payload["truncation"]]
    assert rows == _PINNED_TRUNCATION
    assert payload["passed"]


def test_oracle_rejects_unenumerable_model():
    code = run_cli("--cmd", "oracle", "--model", "tail-coupled", "--n-grid", "4,6")
    assert code == 2


@pytest.mark.parametrize("family", ["iid-baseline", "moving-average", "block-repeat"])
def test_oracle_default_grid_runs(family, capsys):
    # the conditions' default grid starts at 2^6, where none of these rows fits
    assert run_cli("--cmd", "oracle", "--model", family) == 0
    captured = capsys.readouterr()
    assert [t["n"] for t in json.loads(captured.out)["traces"]] == list(cli.ORACLE_N_GRID)
    assert captured.err == ""  # no grid point skipped


@pytest.mark.parametrize("grid", ["4,4", "8,4"])
def test_oracle_grid_must_be_strictly_increasing(grid, capsys):
    # before any trace is built: a repeated size would be enumerated twice
    code = run_cli("--cmd", "oracle", "--model", "iid-baseline", "--n-grid", grid)
    _assert_config_error(code, capsys, "n_grid must be strictly increasing")


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["--model", "tail-coupled"], "has continuous marginals"),
        (["--model", "iid-baseline", "--n-grid", "64,128"], "cap ENUMERATION_CAP = 4194304"),
        (["--config", "{block}", "--n-grid", "4096"], "cap TRACE_CELL_CAP = 4194304"),
    ],
    ids=["continuous", "outcome-cap", "trace-cap"],
)
def test_oracle_says_why_no_grid_point_fits(tmp_path, capsys, argv, needle):
    block = tmp_path / "block.json"
    block.write_text(json.dumps({"family": "block-repeat", "m": 4096}))
    code = run_cli("--cmd", "oracle", *(a.format(block=block) for a in argv))
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: no grid point is exactly enumerable for this model: ")
    assert needle in err, err


@pytest.mark.parametrize(
    "argv,tail",
    [
        (["--model", "tail-coupled"], "; no n fits"),
        (["--model", "iid-baseline", "--n-grid", "64,128"], "; the largest n below 64 that fits is 17"),
        (["--model", "iid-baseline", "--n-grid", "18,64"], "; the largest n below 18 that fits is 17"),
        (["--model", "two-scale", "--n-grid", str(10**12)], "; the largest n below 1000000000000 that fits is 8"),
        (["--config", "{block}", "--n-grid", "4096"], "; no n below 4096 fits"),
        # below 8192 this row has one block, which a spike row refuses
        (["--config", "{spike}", "--n-grid", "8192"], "; no n below 8192 fits"),
    ],
    ids=["continuous", "outcome-cap", "just-below-the-grid", "far-beyond-the-caps", "trace-cap-at-every-n", "one-block-spike"],
)
def test_oracle_error_names_the_largest_n_that_fits(tmp_path, capsys, monkeypatch, argv, tail):
    # found from the declaration: nothing is enumerated, stdout stays empty
    def enumerate_outcomes(*args, **kwargs):
        raise AssertionError("enumerated while looking for a fitting n")

    monkeypatch.setattr(mart, "enumerate_outcomes", enumerate_outcomes)
    block, spike = tmp_path / "block.json", tmp_path / "spike.json"
    block.write_text(json.dumps({"family": "block-repeat", "m": 4096}))
    spike.write_text(json.dumps({"family": "block-repeat", "m": 4096, "spike_frac": 0.5}))
    code = run_cli("--cmd", "oracle", *(a.format(block=block, spike=spike) for a in argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: no grid point is exactly enumerable for this model: ")
    assert captured.err.endswith(tail + "\n"), captured.err
    if "largest" in tail:  # the n named fits, and the one above it does not
        n, model = int(tail.rsplit(" ", 1)[1]), models.build_model(argv[1])
        mart._require_trace_size(model, n)
        with pytest.raises(models.EnumerationTooLargeError):
            mart._require_trace_size(model, n + 1)


def test_oracle_skips_infeasible_trace_sizes(tmp_path, two_scale_config, capsys):
    # n = 10 for the two-scale row fits the outcome cap but not the trace
    # tensor cap; it must be skipped, not crash
    out = tmp_path / "oracle.json"
    code = run_cli(
        "--cmd", "oracle", "--config", two_scale_config,
        "--n-grid", "4,10", "--eps", "0.4", "--out", str(out),
    )
    assert code == 0
    err = capsys.readouterr().err
    assert err.startswith("skipped n=10: trace at n=10 would store ") and "TRACE_CELL_CAP" in err, err
    payload = json.loads(out.read_text())
    assert [t["n"] for t in payload["traces"]] == [4]
    # a grid with only infeasible points is a configuration error
    assert run_cli("--cmd", "oracle", "--config", two_scale_config, "--n-grid", "10,12") == 2


def test_oracle_names_each_skipped_grid_point(capsys):
    # stdout holds the traces that fit; stderr says which points were
    # dropped, one line each, with the reason the cap check gave
    argv = ["--cmd", "oracle", "--model", "iid-baseline", "--eps", "0.5"]
    assert run_cli(*argv, "--n-grid", "4,8,64,128") == 0
    captured = capsys.readouterr()
    assert [t["n"] for t in json.loads(captured.out)["traces"]] == [4, 8]
    assert captured.err.splitlines() == [
        "skipped n=64: iid-baseline(rademacher) at n=64 needs 2^64 outcomes (cap ENUMERATION_CAP = 4194304)",
        "skipped n=128: iid-baseline(rademacher) at n=128 needs 2^128 outcomes (cap ENUMERATION_CAP = 4194304)",
    ]
    # the skipped points leave stdout as the feasible grid alone gives it
    assert run_cli(*argv, "--n-grid", "4,8") == 0
    assert capsys.readouterr().out == captured.out


def test_oracle_output_does_not_depend_on_the_blas_thread_count(two_scale_config):
    # 2^15 outcomes at n = 7: long enough for OpenBLAS to split a dot
    # product across threads, which moves its last digits
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
        )
        proc = subprocess.run(
            [sys.executable, "-m", "mdepclt.cli", "--cmd", "oracle", "--config", two_scale_config, "--n-grid", "7"],
            capture_output=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# clt


def test_clt_command_threshold_pass_and_fail(tmp_path):
    cfg = tmp_path / "gauss.json"
    cfg.write_text(
        json.dumps(
            {"family": "block-repeat", "innovation": "normal", "m": 2, "ks_threshold": 0.05}
        )
    )
    out = tmp_path / "clt.json"
    code = run_cli(
        "--cmd", "clt", "--config", str(cfg),
        "--n-grid", "64,256", "--reps", "400", "--seed", "3", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] and payload["final_ks"] <= 0.05

    strict = tmp_path / "strict.json"
    strict.write_text(
        json.dumps(
            {"family": "block-repeat", "innovation": "normal", "m": 2, "ks_threshold": 1e-4}
        )
    )
    code = run_cli(
        "--cmd", "clt", "--config", str(strict),
        "--n-grid", "64,256", "--reps", "400", "--seed", "3",
        "--out", str(tmp_path / "clt2.json"),
    )
    assert code == 1  # threshold violation is exit 1, not an error


def test_clt_csv(tmp_path, two_scale_config):
    out = tmp_path / "clt.csv"
    code = run_cli(
        "--cmd", "clt", "--config", two_scale_config, "--n-grid", "64,128",
        "--reps", "300", "--format", "csv", "--out", str(out),
    )
    assert code in (0, 1)
    assert out.read_text().splitlines()[0] == "n,ks_stat,reps,seed"


def test_clt_runs_at_a_row_of_2_40_innovations(capsys):
    # S_n/sigma_n is drawn from the weight groups, so no row of n entries
    # is built and no row size is refused
    code = run_cli("--cmd", "clt", "--model", "iid-baseline", "--n-grid", "1099511627776", "--reps", "100")
    assert code in (0, 1)
    assert json.loads(capsys.readouterr().out)["grid"][0]["n"] == 2**40


def test_conditions_runs_on_twenty_four_equal_taps(tmp_path):
    # one magnitude group of 24 taps is a 25-atom law
    cfg = tmp_path / "ma24.json"
    cfg.write_text(json.dumps({"family": "moving-average", "coeffs": [1.0] * 24}))
    out = tmp_path / "out.json"
    code = run_cli("--cmd", "conditions", "--config", str(cfg), "--n-grid", "6..9", "--out", str(out))
    assert code == 0 and json.loads(out.read_text())["model"]["coeffs"] == [1.0] * 24


def test_conditions_over_the_atom_cap_is_exit_2(tmp_path, capsys):
    # 23 distinct magnitudes give 2^23 atoms, over ENUMERATION_CAP = 2^22
    cfg = tmp_path / "ma23.json"
    cfg.write_text(json.dumps({"family": "moving-average", "coeffs": [1 + i / 64 for i in range(23)]}))
    code = run_cli("--cmd", "conditions", "--config", str(cfg), "--n-grid", "6..9")
    _assert_config_error(code, capsys, "has 8388608 atoms (cap ENUMERATION_CAP = 4194304)")


@pytest.mark.parametrize(
    "model,n,needle",
    [
        # 2B - c of a binomial draw B of this group would not fit an int64
        ("iid-baseline", 2**62, "weight group of 4611686018427387904 innovations (cap 2^62)"),
        # a Gaussian row draws no binomial, but n no longer keys a stream
        ("tail-coupled", 2**64, "n must be < 2^64 to key a stream"),
    ],
    ids=["group-2^62", "gaussian-n-2^64"],
)
def test_clt_beyond_what_a_draw_can_take_is_exit_2(capsys, model, n, needle):
    code = run_cli("--cmd", "clt", "--model", model, "--n-grid", str(n), "--reps", "100")
    _assert_config_error(code, capsys, needle)


# ---------------------------------------------------------------------------
# sweep


@pytest.fixture(scope="module")
def sweep_payload_cached(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "sweep.json"
    code = run_cli("--cmd", "sweep", "--out", str(out))
    assert code == 0
    return json.loads(out.read_text())


def test_sweep_reproduces_inclusion_narrative(sweep_payload_cached):
    rows = {row["model"]: row for row in sweep_payload_cached["rows"]}
    # independent row: every classical condition holds
    iid = rows["iid-baseline"]
    assert iid["lindeberg-classic"] and iid["lindeberg-mdep"] and iid["orey"]
    assert iid["lyapunov(r=4)"] and iid["rio"]
    # the counterexample: the variance-sum condition fails, Lindeberg holds
    ts = rows["two-scale"]
    assert ts["lindeberg-classic"] and not ts["orey"]
    # shared-tail model: some Lyapunov order works, the block criterion not
    tc = rows["tail-coupled"]
    assert tc["lyapunov(r=4)"] and tc["lyapunov(r=6)"]
    assert not tc["romano-wolf(delta=2,gamma=0)"]
    # repeated blocks with fixed m: everything classical holds
    br = rows["block-repeat"]
    assert br["lindeberg-mdep"] and br["berk(delta=2)"] and br["romano-wolf(delta=2,gamma=0)"]


def test_each_row_law_and_sigma2_is_built_once_per_model_and_n():
    cached = (models.marginal_law_groups, models.exact_sigma2)
    for fn in cached:
        fn.cache_clear()
    cli.sweep_payload(cli.SWEEP_N_GRID, cli.DEFAULT_EPS_GRID, cli.DEFAULT_R_GRID)
    # 6 catalogue models x 17 sizes, against 1 530 and 1 632 calls
    assert [fn.cache_info().misses for fn in cached] == [102, 102]
    for fn in cached:
        fn.cache_clear()
    ma = cli.catalogue()["moving-average"]
    cli.conditions_payload(ma, cli.parse_grid("6..22"), cli.DEFAULT_EPS_GRID, cli.DEFAULT_R_GRID)
    assert [fn.cache_info().misses for fn in cached] == [17, 17]


def test_sweep_rows_are_holds_of_the_condition_reports(tmp_path):
    grid = "6..12"
    out = tmp_path / "sweep.json"
    assert run_cli("--cmd", "sweep", "--n-grid", grid, "--r", "4", "--out", str(out)) == 0
    for row in json.loads(out.read_text())["rows"]:
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(row["config"]))
        report_file = tmp_path / "conditions.json"
        code = run_cli(
            "--cmd", "conditions", "--config", str(cfg), "--n-grid", grid, "--r", "4",
            "--out", str(report_file),
        )
        assert code == 0
        sets: dict = {}
        for rep in json.loads(report_file.read_text())["reports"]:
            report = cond.ConditionReport(
                rep["condition_id"],
                tuple(cond.ConditionValue(**cv) for cv in rep["grid"]),
                rep["loglog_slope"], rep["slope_std_err"], rep["verdict"], rep["eq"],
            )
            column = rep["condition_id"].split(":")[0].split("(eps=")[0]
            sets.setdefault(column, []).append(cond.holds(report))
        assert {k: v for k, v in row.items() if k not in ("model", "config")} == {
            column: all(held) for column, held in sets.items()
        }, row["model"]


def test_sweep_csv_table(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli("--cmd", "sweep", "--n-grid", "6..14", "--r", "4", "--out", str(out), "--format", "csv")
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("model,lindeberg-classic,lindeberg-mdep,lyapunov(r=4)")
    assert len(lines) == 1 + 6  # six catalogued models


# ---------------------------------------------------------------------------
# configuration handling


def test_malformed_config_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"family": "two-scale", "alpha": 0.9}))
    code = run_cli("--cmd", "conditions", "--config", str(bad), "--n-grid", "6..10")
    assert code == 2
    assert "alpha" in capsys.readouterr().err


def test_unknown_config_key_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"family": "iid-baseline", "frobnicate": True}))
    code = run_cli("--cmd", "conditions", "--config", str(bad))
    assert code == 2
    assert "frobnicate" in capsys.readouterr().err


def test_invalid_json_config_is_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("--cmd", "conditions", "--config", str(bad)) == 2


def test_two_scale_runs_on_its_default_alpha(capsys):
    code = run_cli("--cmd", "conditions", "--model", "two-scale", "--n-grid", "6..9")
    assert code == 0
    assert json.loads(capsys.readouterr().out)["model"] == {"family": "two-scale", "alpha": 0.25}


def test_missing_model_is_exit_2():
    assert run_cli("--cmd", "conditions", "--n-grid", "6..10") == 2


def test_bad_grid_is_exit_2():
    assert run_cli("--cmd", "conditions", "--model", "iid-baseline", "--n-grid", "abc") == 2


def test_grid_exponents_beyond_the_float_range_are_rejected(capsys):
    # the range is checked before 2^k is built for every k in it
    with pytest.raises(ValueError):
        cli.parse_grid("1000..1024")
    assert cli.parse_grid("1023..1023") == [2**1023]
    code = run_cli("--cmd", "conditions", "--model", "iid-baseline", "--n-grid", "0..1000000000")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot parse n_grid") and err.count("\n") == 1
    assert "exponents must lie in 0..1023" in err


def test_a_float_range_error_names_n_by_its_exponent(capsys):
    code = run_cli("--cmd", "conditions", "--model", "iid-baseline", "--n-grid", "1020..1023")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "at n=2^1020 leaves the float range" in err
    assert len(err) < 300 and err.count("\n") == 1


def test_engine_argument_validation_is_exit_2():
    assert run_cli("--cmd", "conditions", "--model", "iid-baseline", "--r", "1.5") == 2
    assert run_cli("--cmd", "conditions", "--model", "iid-baseline", "--eps", "-1") == 2
    assert run_cli("--cmd", "clt", "--model", "iid-baseline", "--n-grid", "64,128", "--reps", "10") == 2


def test_flag_overrides_config_family(tmp_path, two_scale_config):
    out = tmp_path / "out.json"
    code = run_cli(
        "--cmd", "conditions", "--config", two_scale_config, "--model", "iid-baseline",
        "--n-grid", "6..10", "--eps", "0.5", "--r", "4", "--out", str(out),
    )
    assert code == 0
    assert json.loads(out.read_text())["model"] == {"family": "iid-baseline"}


def test_model_flag_keeps_matching_config_params(tmp_path, two_scale_config):
    out = tmp_path / "out.json"
    code = run_cli(
        "--cmd", "conditions", "--config", two_scale_config, "--model", "two-scale",
        "--n-grid", "6..10", "--eps", "0.5", "--r", "4", "--out", str(out),
    )
    assert code == 0
    assert json.loads(out.read_text())["model"]["alpha"] == 0.25


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mdepclt.cli", "--cmd", "conditions",
         "--model", "iid-baseline", "--n-grid", "6..10", "--eps", "0.5", "--r", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert '"reports"' in proc.stdout


def test_cli_runs_without_importing_scipy(tmp_path):
    # scipy.special costs about half of a CLI process's start-up, and only
    # the library-only kolmogorov_band needs it
    script = """
import contextlib, io, sys
import mdepclt.cli as cli
assert "scipy" not in sys.modules, "import"
for argv in (
    ["--cmd", "conditions", "--model", "moving-average", "--n-grid", "6..9"],
    ["--cmd", "oracle", "--model", "iid-baseline", "--n-grid", "4"],
    ["--cmd", "sweep", "--n-grid", "6..9"],
    ["--cmd", "clt", "--model", "iid-baseline", "--n-grid", "16", "--reps", "100"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) in (0, 1), argv  # a verdict, not a configuration error
    assert "scipy" not in sys.modules, argv[1]
    assert "numpy.ma" not in sys.modules, argv[1]  # plain np.unique imports it
"""
    proc = _fresh_python(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert round(mc.kolmogorov_band(10_000), 6) == 0.016276


def _fresh_python(script, cwd, **env):
    """Run script in a new interpreter that imports mdepclt from this tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=cwd)


def test_oracle_sweep_and_conditions_run_without_importing_numpy_random(tmp_path):
    # numpy.random loads secrets, hmac and _hashlib; only clt draws
    script = """
import contextlib, io, sys
import mdepclt.cli as cli
for argv in (
    ["--cmd", "oracle", "--model", "iid-baseline", "--n-grid", "4"],
    ["--cmd", "sweep", "--n-grid", "6..9"],
    ["--cmd", "conditions", "--model", "moving-average", "--n-grid", "6..9"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) in (0, 1), argv
    assert "numpy.random" not in sys.modules, argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(["--cmd", "clt", "--model", "iid-baseline", "--n-grid", "16", "--reps", "100"]) in (0, 1)
"""
    proc = _fresh_python(script, tmp_path)
    assert proc.returncode == 0, proc.stderr


#: command -> an argv, and the mdepclt modules it executes besides the
#: package and cli
ENGINES = {
    "clt": (
        ["--cmd", "clt", "--model", "two-scale", "--n-grid", "16", "--reps", "100", "--format", "csv"],
        ["laws", "models", "montecarlo"],
    ),
    "sweep": (["--cmd", "sweep", "--n-grid", "6..9", "--format", "csv"], ["conditions", "laws", "models"]),
    "conditions": (
        ["--cmd", "conditions", "--model", "moving-average", "--n-grid", "6..9"],
        ["conditions", "laws", "models"],
    ),
    "oracle": (["--cmd", "oracle", "--model", "iid-baseline", "--n-grid", "4"], ["laws", "martingale", "models"]),
}


@pytest.mark.parametrize("command", sorted(ENGINES))
def test_each_command_executes_only_its_engine(tmp_path, command):
    # every process compiles what it executes when bytecode is not cached;
    # the other submodules wait in sys.modules unexecuted (a lazy module's
    # type is not plain ModuleType until an attribute of it is read)
    argv, engine = ENGINES[command]
    script = f"""
import contextlib, io, sys, types
def executed():
    return sorted(
        name.removeprefix("mdepclt.") for name, mod in sys.modules.items()
        if name.startswith("mdepclt") and type(mod) is types.ModuleType
    )
import mdepclt.cli as cli
assert executed() == ["cli", "laws", "mdepclt", "models"], executed()
argv = {argv!r}
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(argv) in (0, 1), argv
assert executed() == sorted(["cli", "mdepclt", *{engine!r}]), executed()
registered = {{name for name in sys.modules if name.startswith("mdepclt.")}}
assert registered == {{"mdepclt." + name for name in ("cli", "conditions", "laws", "martingale", "models", "montecarlo")}}
"""
    proc = _fresh_python(script, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_overflowing_oracle_row_prints_one_error_line(tmp_path):
    # numpy's overflow warnings would reach stderr outside pytest, which
    # captures them; the sigma_n^2 check reports the overflow
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"family": "moving-average", "amplitude": 1e300}))
    argv = ["--cmd", "oracle", "--config", str(config), "--n-grid", "1,2,3,4", "--eps", "1.0"]
    proc = _fresh_python(f"import sys, mdepclt.cli as cli; sys.exit(cli.run({argv!r}))", tmp_path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: eps^2 sigma_n^2 = inf is not a positive finite float\n"


@pytest.mark.parametrize(
    "amplitude,message",
    [
        (1e100, "lyapunov_ratio(r=4.0) at n=2^0 leaves the float range: Numerical result out of range"),
        (1e150, "lyapunov_ratio(r=3.0) at n=2^0 leaves the float range: Numerical result out of range"),
        (1e154, "lindeberg-classic(eps=1) at n=1 must be a finite float >= 0, got inf"),
    ],
)
def test_overflowing_condition_moment_prints_one_error_line(tmp_path, amplitude, message):
    # a moment that overflows ends in one error line, without numpy's
    # overflow warning before it
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"family": "moving-average", "amplitude": amplitude}))
    argv = ["--cmd", "conditions", "--config", str(config), "--n-grid", "1,2,3,4", "--eps", "1.0"]
    proc = _fresh_python(f"import sys, mdepclt.cli as cli; sys.exit(cli.run({argv!r}))", tmp_path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("preset,expected", [(None, "1"), ("2", "2")])
def test_one_openblas_thread_unless_the_caller_sets_a_count(tmp_path, monkeypatch, preset, expected):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    proc = _fresh_python("import mdepclt, os; print(os.environ['OPENBLAS_NUM_THREADS'])", tmp_path, **env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


def _assert_config_error(code, capsys, needle):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and needle in err
    assert "Traceback" not in err


def test_fractional_m_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"family": "block-repeat", "m": 2.7}))
    code = run_cli("--cmd", "conditions", "--config", str(bad), "--n-grid", "6..10")
    _assert_config_error(code, capsys, "m must be an integer")


@pytest.mark.parametrize("cmd", ["conditions", "clt", "oracle"])
def test_constant_m_beyond_the_float_range_is_exit_2(tmp_path, capsys, cmd):
    # an integer m the row builders cannot divide by
    bad = tmp_path / "bad.json"
    bad.write_text('{"family": "block-repeat", "m": 1' + "0" * 400 + "}")
    code = run_cli("--cmd", cmd, "--config", str(bad), "--n-grid", "64", "--reps", "100")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: constant m_n exceeds the float range") and err.count("\n") == 1


def test_spiked_block_repeat_with_one_block_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"family": "block-repeat", "m": 8, "spike_frac": 0.5}))
    code = run_cli("--cmd", "conditions", "--config", str(bad), "--n-grid", "8,16,32,64")
    _assert_config_error(code, capsys, "at least 2 blocks")


def test_non_finite_coeffs_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"family": "moving-average", "coeffs": [1.0, Infinity]}')
    code = run_cli("--cmd", "conditions", "--config", str(bad), "--n-grid", "6..10")
    _assert_config_error(code, capsys, "coeffs must be finite")


def test_negative_seed_is_exit_2(capsys):
    code = run_cli(
        "--cmd", "clt", "--model", "iid-baseline", "--n-grid", "64,128",
        "--reps", "100", "--seed", "-1",
    )
    _assert_config_error(code, capsys, "seed")


@pytest.mark.parametrize(
    "config, key",
    [
        ({"family": "iid-baseline", "amplitude": True}, "amplitude"),
        ({"family": "block-repeat", "spike_frac": False}, "spike_frac"),
        ({"family": "moving-average", "coeffs": [True, 0.5]}, "coeffs"),
        ({"family": "tail-coupled", "beta": True}, "beta"),
        ({"family": "two-scale", "alpha": "0.25"}, "alpha"),
        ({"family": "moving-average", "coeffs": ["1", " 0.5 "]}, "coeffs"),
        ({"family": "iid-baseline", "amplitude": "1e0"}, "amplitude"),
        ({"family": "block-repeat", "spike_frac": "0.5"}, "spike_frac"),
    ],
)
def test_boolean_model_parameter_is_exit_2(tmp_path, capsys, config, key):
    # JSON true/false are not numbers, although Python's bool is an int;
    # nor are strings that float() would read as one
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    code = run_cli("--cmd", "conditions", "--config", str(bad), "--n-grid", "6..8")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {key} must be finite") and err.count("\n") == 1


@pytest.mark.parametrize(
    "config, flags, needle",
    [
        ({"reps": "300"}, (), "reps"),
        ({"reps": 300.5}, (), "reps"),
        ({"reps": True}, (), "reps"),
        ({"ks_threshold": "0.1"}, (), "ks_threshold"),
        ({"seed": "x"}, (), "seed"),
        ({"seed": 1.5}, (), "seed"),
        ({"eps": 0.5}, (), "eps"),
        ({"eps": [math.inf]}, (), "eps"),
        ({"n_grid": 5}, (), "n_grid"),
        ({"n_grid": [64.7, 128]}, (), "n_grid"),
        ({"out": 5}, (), "out"),
        ({"format": "xml"}, (), "format"),
        ({"family": "block-repeat", "m_kind": "linear"}, (), "m_kind"),
        ({}, ("--out", "no-such-dir/x.json"), "cannot write out file"),
        ({"eps": []}, (), "eps must be nonempty"),
        ({"family": "block-repeat", "m": 2, "beta": 0.5}, (), "more than one m_n schedule"),
    ],
)
def test_bad_run_setting_is_exit_2(tmp_path, monkeypatch, capsys, config, flags, needle):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"family": "iid-baseline", **config}))
    code = run_cli("--cmd", "conditions", "--config", str(path), "--n-grid", "6..9", *flags)
    _assert_config_error(code, capsys, needle)


def _resolve(*argv):
    return cli.resolve_config(cli.build_parser().parse_args(list(argv)))


def test_list_setting_text_uses_flag_syntax(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_grid": "6..8", "eps": "0.1,0.5", "r": "46"}))
    resolved = _resolve("--cmd", "sweep", "--config", str(path))
    assert resolved["n_grid"] == [64, 128, 256]
    assert resolved["eps"] == [0.1, 0.5]
    assert resolved["r"] == [46.0]  # one order, not the characters 4 and 6
    assert _resolve("--cmd", "sweep", "--config", str(path), "--r", "4,6")["r"] == [4.0, 6.0]


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["6..8", "8..6", "64,128", "0.1,0.5", "nan", "1,inf", "json", "csv"])
)
_JSON_VALUES = (
    _JSON_SCALARS
    | st.lists(_JSON_SCALARS, max_size=4)
    | st.recursive(
        _JSON_SCALARS,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
        max_leaves=6,
    )
)


@pytest.fixture(scope="module")
def fuzz_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    return path, cli.build_parser().parse_args(["--cmd", "conditions", "--config", str(path)])


@settings(max_examples=200, deadline=None)
@given(key=st.sampled_from(sorted(cli.SETTINGS)), value=_JSON_VALUES)
def test_resolve_config_returns_declared_types_or_rejects(fuzz_config, key, value):
    path, args = fuzz_config
    path.write_text(json.dumps({key: value}))
    try:
        resolved = cli.resolve_config(args)
    except cli.ConfigError:
        return
    assert resolved["n_grid"] and all(type(n) is int for n in resolved["n_grid"])
    for key in ("eps", "r"):
        assert all(type(x) is float and math.isfinite(x) for x in resolved[key])
    assert type(resolved["reps"]) is int and type(resolved["seed"]) is int
    assert type(resolved["ks_threshold"]) is float and math.isfinite(resolved["ks_threshold"])
    assert resolved["out"] is None or type(resolved["out"]) is str
    assert resolved["format"] in ("json", "csv")


# ---------------------------------------------------------------------------
# exit-code contract over whole runs

_ODD = st.sampled_from([-1, 0, 0.0, 1e-200, 1e300, math.inf, math.nan, "cauchy", None, True])
_INNOVATION = st.sampled_from(["rademacher", "normal"])
#: family -> parameter strategies that mostly stay in range
_FAMILY_PARAMS = {
    "iid-baseline": {},
    "two-scale": {"alpha": st.floats(0.05, 0.45)},
    "block-repeat": {
        "m": st.integers(1, 3), "innovation": _INNOVATION, "spike_frac": st.floats(0.0, 0.6),
    },
    "tail-coupled": {"beta": st.floats(0.1, 0.5), "m_kind": st.just("log")},
    "moving-average": {
        "coeffs": st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3),
        "innovation": _INNOVATION,
    },
}
#: command -> largest drawn n: sampling and enumeration cost grows with n
_SIZES = {"conditions": 2**20, "oracle": 6, "clt": 64}
#: sizes near the float limits, for the commands that never build a row of
#: that length (sampling does)
_HUGE_SIZES = st.sampled_from([2**40, 2**62, 2**1030])


@st.composite
def _runs(draw):
    def rarely():  # hypothesis favours 0, so the top value is the rare one
        return draw(st.integers(0, 7)) == 7

    cmd = draw(st.sampled_from(sorted(_SIZES)))
    family = draw(st.sampled_from(sorted(_FAMILY_PARAMS) + ["no-such-family"]))
    config = {"family": family}
    for key, good in _FAMILY_PARAMS.get(family, {}).items():
        if key == "alpha" or draw(st.booleans()):
            config[key] = draw(_ODD) if rarely() else draw(good)
    if rarely():
        config[draw(st.sampled_from(["m", "beta", "amplitude", "alpha"]))] = draw(
            st.floats(0.1, 4.0) | _ODD
        )
    sizes = st.integers(1, _SIZES[cmd])
    grid = draw(st.lists(sizes, min_size=1 if rarely() else 4, max_size=6, unique=True))
    if cmd != "clt" and rarely():
        grid.append(draw(_HUGE_SIZES))
    config["n_grid"] = grid if rarely() else sorted(grid)
    eps = st.lists(st.floats(0.01, 2.0), min_size=1, max_size=3)
    config["eps"] = draw(st.sampled_from([[], [0.0], [0.5, -1.0]])) if rarely() else draw(eps)
    orders = st.floats(2.01, 12.0) | st.sampled_from([2.0001, 400.0, 1.5])
    config["r"] = draw(st.lists(orders, max_size=3))
    config["reps"] = 90 if rarely() else draw(st.integers(100, 200))
    config["ks_threshold"] = draw(st.floats(0.0, 0.5))
    return cmd, config


@pytest.fixture(scope="module")
def run_config(tmp_path_factory):
    return tmp_path_factory.mktemp("runs") / "cfg.json"


def _two_scale(**settings):
    return {"family": "two-scale", "alpha": 0.25, **settings}


@settings(max_examples=40, deadline=None)
@given(run=_runs())
@example(run=("conditions", {"family": "iid-baseline", "n_grid": [2**k for k in range(1030, 1034)]}))
@example(run=("conditions", {"family": "iid-baseline", "n_grid": [2**62 + i for i in range(4)]}))
@example(run=("conditions", _two_scale(r=[400.0])))
@example(run=("conditions", _two_scale(eps=[], n_grid=[2**k for k in range(6, 10)])))
@example(run=("conditions", {"family": "block-repeat", "m": 2, "beta": 0.5}))
@example(run=("clt", {"family": "iid-baseline", "n_grid": [64], "reps": 10**15}))
@example(run=("oracle", {"family": "block-repeat", "n_grid": [1, 2, 3, 4, 2**40], "eps": [0.0]}))
@example(run=("oracle", {"family": "moving-average", "amplitude": 1e300, "n_grid": [1, 2, 3, 4], "eps": [1.0]}))
def test_run_keeps_the_exit_code_contract(run_config, run):
    """Exit 0 or 1 with a payload whose `passed` matches, or exit 2 with
    one `error:` line; never an exception out of `run`."""
    cmd, config = run
    run_config.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(["--cmd", cmd, "--config", str(run_config)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert json.loads(out.getvalue()).get("passed", True) is (code == 0)
