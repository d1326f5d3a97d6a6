"""Command-line front end: exit codes, artifacts, manifests."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from rmtlab import cli
from rmtlab.cli import main
from rmtlab.io import read_csv, read_json

GUE = {"reg": [0.0, 1.0], "singularities": [], "support": [["-inf", "inf"]],
       "n": 16}
MP = {"reg": [-1.0], "singularities": [{"b": [0.0, 0.0], "alpha": 0.5}],
      "support": [["-inf", 0.0]], "n": 16}
BAD_ALPHA = {"reg": [-1.0], "singularities": [{"b": [0.0, 0.0], "alpha": -0.7}],
             "support": [["-inf", 0.0]], "n": 16}
TWO_CUT = {"reg": [0.0, -3.0, 0.0, 1.0], "singularities": [],
           "support": [["-inf", "inf"]], "n": 16}
# V = x + 1/x on (0, inf) with a charge 1 at 0: the pole term is in the
# weight of every fit, but no equilibrium solver balances it
POLE = {"reg": [1.0], "singularities": [{"b": [0.0, 0.0], "alpha": 1.0, "t": [-1.0]}],
        "support": [[0.0, "inf"]], "n": 16}
# Gaussian with charges 1/2 at +-1: even, with two singularities
TWO_CHARGE_GUE = {"reg": [0.0, 1.0],
                  "singularities": [{"b": [1.0, 0.0], "alpha": 0.5},
                                    {"b": [-1.0, 0.0], "alpha": 0.5}],
                  "support": [["-inf", "inf"]], "n": 16}
# V = x^4/4 - x^2: max log w = n, past log(float max) = 709.78 at n = 720
QUARTIC = {"reg": [0.0, -2.0, 0.0, 1.0], "singularities": [],
           "support": [["-inf", "inf"]], "n": 720}


@pytest.fixture()
def outdir(tmp_path):
    return tmp_path


def write_cfg(outdir, doc, name="cfg.json"):
    path = outdir / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(outdir, *argv):
    return main(["--outdir", str(outdir), *argv])


def test_validate_ok_and_manifest(outdir):
    cfg = write_cfg(outdir, GUE)
    assert run(outdir, "validate", cfg) == 0
    rep = read_json(outdir / "validate_report.json")
    assert rep["ok"] is True and rep["n"] == 16
    man = read_json(outdir / "manifest_validate.json")
    assert man["command"] == "validate"
    assert "validate_report.json" in man["outputs"]
    assert man["version"] and man["wall_time_s"] >= 0.0


def test_validate_negative_alpha_fails(outdir):
    cfg = write_cfg(outdir, BAD_ALPHA)
    assert run(outdir, "validate", cfg) == 2
    rep = read_json(outdir / "validate_report.json")
    assert rep["ok"] is False and "alpha" in rep["error"]


def test_validate_rejects_nan_coefficient(outdir, capsys):
    cfg = write_cfg(outdir, {**GUE, "reg": [math.nan, 1.0]})
    assert run(outdir, "validate", cfg) == 2
    rep = read_json(outdir / "validate_report.json")
    assert rep["ok"] is False and "reg[0] must be finite" in rep["error"]
    assert run(outdir, "equilibrium", cfg) == 2
    assert "reg[0] must be finite" in capsys.readouterr().err


def test_validate_rejects_nan_charge(outdir, capsys):
    doc = {**MP, "singularities": [{"b": [0.0, 0.0], "alpha": math.nan}]}
    cfg = write_cfg(outdir, doc)
    assert run(outdir, "validate", cfg) == 2
    assert "singularities[0].alpha must be finite" in read_json(
        outdir / "validate_report.json")["error"]
    assert run(outdir, "kernel", cfg) == 2
    assert not (outdir / "kernel.csv").exists()


def test_validate_infinite_support_endpoint_still_valid(outdir):
    # JSON Infinity in the support means an unbounded interval
    cfg = write_cfg(outdir, {**GUE, "support": [[-math.inf, math.inf]]})
    assert run(outdir, "validate", cfg) == 0


@pytest.mark.parametrize("scenario,param", [
    ("mp-hard-edge", "alpha=nan"), ("quartic-merge", "tau=nan"),
    ("quartic-merge", "tau=inf"),
])
def test_converge_rejects_non_finite_param(outdir, capsys, scenario, param):
    assert run(outdir, "converge", scenario, "--param", param,
               "--n-list", "12,24") == 2
    assert f"parameter {param!r} must be finite" in capsys.readouterr().err
    assert not (outdir / f"scan_{scenario}.json").exists()


def test_validate_missing_file(outdir, capsys):
    assert run(outdir, "validate", str(outdir / "absent.json")) == 2
    assert "not found" in capsys.readouterr().err


def test_validate_malformed_json(outdir):
    path = outdir / "broken.json"
    path.write_text("{not json")
    assert run(outdir, "validate", str(path)) == 2


@pytest.mark.parametrize("name", ["configs", "latin1.json"], ids=["directory", "not-utf8"])
def test_validate_unreadable_config(outdir, capsys, name):
    (outdir / "configs").mkdir()
    (outdir / "latin1.json").write_bytes(b'{"n": 4, "reg": [0.0, 1.0], "note": "\xe9"}')
    assert run(outdir, "validate", str(outdir / name)) == 2
    rep = read_json(outdir / "validate_report.json")
    assert rep["ok"] is False
    assert rep["error"] in capsys.readouterr().err
    assert (outdir / "manifest_validate.json").exists()


def test_unusable_outdir_exits_two(outdir, capsys):
    cfg = write_cfg(outdir, GUE)
    blocker = outdir / "taken"
    blocker.write_text("")
    assert run(blocker, "validate", cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: output directory {blocker} cannot be made: ")
    assert err.count("\n") == 1
    assert sorted(f.name for f in outdir.iterdir()) == ["cfg.json", "taken"]


def test_usage_errors_exit_one(outdir):
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    assert main(["validate"]) == 1          # missing positional
    assert main(["--help"]) == 0
    assert main(["--version"]) == 0


def test_equilibrium_density_and_variational(outdir):
    cfg = write_cfg(outdir, GUE)
    assert run(outdir, "equilibrium", cfg, "--grid", "101") == 0
    cols, arr, meta = read_csv(outdir / "density.csv")
    assert cols == ["x", "rho"]
    assert meta["structure"] == "one_cut"
    mid = arr[np.argmin(np.abs(arr[:, 0])), 1]
    assert mid == pytest.approx(1.0 / math.pi, abs=1e-6)
    with open(outdir / "variational.csv") as f:
        body = [ln for ln in f if ln.strip() and not ln.startswith("#")]
    verdicts = {ln.strip().split(",")[2] for ln in body[1:]}
    assert verdicts == {"ok"}


def test_equilibrium_infeasible_structure_exits_three(outdir):
    cfg = write_cfg(outdir, GUE)
    assert run(outdir, "equilibrium", cfg, "--structure",
               "symmetric_two_cut") == 3


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_equilibrium_grid_below_one_exits_two(outdir, capsys, grid):
    cfg = write_cfg(outdir, GUE)
    assert run(outdir, "equilibrium", cfg, "--grid", grid) == 2
    assert "--grid must be at least 1" in capsys.readouterr().err
    assert not (outdir / "density.csv").exists()


# V' = -3x + 1.2x^2 + x^3: the one-cut solve leaves a real zero of h at
# x = 1.341 where the variational inequality fails by +0.72
LOPSIDED = {"reg": [0.0, -3.0, 1.2, 1.0], "singularities": [],
            "support": [["-inf", "inf"]], "n": 100}
# V' = x - 0.08x^3 on [-3.5, 3.5]: it fails at the domain end x = -3.5
# (+0.083), which is no zero of h
WALLED = {"reg": [0.0, 1.0, 0.0, -0.08], "singularities": [],
          "support": [[-3.5, 3.5]], "n": 50}


@pytest.mark.parametrize("doc,where", [(LOPSIDED, "x=1.34139 (+0.724)"),
                                       (WALLED, "x=-3.5 (+0.0826)")],
                         ids=["zero-of-h", "domain-end"])
@pytest.mark.parametrize("argv", [["equilibrium"], ["classify"],
                                  ["sample", "--steps", "5"],
                                  ["kernel", "--at", "-1.473"]],
                         ids=lambda a: a[0])
def test_variational_inequality_violation_exits_three(outdir, capsys, doc, where, argv):
    cfg = write_cfg(outdir, doc)
    assert run(outdir, argv[0], cfg, *argv[1:]) == 3
    err = capsys.readouterr().err
    assert f"violates the variational inequality at {where}" in err
    assert read_json(outdir / f"manifest_{argv[0]}.json")["outputs"] == []


def test_classify_gue_reports_two_soft_edges(outdir):
    cfg = write_cfg(outdir, GUE)
    assert run(outdir, "classify", cfg) == 0
    rep = read_json(outdir / "classify_report.json")
    cps = rep["critical_points"]
    assert len(cps) == 2
    assert all(c["kind"] == "edge" and c["order_k"] == 0 for c in cps)
    assert len(rep["model_data"]) == 2
    assert rep["model_data"][0]["delta"] == pytest.approx(2.0 / 3.0)


def test_classify_mp_hard_edge(outdir):
    cfg = write_cfg(outdir, MP)
    assert run(outdir, "classify", cfg, "--structure", "hard_edge_one_cut",
               "--n", "12") == 0
    rep = read_json(outdir / "classify_report.json")
    hard = [c for c in rep["critical_points"] if abs(c["x_star"]) < 1e-9]
    assert hard and hard[0]["order_k"] == -1 and hard[0]["delta"] == 2.0


def test_kernel_raw_grid_and_trace(outdir):
    cfg = write_cfg(outdir, GUE)
    assert run(outdir, "kernel", cfg, "--grid=-1.5:1.5:5") == 0
    cols, arr, meta = read_csv(outdir / "kernel.csv")
    assert cols == ["u", "v", "value"]
    assert arr.shape == (25, 3)
    vals = arr[:, 2].reshape(5, 5)
    assert np.array_equal(vals, vals.T)
    assert float(meta["trace"]) == pytest.approx(16.0, rel=1e-8)
    dcols, darr, dmeta = read_csv(outdir / "kernel_diag.csv")
    assert np.sum(darr[:, 1] * darr[:, 2]) == pytest.approx(16.0, rel=1e-8)


def test_kernel_off_domain_zeros_flagged(outdir):
    cfg = write_cfg(outdir, MP)
    assert run(outdir, "kernel", cfg, "--grid=-1.0,-0.5,0.5") == 0
    cols, arr, meta = read_csv(outdir / "kernel.csv")
    # the shared grid is used for both axes, so one off point counts twice
    assert int(meta["outside_points"]) == 2
    assert list(meta) == ["n", "x_star", "delta", "scaled", "outside_points",
                          "trace", "timestamp"]
    assert (meta["n"], meta["x_star"], meta["delta"], meta["scaled"]) == (
        "16", "None", "None", "False")
    off = arr[np.abs(arr[:, 0] - 0.5) < 1e-12]
    assert np.all(off[:, 2] == 0.0)


def test_kernel_scaled_at_edge(outdir):
    cfg = write_cfg(outdir, GUE)
    assert run(outdir, "kernel", cfg, "--at", "2.0", "--grid=-2:0.5:4") == 0
    cols, arr, meta = read_csv(outdir / "kernel.csv")
    assert meta["scaled"] == "True"
    assert float(meta["x_star"]) == pytest.approx(2.0, abs=1e-8)
    assert list(meta) == ["n", "x_star", "delta", "scaled", "kind", "order_k",
                          "trace", "timestamp"]
    assert (meta["n"], meta["delta"], meta["kind"], meta["order_k"]) == (
        "16", repr(2.0 / 3.0), "edge", "0")
    assert np.array_equal(np.unique(arr[:, 0]), np.linspace(-2, 0.5, 4))


def test_kernel_where_weight_overflows(outdir):
    cfg = write_cfg(outdir, QUARTIC)
    assert run(outdir, "kernel", cfg, "--at", "0.0") == 0
    _, arr, meta = read_csv(outdir / "kernel.csv")
    assert meta["trace"] == "720"
    assert np.all(np.isfinite(arr))


def test_kernel_at_checked_before_fit(outdir, capsys):
    # the MP charge at n = 320 fails the clip guard, so a fit first would exit 3
    cfg = write_cfg(outdir, MP)
    assert run(outdir, "kernel", cfg, "--n", "320", "--at", "nope") == 2
    assert "--at must be 'raw' or a number" in capsys.readouterr().err
    assert not (outdir / "kernel.csv").exists()


@pytest.mark.parametrize("at", ["nan", "inf", "-inf"])
def test_kernel_at_must_be_finite(outdir, capsys, at):
    # every distance to a non-finite target ties, so the first point would win
    cfg = write_cfg(outdir, GUE)
    assert run(outdir, "kernel", cfg, f"--at={at}") == 2
    assert f"--at must be finite, got {at!r}" in capsys.readouterr().err
    assert not (outdir / "kernel.csv").exists()


@pytest.mark.parametrize("argv", [
    ["equilibrium"],
    ["classify"],
    ["sample", "--steps", "20"],
    ["kernel", "--at", "0.0", "--grid=0.5:2:3"],
], ids=["equilibrium", "classify", "sample", "kernel-at"])
def test_pole_terms_refused_by_equilibrium_commands(outdir, capsys, argv):
    # without the refusal, hard_edge_one_cut returned Marchenko-Pastur's
    # [0, 4], the measure of V without its pole term
    cfg = write_cfg(outdir, POLE)
    cmd, *rest = argv
    assert run(outdir, cmd, cfg, "--structure", "hard_edge_one_cut", *rest) == 2
    assert "singularities[0] has pole coefficient t_1 != 0" in capsys.readouterr().err
    assert not [f for f in outdir.iterdir() if f.suffix == ".csv"]


def test_kernel_at_refuses_before_fitting(outdir, capsys, monkeypatch):
    def no_fit(p):
        raise AssertionError("kernel --at fitted a config the equilibrium layer refuses")

    monkeypatch.setattr(cli, "default_fit", no_fit)
    cfg = write_cfg(outdir, POLE)
    assert run(outdir, "kernel", cfg, "--at", "0.0", "--grid=0.5:2:3",
               "--structure", "hard_edge_one_cut") == 2
    assert "singularities[0] has pole coefficient t_1 != 0" in capsys.readouterr().err


def test_pole_terms_still_fit_for_raw_kernel(outdir):
    cfg = write_cfg(outdir, POLE)
    assert run(outdir, "kernel", cfg, "--grid=0.5:4:4") == 0
    _, _, meta = read_csv(outdir / "kernel.csv")
    assert float(meta["trace"]) == pytest.approx(16.0, rel=1e-8)


def test_kernel_on_even_model_with_two_charges(outdir):
    cfg = write_cfg(outdir, TWO_CHARGE_GUE)
    assert run(outdir, "kernel", cfg, "--at", "2.0", "--grid=-1:1:3") == 0
    _, _, meta = read_csv(outdir / "kernel.csv")
    assert float(meta["trace"]) == pytest.approx(16.0, rel=1e-8)


def test_converge_scan_json(outdir):
    assert run(outdir, "converge", "gue-bulk", "--n-list", "16,32",
               "--grid=-1:1:5") == 0
    scan = read_json(outdir / "scan_gue-bulk.json")
    errs = [row["sup_error"] for row in scan["rows"]]
    assert len(errs) == 2 and errs[1] < errs[0]
    assert scan["reference"]["kind"] == "sine"


def test_converge_unknown_scenario(outdir):
    assert run(outdir, "converge", "unknown-name") == 2


def test_converge_single_n_collapse_exits_two(outdir, capsys):
    # quartic-merge has no reference law: it compares successive n
    assert run(outdir, "converge", "quartic-merge", "--n-list", "30") == 2
    assert "needs two, got [30]" in capsys.readouterr().err
    assert not (outdir / "scan_quartic-merge.json").exists()


@pytest.mark.parametrize("argv", [
    ("--n-list", "20,40", "--grid", "0.5:1:3"),   # grid leaves R-
    ("--param", "alpha=-3"),                       # charge must be > 0
])
def test_converge_validation_failure_exits_two(outdir, capsys, argv):
    assert run(outdir, "converge", "mp-hard-edge", *argv) == 2
    assert "convergence scan failed at stage n=" in capsys.readouterr().err


def test_converge_numerical_failure_exits_three(outdir, capsys):
    # the clip guard refuses the MP hard edge at n = 400
    assert run(outdir, "converge", "mp-hard-edge", "--n-list", "300,400") == 3
    assert "convergence scan failed at stage n=400" in capsys.readouterr().err


def test_converge_scenario_params(outdir):
    assert run(outdir, "converge", "quartic-merge", "--param", "tau=2.0",
               "--n-list", "12,24", "--grid=-1:1:4") == 0
    scan = read_json(outdir / "scan_quartic-merge.json")
    assert scan["reference"]["kind"] == "self"
    assert len(scan["rows"]) == 1


def test_sample_outputs_and_determinism(outdir, tmp_path):
    cfg = write_cfg(outdir, GUE)
    # 16 sites x 700 sweeps crosses the 10^4-proposal drift audit once
    assert run(outdir, "sample", cfg, "--steps", "700", "--burn-in", "40",
               "--seed", "11", "--thin", "2") == 0
    cols, arr, _ = read_csv(outdir / "samples.csv")
    assert cols[0] == "sweep" and len(cols) == 17
    assert arr[0, 0] == 40.0 and arr[1, 0] == 42.0
    meta = read_json(outdir / "chain_meta.json")
    assert meta["rng_stream"] == "pcg64:11"
    assert 0.0 < meta["acceptance_rate"] <= 1.0
    assert meta["propose_count"] >= 10_000
    assert 0.0 <= meta["max_drift"] < 1e-9
    cmp_rep = read_json(outdir / "density_comparison.json")
    assert cmp_rep["l1_dev"] > 0.0

    other = tmp_path / "again"
    other.mkdir()
    assert run(other, "sample", cfg, "--steps", "700", "--burn-in", "40",
               "--seed", "11", "--thin", "2") == 0
    _, arr2, _ = read_csv(other / "samples.csv")
    assert np.array_equal(arr, arr2)


def test_sample_single_eigenvalue(outdir):
    # the lone chain point starts mid-window, inside the bins
    cfg = write_cfg(outdir, {**GUE, "n": 1})
    assert run(outdir, "sample", cfg, "--steps", "20") == 0


def test_sample_infeasible_structure_exits_before_chain(outdir):
    cfg = write_cfg(outdir, MP)
    assert run(outdir, "sample", cfg, "--steps", "2000") == 3
    assert not (outdir / "samples.csv").exists()
    assert not (outdir / "chain_meta.json").exists()
    assert read_json(outdir / "manifest_sample.json")["outputs"] == []


@pytest.mark.parametrize("bins", ["0", "-2"])
def test_sample_bins_below_one_exits_two(outdir, capsys, bins):
    cfg = write_cfg(outdir, GUE)
    assert run(outdir, "sample", cfg, "--steps", "20", "--bins", bins) == 2
    assert "--bins must be at least 1" in capsys.readouterr().err
    assert not (outdir / "samples.csv").exists()


def test_sample_negative_seed_exits_two(outdir, capsys):
    # numpy refuses a negative seed; the chain arguments are checked first
    cfg = write_cfg(outdir, GUE)
    assert run(outdir, "sample", cfg, "--steps", "20", "--seed", "-1") == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not (outdir / "samples.csv").exists()
    assert read_json(outdir / "manifest_sample.json")["outputs"] == []


def test_sample_negative_burn_in_exits_two(outdir, capsys):
    # the chain once ran with no burn-in and labelled sweep 0 as -3
    cfg = write_cfg(outdir, GUE)
    assert run(outdir, "sample", cfg, "--steps", "5", "--burn-in", "-3") == 2
    assert "burn_in must be non-negative, got -3" in capsys.readouterr().err
    assert not (outdir / "samples.csv").exists()


def test_sample_starts_next_to_a_charge(outdir):
    # three points centred on the charge at 0: the middle one steps off it
    doc = {**GUE, "n": 3, "singularities": [{"b": [0.0, 0.0], "alpha": 0.5}]}
    cfg = write_cfg(outdir, doc)
    assert run(outdir, "sample", cfg, "--steps", "20") == 0
    _, arr, _ = read_csv(outdir / "samples.csv")
    assert np.all(arr[:, 1:] != 0.0)


def test_sample_zero_steps_errors(outdir):
    cfg = write_cfg(outdir, GUE)
    assert run(outdir, "sample", cfg, "--steps", "0") == 2


def test_sample_chain_arguments_checked_before_solve(outdir, capsys):
    # MP has no one_cut solution, so a solve first would exit 3
    cfg = write_cfg(outdir, MP)
    assert run(outdir, "sample", cfg, "--steps", "0") == 2
    assert "steps must exceed burn_in" in capsys.readouterr().err
    assert run(outdir, "sample", cfg, "--steps", "5", "--thin", "0") == 2
    assert "thin must be at least 1" in capsys.readouterr().err


def test_sample_bins_grid_checked_before_solve(outdir, capsys):
    # V = -x on (-inf, 0] has no one_cut solution, so a solve first would exit 3
    cfg = write_cfg(outdir, {**MP, "singularities": [], "n": 40})
    assert run(outdir, "sample", cfg, "--steps", "10", "--bins-grid", "bad") == 2
    assert "bad grid spec" in capsys.readouterr().err
    assert not (outdir / "samples.csv").exists()


@pytest.mark.parametrize("argv,product", [
    (["kernel", "CFG", "--grid=0,inf"], "kernel.csv"),
    (["kernel", "CFG", "--grid=-1e308:1e308:3"], "kernel.csv"),
    (["kernel", "CFG", "--at", "2.0", "--grid=0,inf"], "kernel.csv"),
    (["converge", "gue-bulk", "--grid=0,inf"], "scan_gue-bulk.json"),
    (["sample", "CFG", "--steps", "10", "--bins-grid=-3,0,inf"], "samples.csv"),
], ids=["kernel-raw", "kernel-span", "kernel-at", "converge", "sample-bins"])
def test_non_finite_grid_points_exit_two(outdir, capsys, argv, product):
    # kernel once wrote NaN into kernel.csv and converge crashed in sine_kernel
    cfg = write_cfg(outdir, GUE)
    assert run(outdir, *[cfg if a == "CFG" else a for a in argv]) == 2
    assert "must have finite points" in capsys.readouterr().err
    assert not (outdir / product).exists()


def test_console_script_entry_point(outdir):
    cfg = write_cfg(outdir, GUE)
    proc = subprocess.run(
        [sys.executable, "-m", "rmtlab.cli", "--outdir", str(outdir),
         "validate", cfg],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def test_outdir_env_var(outdir, monkeypatch):
    cfg = write_cfg(outdir, GUE)
    target = outdir / "env_target"
    monkeypatch.setenv("RMTLAB_OUTDIR", str(target))
    assert main(["validate", cfg]) == 0
    assert (target / "validate_report.json").exists()


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("argv", [
    ["validate", "CFG"],
    ["equilibrium", "CFG"],
    ["classify", "CFG"],
    ["kernel", "CFG"],
    ["sample", "CFG", "--steps", "20"],
    ["converge", "gue-edge", "--n-list", "20,40"],
], ids=lambda a: a[0])
def test_outputs_are_the_manifest_and_standard_json(tmp_path, argv):
    # every file a command writes is listed in its manifest, and every
    # JSON file parses without Infinity, -Infinity or NaN
    cfg = write_cfg(tmp_path, GUE)
    out = tmp_path / "out"
    assert run(out, *[cfg if a == "CFG" else a for a in argv]) == 0
    manifest = f"manifest_{argv[0]}.json"
    listed = read_json(out / manifest)["outputs"]
    assert listed and sorted(f.name for f in out.iterdir()) == sorted(listed + [manifest])
    for path in out.glob("*.json"):
        json.loads(path.read_text(), parse_constant=_refuse_constant)
