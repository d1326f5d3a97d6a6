"""The scripts under scripts/ run end to end at tiny sizes."""

import importlib.util
from pathlib import Path

from rmtlab.io import read_csv, read_json

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_scenarios_writes_the_scans_it_can_run(tmp_path):
    # at n <= 60 only the quartic-merge pair and mp-two-charge have two stages
    assert load("run_scenarios").main(["--outdir", str(tmp_path), "--n-max", "60"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "scan_mp-two-charge.json", "scan_quartic-merge-t0.json",
        "scan_quartic-merge-t2.json"]
    scan = read_json(tmp_path / "scan_mp-two-charge.json")
    assert [row["n"] for row in scan["rows"]] == [40]


def test_mcmc_crosscheck_writes_samples_and_reports(tmp_path):
    argv = ["--outdir", str(tmp_path), "--sweeps", "200", "--burn-in", "50"]
    assert load("mcmc_crosscheck").main(argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "chain_meta.json", "comparison.json", "samples.csv"]
    columns, rows, meta = read_csv(tmp_path / "samples.csv")
    assert meta["n"] == "40" and rows.shape == (200, 41) and columns[0] == "sweep"
    assert rows[:, 0].tolist() == list(range(50, 250))
    # the sweep column prints as an integer, as it did when it was an int
    assert "\n50," in (tmp_path / "samples.csv").read_text()
    assert read_json(tmp_path / "chain_meta.json")["kept_sweeps"] == 200
