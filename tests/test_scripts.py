"""The scripts under scripts/ run end to end at tiny sizes."""

import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import numpy as np

from rmtlab.io import read_csv, read_json
from rmtlab.potential import IntervalSet, Potential
from rmtlab.scenarios import default_fit

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_scenarios_writes_the_scans_it_can_run(tmp_path):
    # every run scans its preset's default ladder
    assert load("run_scenarios").main(["--outdir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "scan_gue-bulk.json", "scan_gue-edge.json", "scan_mp-hard-edge-a0.json",
        "scan_mp-hard-edge-a05.json", "scan_mp-two-charge.json",
        "scan_quartic-merge-t0.json", "scan_quartic-merge-t2.json"]
    scan = read_json(tmp_path / "scan_mp-two-charge.json")
    assert [row["n"] for row in scan["rows"]] == [40, 80]


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


def test_fingerprint_is_reproducible_and_reports_a_one_ulp_move(tmp_path, capsys):
    fp = load("fingerprint")
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert fp.main(["write", str(first)]) == 0
    assert fp.main(["write", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    objects = json.loads(first.read_text())["objects"]
    assert "model:gue-bulk:measure" in objects and "scan:gue-edge:recurrence-400" in objects
    assert "kernel:gue-40:matrix-61" in objects and "kernel:mp-two-charge-40:diag-nodes" in objects
    assert any(k.startswith("cli:") and k.endswith("scan_gue-edge.json") for k in objects)
    capsys.readouterr()
    assert fp.main(["compare", str(first), str(second)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == f"{len(objects)} of {len(objects)} objects identical"

    # control: the GUE fit with b_7 moved up by one ulp
    r, _ = default_fit(Potential(n=40, reg=(0.0, 1.0), singularities=(),
                                 support=IntervalSet(((-math.inf, math.inf),))))
    assert fp.entry(r) == objects["fit:gue-40:recurrence"]
    b = list(r.b)
    b[7] = float(np.nextafter(b[7], math.inf))
    objects["fit:gue-40:recurrence"] = fp.entry(dataclasses.replace(r, b=tuple(b)))
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps({"objects": objects}))
    assert fp.main(["compare", str(first), str(moved)]) == 1
    lines = capsys.readouterr().out.splitlines()
    ulp = b[7] - r.b[7]
    assert ulp == math.ulp(r.b[7])
    assert (f"fit:gue-40:recurrence: moved: 1 of {len(r.a) + len(b) + 3} floats, "
            f"largest absolute move {ulp:.3e}, largest relative move "
            f"{ulp / b[7]:.3e}") in lines
    assert lines[-1] == f"{len(objects) - 1} of {len(objects)} objects identical"
