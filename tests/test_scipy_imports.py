"""rmtlab runs without loading scipy.

Quadrature, recurrence, K_n, the equilibrium solves and every
command built on them need numpy alone; scipy is a test
dependency only.  On a 2-vCPU Xeon host scipy.optimize alone cost
0.35-0.41 s of cold start and scipy.linalg about 0.3 s, which a
module-level import charges to every `import rmtlab`.  scipy.special
alone measured 0.29-0.56 s cold on the same host.

Fits and equilibrium solves do not load numpy.polynomial either: their
Gauss-Legendre rules come from quad.gauss_legendre's Newton iteration,
not from leggauss's dense eigensolve.  Nor do the commands call
numpy.linalg (LAPACK): the roots of h come from closed forms and
Aberth's iteration (equilibrium.h_roots), the root product of a scaled
curve from np.convolve, and the decay fit of a scan from the
closed-form least-squares slope.  A profile hook records every call
into numpy/linalg/ to show it; gram_check's matrix product is BLAS, not
numpy.linalg.

Each case runs in a fresh interpreter, since the pytest process has
loaded scipy long before it starts.  An import hook refuses every scipy
import there and records the module that asked for it, so a regression
names its culprit even where the import error is caught.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

GUARD = """
import json, sys

blocked = []

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] != "scipy":
            return None
        f = sys._getframe(1)
        while f.f_globals.get("__name__", "").startswith(("importlib", "_frozen")):
            f = f.f_back
        blocked.append([name, f.f_globals.get("__name__")])
        raise ImportError(f"scipy import {name!r} from {blocked[-1][1]}")

sys.meta_path.insert(0, NoScipy())
"""


def blocked_scipy_imports(code: str) -> list:
    """[module, importer] of every scipy import that code attempts cold."""
    script = GUARD + code + "\nprint(json.dumps(blocked))\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


GAUSSIAN = """
import math
from rmtlab import IntervalSet, Potential
line = IntervalSet(((-math.inf, math.inf),))
p = Potential(n=60, reg=(0.0, 1.0), singularities=(), support=line)
"""


def test_kernel_side_and_cli_load_no_scipy(tmp_path):
    cfg = tmp_path / "gue.json"
    cfg.write_text(json.dumps({"reg": [0.0, 1.0], "singularities": [],
                               "support": [["-inf", "inf"]], "n": 60}))
    code = GAUSSIAN + f"""
import numpy as np
import rmtlab.cli
from rmtlab import gram_check, projection_residual, trace_check
from rmtlab.kernel import kernel_matrix
from rmtlab.scenarios import default_fit
r, q = default_fit(p)
assert abs(trace_check(r, p, q) - 60) < 1e-6
assert projection_residual(r, p, q, [(-1.3, 0.7), (0.0, 0.0)]) < 1e-7
xs = np.linspace(-1.5, 1.5, 7)
assert kernel_matrix(r, p, xs, xs).shape == (7, 7)
assert gram_check(r, q, 60) < 1e-9
out, cfg = {str(tmp_path)!r}, {str(cfg)!r}
for argv in (["validate", cfg], ["kernel", cfg, "--grid=-1.5:1.5:5"]):
    assert rmtlab.cli.main(["--outdir", out, *argv]) == 0, argv
"""
    assert blocked_scipy_imports(code) == []
    assert (tmp_path / "kernel.csv").exists()


def test_equilibrium_solves_and_commands_load_no_scipy(tmp_path):
    gue = tmp_path / "gue.json"
    gue.write_text(json.dumps({"reg": [0.0, 1.0], "singularities": [],
                               "support": [["-inf", "inf"]], "n": 16}))
    mp = tmp_path / "mp.json"
    mp.write_text(json.dumps({"reg": [-1.0],
                              "singularities": [{"b": [0.0, 0.0], "alpha": 0.5}],
                              "support": [["-inf", 0.0]], "n": 16}))
    code = GAUSSIAN + f"""
import rmtlab.cli
from rmtlab import solve_support
assert solve_support(p, "one_cut").support.intervals == ((-2.0, 2.0),)
quartic = Potential(n=20, reg=(0.0, -3.0, 0.0, 1.0), singularities=(),
                    support=line)
assert len(solve_support(quartic, "symmetric_two_cut").support.intervals) == 2
wall = Potential(n=20, reg=(-1.0,), singularities=(),
                 support=IntervalSet(((-math.inf, 0.0),)))
assert solve_support(wall, "hard_edge_one_cut").support.intervals == ((-4.0, 0.0),)
out = {str(tmp_path)!r}
gue, mp = {str(gue)!r}, {str(mp)!r}
for argv in (["equilibrium", gue], ["classify", gue],
             ["kernel", gue, "--at", "2.0", "--grid=-1:1:3"],
             ["sample", mp, "--steps", "30", "--burn-in", "10",
              "--structure", "hard_edge_one_cut"],
             ["converge", "mp-hard-edge", "--n-list", "50,100"]):
    assert rmtlab.cli.main(["--outdir", out, *argv]) == 0, argv
"""
    assert blocked_scipy_imports(code) == []
    assert (tmp_path / "samples.csv").exists()


def test_fits_and_solves_load_no_numpy_polynomial():
    code = GAUSSIAN + """
import json, sys
from rmtlab import Singularity, solve_support
from rmtlab.equilibrium import mass_right_of
from rmtlab.scenarios import default_fit
mp = Potential(n=60, reg=(-1.0,), singularities=(Singularity(b=0.0, alpha=0.5),),
               support=IntervalSet(((-math.inf, 0.0),)))
for model, structure, x in ((p, "one_cut", 0.3), (mp, "hard_edge_one_cut", -1.0)):
    default_fit(model)
    em = solve_support(model, structure)
    assert 0.0 < mass_right_of(em, x) < 1.0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("numpy.polynomial"))))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


LINALG_GUARD = """
import json, os, sys
import numpy  # runs numpy/linalg/'s module code; only later calls count

linalg_calls = set()
_LINALG = os.sep + os.path.join("numpy", "linalg") + os.sep

def record(frame, event, arg):
    if event == "call" and _LINALG in frame.f_code.co_filename:
        linalg_calls.add(frame.f_code.co_name)

sys.setprofile(record)
"""


def test_command_paths_call_no_numpy_linalg(tmp_path):
    # every call into numpy/linalg/ (np.roots' eigvals, np.polyfit's
    # lstsq) is recorded by a profile hook, with numpy.polynomial imports
    configs = []
    for name, reg, structure, at in (
            ("critical", [0.0, -2.0, 0.0, 1.0], "one_cut", "0.0"),
            ("sextic", [0.3, 0.5, 0.0, 0.2, 0.0, 0.3], "one_cut", "1.4"),
            ("two-cut", [0.0, -3.0, 0.0, 1.0], "symmetric_two_cut", "1.0")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"reg": reg, "singularities": [],
                                    "support": [["-inf", "inf"]], "n": 40}))
        configs.append((str(path), structure, at))
    code = LINALG_GUARD + f"""
import rmtlab.cli
out = {str(tmp_path)!r}
for cfg, structure, at in {configs!r}:
    st = ["--structure", structure]
    for argv in (["equilibrium", cfg, "--grid", "50", *st], ["classify", cfg, *st],
                 ["kernel", cfg, "--at", at, "--grid=-1:1:3", *st]):
        assert rmtlab.cli.main(["--outdir", out, *argv]) == 0, argv
for argv in (["converge", "quartic-merge", "--n-list", "30,60"],
             ["converge", "gue-edge", "--n-list", "50,100"]):
    assert rmtlab.cli.main(["--outdir", out, *argv]) == 0, argv
sys.setprofile(None)
print(json.dumps([sorted(linalg_calls),
                  sorted(m for m in sys.modules if m.startswith("numpy.polynomial"))]))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], []]
    assert (tmp_path / "scan_gue-edge.json").exists()
