"""The kernel side of rmtlab runs without loading scipy.

Quadrature, recurrence, K_n and the commands built only on them
(`validate`, raw-grid `kernel`) need numpy alone; scipy.optimize is
imported inside the equilibrium solvers and scipy.linalg inside
poly_zeros.  On a 2-vCPU Xeon host each of the two costs about 0.3 s of
cold start, which a module-level import charges to every
`import rmtlab`.  scipy.special alone measured 0.29-0.56 s cold on the
same host, so if specfun moves onto it (ROADMAP item 5), that import has
to stay local to the functions that call it, or this guard fails.

Each case runs in a fresh interpreter: the pytest process has loaded
scipy long before these tests start.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

GAUSSIAN = """
from rmtlab import IntervalSet, Potential
p = Potential(n=60, reg=(0.0, 1.0), singularities=(),
              support=IntervalSet(((float("-inf"), float("inf")),)))
"""


def scipy_modules_after(code: str) -> list[str]:
    """sys.modules keys starting with 'scipy' after running code cold."""
    script = code + """
import json, sys
print(json.dumps(sorted(k for k in sys.modules if k.startswith("scipy"))))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


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
out = {str(tmp_path)!r}
assert rmtlab.cli.main(["--outdir", out, "validate", {str(cfg)!r}]) == 0
assert rmtlab.cli.main(["--outdir", out, "kernel", {str(cfg)!r},
                        "--grid=-1.5:1.5:5"]) == 0
"""
    assert scipy_modules_after(code) == []
    assert (tmp_path / "kernel.csv").exists()


def test_equilibrium_solve_loads_scipy_optimize():
    code = GAUSSIAN + """
from rmtlab import solve_support
solve_support(p, "one_cut")
"""
    assert "scipy.optimize" in scipy_modules_after(code)


def test_poly_zeros_loads_scipy_linalg():
    code = GAUSSIAN + """
from rmtlab import poly_zeros
from rmtlab.scenarios import default_fit
r, _ = default_fit(p)
poly_zeros(r, 10)
"""
    assert "scipy.linalg" in scipy_modules_after(code)
