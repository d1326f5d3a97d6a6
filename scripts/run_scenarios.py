#!/usr/bin/env python3
"""Run the kernel convergence scans for every shipped scenario.

Writes one scan JSON per scenario to the output directory and prints a
summary table of sup-norm errors and fitted decay exponents.  Scenario
parameters follow the acceptance setup: the hard edge runs both charge
values and the merge family runs both tau values.
"""

import argparse
import os
import sys
import time

import numpy as np

from rmtlab.io import write_json
from rmtlab.kernel import convergence_scan
from rmtlab.scenarios import get_scenario

RUNS = [
    ("gue-bulk", {}, None),
    ("gue-edge", {}, None),
    ("mp-hard-edge", {"alpha": 0.0}, "mp-hard-edge-a0"),
    ("mp-hard-edge", {"alpha": 0.5}, "mp-hard-edge-a05"),
    ("quartic-merge", {"tau": 0.0}, "quartic-merge-t0"),
    ("quartic-merge", {"tau": 2.0}, "quartic-merge-t2"),
    ("mp-two-charge", {}, None),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="scan_results")
    args = ap.parse_args(argv)
    os.makedirs(args.outdir, exist_ok=True)

    print(f"{'scenario':22s} {'n list':>14s} {'sup errors':>32s} {'decay':>7s}")
    for name, params, label in RUNS:
        sc = get_scenario(name, **params)
        ns = sc.default_n_list
        start = time.monotonic()
        out = convergence_scan(sc, ns, np.asarray(sc.default_grid))
        out["wall_time_s"] = time.monotonic() - start
        path = os.path.join(args.outdir, f"scan_{label or name}.json")
        write_json(path, out)
        errs = " ".join(f"{row['sup_error']:9.3g}" for row in out["rows"])
        print(f"{label or name:22s} {','.join(map(str, ns)):>14s} "
              f"{errs:>32s} {out['fitted_decay']:7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
