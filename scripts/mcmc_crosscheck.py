#!/usr/bin/env python3
"""Cross-validate the equilibrium density against a Metropolis chain.

Samples the Gaussian eigenvalue gas, compares the empirical histogram
with the solved equilibrium density (L1 and sup deviation), and runs
the same histogram against the hard-edge density as a negative control
that should clearly reject.  Writes samples, chain metadata and the
comparison report to the output directory.
"""

import argparse
import math
import os
import sys
import time

import numpy as np

from rmtlab.equilibrium import solve_support
from rmtlab.io import write_csv, write_json
from rmtlab.potential import IntervalSet, Potential
from rmtlab.sampler import compare_density, histogram_density, mcmc_chain

LINE = IntervalSet(((-math.inf, math.inf),))
NEG = IntervalSet(((-math.inf, 0.0),))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="mcmc_results")
    ap.add_argument("--n", type=int, default=40, help="eigenvalue count")
    ap.add_argument("--sweeps", type=int, default=20_000,
                    help="kept sweeps after burn-in")
    ap.add_argument("--burn-in", type=int, default=2_000)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--bins", type=int, default=24)
    args = ap.parse_args(argv)
    os.makedirs(args.outdir, exist_ok=True)

    p = Potential(n=args.n, reg=(0.0, 1.0), singularities=(), support=LINE)
    start = time.monotonic()
    kept, state = mcmc_chain(p, steps=args.burn_in + args.sweeps,
                             burn_in=args.burn_in, seed=args.seed)
    elapsed = time.monotonic() - start
    us_per_proposal = 1e6 * elapsed / state.propose_count
    print(f"chain: {len(kept)} kept sweeps in {elapsed:.1f}s "
          f"({us_per_proposal:.2f} us per proposal), "
          f"acceptance {state.acceptance_rate():.3f}")

    cols = ["sweep"] + [f"x{i}" for i in range(args.n)]
    # all floats for write_csv's one-template path; %.17g prints a sweep as str(int)
    rows = ((float(args.burn_in + k), *xs.tolist()) for k, xs in enumerate(kept))
    write_csv(os.path.join(args.outdir, "samples.csv"), cols, rows,
              {"seed": args.seed, "n": args.n})
    write_json(os.path.join(args.outdir, "chain_meta.json"), {
        "seed": args.seed, "rng_stream": f"pcg64:{state.rng_seed}",
        "acceptance_rate": state.acceptance_rate(),
        "accept_count": state.accept_count,
        "propose_count": state.propose_count,
        "step_scale": state.step_scale, "max_drift": state.max_drift,
        "n": args.n, "kept_sweeps": len(kept),
        "wall_time_s": elapsed, "us_per_proposal": us_per_proposal,
    })

    em = solve_support(p, "one_cut")
    edges = np.linspace(-2.2, 2.2, args.bins + 1)
    emp = histogram_density(kept, edges)
    dev = compare_density(emp, em)
    print(f"vs equilibrium density: L1 {dev['l1_dev']:.4f}, "
          f"sup {dev['sup_dev']:.4f}")

    mp = Potential(n=args.n, reg=(-1.0,), singularities=(), support=NEG)
    control = compare_density(emp, solve_support(mp, "hard_edge_one_cut"))
    print(f"negative control (hard-edge density): L1 {control['l1_dev']:.4f}")

    write_json(os.path.join(args.outdir, "comparison.json"), {
        "bin_edges": [float(e) for e in edges],
        "values": [float(v) for v in emp.values],
        "l1_dev": dev["l1_dev"], "sup_dev": dev["sup_dev"],
        "control_l1_dev": control["l1_dev"],
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
