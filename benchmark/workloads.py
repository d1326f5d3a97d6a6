"""The benchmark's four workloads.

A workload builds its inputs from the seed in __init__ (the set-up the
benchmark times) and hands out, through ops(), the fixed list of
operations one pass runs, as (label, callable) pairs.  An operation
raises CheckFailed when an output fails its correctness check; the
package receives only the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from rmtlab import cli
from rmtlab.equilibrium import solve_support
from rmtlab.kernel import (
    convergence_scan,
    kernel_diag,
    kernel_matrix,
    projection_residual,
    trace_check,
)
from rmtlab.orthopoly import gram_check
from rmtlab.potential import IntervalSet, Potential, Singularity, to_document
from rmtlab.sampler import compare_density, histogram_density, mcmc_chain
from rmtlab.scenarios import default_fit, get_scenario

LINE = IntervalSet(((-math.inf, math.inf),))
NEG = IntervalSet(((-math.inf, 0.0),))


class CheckFailed(Exception):
    """An output of the package failed a correctness check."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def gaussian(n: int) -> Potential:
    return Potential(n=n, reg=(0.0, 1.0), singularities=(), support=LINE)


def critical_quartic(n: int) -> Potential:
    return Potential(n=n, reg=(0.0, -2.0, 0.0, 1.0), singularities=(), support=LINE)


def mp_charge(n: int) -> Potential:
    return Potential(n=n, reg=(-1.0,), singularities=(Singularity(b=0.0, alpha=0.5),),
                     support=NEG)


# ---------------------------------------------------------------------------
# scan: the seven runs of scripts/run_scenarios.py


class Scan:
    """Every scenario scan on its acceptance ladder plus one deeper n.

    The deeper stage stays under today's n ceilings: the MP hard edge
    is refused by the clip guard at n=320 and GUE fits at n~600.  The
    bound applies to the acceptance-ladder stage named beside it
    (criteria 04-07); mp-two-charge has no criterion bound.
    """

    # (scenario, parameters, n ladder, acceptance n, bound at that n)
    RUNS = (
        ("gue-bulk", {}, (40, 80, 160, 320), 160, 2e-2),
        ("gue-edge", {}, (50, 100, 200, 400), 200, 5e-2),
        ("mp-hard-edge", {"alpha": 0.0}, (50, 100, 200, 280), 200, 5e-2),
        ("mp-hard-edge", {"alpha": 0.5}, (50, 100, 200, 280), 200, 5e-2),
        ("quartic-merge", {"tau": 0.0}, (30, 60, 120, 240), 120, 8e-2),
        ("quartic-merge", {"tau": 2.0}, (30, 60, 120, 240), 120, 8e-2),
        ("mp-two-charge", {}, (20, 40, 80, 160), None, None),
    )

    def __init__(self, seed: int, workdir: str):
        # the ladders are fixed; the seed picks nothing here
        self.runs = [(get_scenario(name, **params), ns, n_acc, bound)
                     for name, params, ns, n_acc, bound in self.RUNS]

    def ops(self):
        return [(sc.name, lambda sc=sc, ns=ns, n_acc=n_acc, bound=bound:
                 self._scan(sc, ns, n_acc, bound))
                for sc, ns, n_acc, bound in self.runs]

    @staticmethod
    def _scan(sc, ns, n_acc, bound):
        out = convergence_scan(sc, ns, np.asarray(sc.default_grid))
        errs = [row["sup_error"] for row in out["rows"]]
        check(all(a > b for a, b in zip(errs, errs[1:])),
              f"{sc.name}: errors not decreasing along the ladder: {errs}")
        if bound is not None:
            err = next(row["sup_error"] for row in out["rows"] if row["n"] == n_acc)
            check(err < bound, f"{sc.name}: error {err:.3g} at n={n_acc} exceeds {bound}")


# ---------------------------------------------------------------------------
# identities: one fit per model, then many kernel evaluations


class Identities:
    """Kernel identities for three models at three n.

    Per model: one default_fit, the trace and projection identities on
    seeded probe pairs, a 61-point kernel matrix, a Nystrom gap
    probability on a seeded window and the Gram defect.
    """

    # (label, potential family, region inside the support, gap window
    # starts).  Windows start where the density is bounded away from 0
    # (not at the quartic's double zero at the origin), so a window of
    # 0.5-2 local spacings holds about that many eigenvalues; over many
    # eigenvalues det(I - K) falls below rounding and can come out < 0.
    MODELS = (
        ("gaussian", gaussian, (-1.8, 1.8), (-1.5, 1.5)),
        ("quartic-critical", critical_quartic, (-1.8, 1.8), (0.8, 1.6)),
        ("mp-charge", mp_charge, (-3.6, -0.2), (-3.0, -0.5)),
    )
    NS = (60, 120, 240)
    PROBES = 8          # projection probe pairs per model
    GRID_POINTS = 61
    GAP_NODES = 24      # Gauss-Legendre nodes of the Nystrom rule

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.cases = []
        for label, family, (lo, hi), starts in self.MODELS:
            for n in self.NS:
                probes = rng.uniform(lo, hi, size=(self.PROBES, 2))
                # window start and its width in local mean spacings
                window = (rng.uniform(*starts), rng.uniform(0.5, 2.0))
                self.cases.append((f"{label}-{n}", family(n), (lo, hi), probes, window))

    def ops(self):
        return [(c[0], lambda c=c: self._identities(*c[1:])) for c in self.cases]

    def _identities(self, p, region, probes, window):
        n = p.n
        r, q = default_fit(p)
        tr = trace_check(r, p, q)
        check(abs(tr - n) / n < 1e-8, f"n={n}: trace {tr!r}")
        res = projection_residual(r, p, q, probes)
        check(res < 1e-7, f"n={n}: projection residual {res:.3g}")
        xs = np.linspace(*region, self.GRID_POINTS)
        k = kernel_matrix(r, p, xs, xs)
        check(np.array_equal(k, k.T), f"n={n}: kernel matrix not symmetric")
        det = self._gap_probability(r, p, window)
        check(0.0 <= det <= 1.0, f"n={n}: gap probability {det!r}")
        defect = gram_check(r, q, n)
        check(defect < 1e-10, f"n={n}: Gram defect {defect:.3g}")

    def _gap_probability(self, r, p, window):
        """det(I - K_n) on J = [x0, x0 + width / K_n(x0, x0)] (Nystrom)."""
        x0, width = window
        a, b = x0, x0 + width / kernel_diag(r, p, x0)
        t, w = np.polynomial.legendre.leggauss(self.GAP_NODES)
        xs = 0.5 * (b - a) * t + 0.5 * (a + b)
        sw = np.sqrt(0.5 * (b - a) * w)
        k = kernel_matrix(r, p, xs, xs)
        return float(np.linalg.det(np.eye(xs.size) - sw[:, None] * k * sw[None, :]))


# ---------------------------------------------------------------------------
# mcmc: two Metropolis chains, checked against equilibrium densities


class Mcmc:
    """GUE and MP-with-charge chains at n=40 with seeded chain seeds.

    Each histogram must match its own equilibrium density in L1 and
    reject the other model's density (the negative control).  The GUE
    bound is criterion 09's; the MP one leaves room for the hard-edge
    finite-n bias at this sweep count.
    """

    N = 40
    SWEEPS = 800
    BURN_IN = 200
    CONTROL_L1 = 0.3

    def __init__(self, seed: int, workdir: str):
        gue, mp = gaussian(self.N), mp_charge(self.N)
        gue_em = solve_support(gue, "one_cut")
        mp_em = solve_support(mp, "hard_edge_one_cut")
        s1, s2 = np.random.default_rng(seed).integers(0, 2**31, size=2)
        self.chains = (
            ("gue", gue, int(s1), np.linspace(-2.2, 2.2, 25), gue_em, 0.08, mp_em),
            ("mp-charge", mp, int(s2), np.linspace(-4.4, 0.0, 23), mp_em, 0.10, gue_em),
        )

    def ops(self):
        return [(c[0], lambda c=c: self._chain(*c[1:])) for c in self.chains]

    def _chain(self, p, chain_seed, edges, em, l1_bound, control_em):
        kept, _ = mcmc_chain(p, steps=self.BURN_IN + self.SWEEPS,
                             burn_in=self.BURN_IN, seed=chain_seed)
        check(len(kept) == self.SWEEPS, f"kept {len(kept)} sweeps")
        emp = histogram_density(kept, edges)
        l1 = compare_density(emp, em)["l1_dev"]
        check(l1 < l1_bound, f"L1 {l1:.4f} against the equilibrium density")
        control = compare_density(emp, control_em)["l1_dev"]
        check(control > self.CONTROL_L1, f"negative control L1 {control:.4f}")


# ---------------------------------------------------------------------------
# cli: rmtlab.cli.main called in-process


class Cli:
    """The command-line entry point on three configs at n=200.

    Every invocation writes into a fresh directory and must exit 0; the
    last operation of a pass checks that its CSVs match the first
    pass's byte for byte apart from the timestamp line.  Output
    directories are removed with the run's work directory, after the
    timed passes: deleting them inside a pass stalled it for seconds
    at a time on an ext4 volume mounted with discard.
    """

    N = 200
    SAMPLE_N = 40
    GRID = 41
    # (config, structure, raw grid, critical point to scale at, scaled grid)
    CONFIGS = (
        ("gue", gaussian, "one_cut", (-2.5, 2.5), 2.0, (-4.0, 1.0)),
        ("quartic", critical_quartic, "one_cut", (-2.5, 2.5), 0.0, (-2.0, 2.0)),
        ("mp", mp_charge, "hard_edge_one_cut", (-4.5, -0.05), 0.0, (-3.0, -0.05)),
    )

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        confdir = os.path.join(workdir, "configs")
        os.makedirs(confdir, exist_ok=True)
        sample_seed = int(np.random.default_rng(seed).integers(0, 2**31))
        self.commands = []
        for name, family, structure, raw, at, scaled in self.CONFIGS:
            path = _write_config(confdir, name, family(self.N))
            st = ["--structure", structure]
            self.commands += [
                ["validate", path],
                ["equilibrium", path, *st],
                ["classify", path, *st],
                ["kernel", path, f"--grid={_grid(raw, self.GRID)}"],
                ["kernel", path, "--at", repr(at), f"--grid={_grid(scaled, self.GRID)}", *st],
            ]
        self.commands.append(["converge", "gue-edge"])
        path = _write_config(confdir, "gue-sample", gaussian(self.SAMPLE_N))
        self.commands.append(["sample", path, "--steps", "300", "--burn-in", "100",
                              "--seed", str(sample_seed)])
        self.passes = 0
        self.reference = None

    def ops(self):
        self.passes += 1
        passdir = os.path.join(self.workdir, f"pass-{self.passes}")
        out = [(f"cli.{argv[0]}", lambda i=i, argv=argv:
                self._invoke(os.path.join(passdir, str(i)), argv))
               for i, argv in enumerate(self.commands)]
        return out + [("cli.determinism", lambda: self._compare(passdir))]

    @staticmethod
    def _invoke(outdir, argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["--outdir", outdir, *argv])
        check(code == 0, f"rmtlab {' '.join(argv)} exited {code}: {sink.getvalue()[-300:]}")

    def _compare(self, passdir):
        csvs = {}
        for root, _, files in os.walk(passdir):
            for f in files:
                if f.endswith(".csv"):
                    path = os.path.join(root, f)
                    with open(path) as fh:
                        csvs[os.path.relpath(path, passdir)] = [
                            line for line in fh if not line.startswith("# timestamp:")]
        check(bool(csvs), "no CSV written")
        if self.reference is None:
            self.reference = csvs
        check(csvs == self.reference, "CSV outputs differ between two invocations")


def _write_config(confdir, name, p: Potential) -> str:
    path = os.path.join(confdir, f"{name}.json")
    with open(path, "w") as f:
        json.dump(to_document(p), f)
    return path


def _grid(bounds, count) -> str:
    return f"{bounds[0]!r}:{bounds[1]!r}:{count}"


WORKLOADS = {"scan": Scan, "identities": Identities, "mcmc": Mcmc, "cli": Cli}
