"""Batch command-line front end.

Each subcommand wires a potential config (JSON) to one computation and
emits machine-readable artifacts: CSV with '#' metadata lines, JSON
reports, and one run manifest per invocation listing every file the
run wrote.  Commands are deterministic given identical inputs and seed;
outputs are byte-identical apart from the timestamp header line.

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .classify import (
    critical_point_dict,
    extract_model_data,
    find_critical_points,
    model_data_dict,
)
from .equilibrium import check_variational, density_table, solve_support
from .errors import FormatError, NumericalError, ValidationError
from .io import RunManifest, read_json, write_csv, write_json
from .kernel import (
    convergence_scan,
    kernel_diag,
    kernel_grid,
    scaled_kernel_grid,
    trace_check,
)
from .potential import parse_potential, validate
from .sampler import compare_density, histogram_density, mcmc_chain
from .scenarios import default_fit, get_scenario, scenario_names

_EQ_TOL = 1e-6   # equality-residual verdict threshold in reports


def _load_potential(path: str, n_override=None):
    try:
        doc = read_json(path)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise FormatError(f"config {path} is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise FormatError(f"config {path} must hold a JSON object")
    if n_override is not None:
        doc = {**doc, "n": int(n_override)}
    return parse_potential(doc)


def _parse_grid(text: str) -> np.ndarray:
    """Grid spec: 'lo:hi:count' or comma-separated values."""
    try:
        if ":" in text:
            lo, hi, count = text.split(":")
            grid = np.linspace(float(lo), float(hi), int(count))
        else:
            grid = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as e:
        raise ValidationError(f"bad grid spec {text!r}: {e}")
    if grid.size < 2 or not np.all(np.diff(grid) > 0):
        raise ValidationError(f"grid {text!r} must be increasing with >= 2 points")
    return grid


def _parse_n_list(text: str) -> list:
    try:
        ns = [int(v) for v in text.split(",")]
    except ValueError as e:
        raise ValidationError(f"bad n list {text!r}: {e}")
    if not ns or any(n < 1 for n in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValidationError(f"n list {text!r} must be increasing positive integers")
    return ns


def _parse_params(pairs) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValidationError(f"parameter {pair!r} is not of the form key=value")
        key, val = pair.split("=", 1)
        try:
            out[key] = float(val)
        except ValueError:
            raise ValidationError(f"parameter {pair!r} has a non-numeric value")
    return out


# ---------------------------------------------------------------------------
# subcommands; each takes (args, manifest, outdir) and returns an exit code


def cmd_validate(args, man: RunManifest, outdir: str) -> int:
    report = {"config": args.config, "ok": False, "error": None}
    try:
        p = _load_potential(args.config)
        validate(p)
    except (ValidationError, FormatError) as e:
        report["error"] = str(e)
        write_json(man.record(os.path.join(outdir, "validate_report.json")), report)
        print(f"invalid: {e}", file=sys.stderr)
        return 2
    report["ok"] = True
    report["n"] = p.n
    report["support"] = [list(iv) for iv in p.support.intervals]
    report["singularities"] = len(p.singularities)
    write_json(man.record(os.path.join(outdir, "validate_report.json")), report)
    print(f"ok: {args.config}")
    return 0


def cmd_equilibrium(args, man: RunManifest, outdir: str) -> int:
    p = _load_potential(args.config)
    em = solve_support(p, args.structure)
    xs, rho = density_table(em, args.grid)
    meta = {
        "structure": args.structure,
        "support": " ".join(f"[{lo:.17g},{hi:.17g}]" for lo, hi in em.support.intervals),
        "ell": f"{em.ell:.17g}",
    }
    write_csv(man.record(os.path.join(outdir, "density.csv")),
              ["x", "rho"], zip(xs, rho), meta)

    rep = check_variational(em)
    rows = [(x, r, "ok" if r < _EQ_TOL else "fail")
            for x, r in zip(rep["support_x"], rep["support_residual"])]
    rows += [(x, v, "ok" if v < 0.0 else "fail")
             for x, v in zip(rep["off_x"], rep["off_value"])]
    write_csv(man.record(os.path.join(outdir, "variational.csv")),
              ["x", "residual", "verdict"], rows,
              {"eq_max": f"{rep['eq_max']:.17g}",
               "ineq_max": f"{rep['ineq_max']:.17g}"})
    print(f"support {meta['support']}  eq_max {rep['eq_max']:.3g}  "
          f"ineq_max {rep['ineq_max']:.3g}")
    return 0


def cmd_classify(args, man: RunManifest, outdir: str) -> int:
    p = _load_potential(args.config, n_override=args.n)
    em = solve_support(p, args.structure)
    cps = find_critical_points(em, p)
    out = {"n": p.n, "structure": args.structure, "critical_points": [],
           "model_data": []}
    for cp in cps:
        out["critical_points"].append(critical_point_dict(cp))
        md = extract_model_data(em, cp, p.n, p)
        out["model_data"].append(model_data_dict(md))
    write_json(man.record(os.path.join(outdir, "classify_report.json")), out)
    kinds = ", ".join(f"{c.kind}@{c.x_star:.6g}" for c in cps)
    print(f"{len(cps)} critical points: {kinds}")
    return 0


def cmd_kernel(args, man: RunManifest, outdir: str) -> int:
    p = _load_potential(args.config, n_override=args.n)
    grid = _parse_grid(args.grid)
    r, q = default_fit(p)
    if args.at == "raw":
        g = kernel_grid(r, p, grid)
    else:
        try:
            target = float(args.at)
        except ValueError:
            raise ValidationError(f"--at must be 'raw' or a number, got {args.at!r}")
        em = solve_support(p, args.structure)
        cps = find_critical_points(em, p)
        if not cps:
            raise ValidationError("no critical points found to scale at")
        cp = min(cps, key=lambda c: abs(c.x_star - target))
        g = scaled_kernel_grid(r, p, cp, grid)
    rows = [(u, v, g.values[i, j])
            for i, u in enumerate(g.u_grid) for j, v in enumerate(g.v_grid)]
    meta = {k: v for k, v in g.meta.items()}
    meta["trace"] = f"{trace_check(r, p, q):.17g}"
    write_csv(man.record(os.path.join(outdir, "kernel.csv")),
              ["u", "v", "value"], rows, meta)

    diag = kernel_diag(r, p, q.nodes)
    write_csv(man.record(os.path.join(outdir, "kernel_diag.csv")),
              ["x", "weight", "k_diag"], zip(q.nodes, q.base, diag),
              {"n": p.n, "trace": f"{float(np.sum(q.base * diag)):.17g}"})
    print(f"kernel {g.values.shape[0]}x{g.values.shape[1]} grid, "
          f"trace {meta['trace']}")
    return 0


def cmd_converge(args, man: RunManifest, outdir: str) -> int:
    sc = get_scenario(args.scenario, **_parse_params(args.param))
    ns = _parse_n_list(args.n_list) if args.n_list else list(sc.default_n_list)
    grid = _parse_grid(args.grid) if args.grid else np.asarray(sc.default_grid)
    out = convergence_scan(sc, ns, grid,
                           progress=lambda n: print(f"  n={n} done", flush=True))
    write_json(man.record(os.path.join(outdir, f"scan_{sc.name}.json")), out)
    errs = ", ".join(f"{row['sup_error']:.3g}" for row in out["rows"])
    print(f"{sc.name}: sup errors [{errs}], decay {out['fitted_decay']:.3g}")
    return 0


def cmd_sample(args, man: RunManifest, outdir: str) -> int:
    p = _load_potential(args.config)
    kept, state = mcmc_chain(p, steps=args.steps, burn_in=args.burn_in,
                             thin=args.thin, seed=args.seed)
    cols = ["sweep"] + [f"x{i}" for i in range(p.n)]
    rows = ((args.burn_in + k * args.thin, *xs) for k, xs in enumerate(kept))
    write_csv(man.record(os.path.join(outdir, "samples.csv")), cols, rows,
              {"seed": args.seed, "steps": args.steps, "burn_in": args.burn_in,
               "thin": args.thin})
    write_json(man.record(os.path.join(outdir, "chain_meta.json")), {
        "seed": args.seed,
        "rng_stream": f"pcg64:{state.rng_seed}",
        "acceptance_rate": state.acceptance_rate(),
        "accept_count": state.accept_count,
        "propose_count": state.propose_count,
        "step_scale": state.step_scale,
        "n": p.n,
        "kept_sweeps": len(kept),
    })

    em = solve_support(p, args.structure)
    if args.bins_grid:
        edges = _parse_grid(args.bins_grid)
    else:
        lo, hi = em.support.lo, em.support.hi
        pad = 0.1 * (hi - lo)
        edges = np.linspace(lo - pad, hi + pad, args.bins + 1)
    emp = histogram_density(kept, edges)
    dev = compare_density(emp, em)
    write_json(man.record(os.path.join(outdir, "density_comparison.json")), {
        "bin_edges": [float(e) for e in edges],
        "values": [float(v) for v in emp.values],
        "sup_dev": dev["sup_dev"],
        "l1_dev": dev["l1_dev"],
    })
    print(f"kept {len(kept)} sweeps, acceptance {state.acceptance_rate():.3f}, "
          f"L1 deviation {dev['l1_dev']:.4f}")
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="rmtlab",
                  description="numerical laboratory for semi-classical "
                              "hermitian one-matrix models")
    top.add_argument("--version", action="version", version=__version__)
    top.add_argument("--outdir", default=None,
                     help="output directory (default: $RMTLAB_OUTDIR or '.')")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("validate", help="check a potential config")
    sp.add_argument("config")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("equilibrium", help="solve the equilibrium measure")
    sp.add_argument("config")
    sp.add_argument("--structure", default="one_cut",
                    choices=["one_cut", "symmetric_two_cut", "hard_edge_one_cut"])
    sp.add_argument("--grid", type=int, default=400,
                    help="density table points per support component")
    sp.set_defaults(func=cmd_equilibrium)

    sp = sub.add_parser("classify", help="critical points and model data")
    sp.add_argument("config")
    sp.add_argument("--n", type=int, default=None, help="override config n")
    sp.add_argument("--structure", default="one_cut",
                    choices=["one_cut", "symmetric_two_cut", "hard_edge_one_cut"])
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("kernel", help="finite-n kernel on a grid")
    sp.add_argument("config")
    sp.add_argument("--n", type=int, default=None, help="override config n")
    sp.add_argument("--at", default="raw",
                    help="'raw' or an x_star value to scale at")
    sp.add_argument("--grid", default="-2:2:9",
                    help="'lo:hi:count' or comma-separated points")
    sp.add_argument("--structure", default="one_cut",
                    choices=["one_cut", "symmetric_two_cut", "hard_edge_one_cut"])
    sp.set_defaults(func=cmd_kernel)

    sp = sub.add_parser("converge", help="kernel convergence scan")
    sp.add_argument("scenario", help=", ".join(scenario_names()))
    sp.add_argument("--n-list", default=None, help="comma-separated n values")
    sp.add_argument("--grid", default=None,
                    help="'lo:hi:count' or comma-separated points")
    sp.add_argument("--param", action="append", default=[],
                    help="scenario parameter key=value (repeatable)")
    sp.set_defaults(func=cmd_converge)

    sp = sub.add_parser("sample", help="Metropolis chain for the eigenvalue gas")
    sp.add_argument("config")
    sp.add_argument("--steps", type=int, required=True, help="total sweeps")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--burn-in", type=int, default=0)
    sp.add_argument("--thin", type=int, default=1)
    sp.add_argument("--structure", default="one_cut",
                    choices=["one_cut", "symmetric_two_cut", "hard_edge_one_cut"])
    sp.add_argument("--bins", type=int, default=24,
                    help="histogram bin count for the density comparison")
    sp.add_argument("--bins-grid", default=None,
                    help="explicit bin edges, 'lo:hi:count' or comma list")
    sp.set_defaults(func=cmd_sample)

    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:   # --help / --version paths
        code = e.code if e.code is not None else 0
        return 0 if code == 0 else 1

    outdir = args.outdir or os.environ.get("RMTLAB_OUTDIR") or "."
    os.makedirs(outdir, exist_ok=True)
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "func", "config", "outdir") and v not in (None, [])}
    man = RunManifest(command=args.command, config=getattr(args, "config", None),
                      overrides=overrides, outdir=outdir, version=__version__)
    start = time.monotonic()
    try:
        code = args.func(args, man, outdir)
    except (ValidationError, FormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        code = 2
    except NumericalError as e:
        print(f"error: {e}", file=sys.stderr)
        code = 3
    man.wall_time_s = time.monotonic() - start
    man.write(os.path.join(outdir, f"manifest_{args.command}.json"))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
