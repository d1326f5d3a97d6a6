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
import math
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
    nearest_critical_point,
)
from .equilibrium import STRUCTURES, check_variational, density_table, solve_support
from .errors import FormatError, NumericalError, ValidationError
from .io import RunManifest, read_json, write_csv, write_json
from .kernel import (
    convergence_scan,
    kernel_diag,
    kernel_matrix,
    scaled_kernel_grid,
)
from .potential import parse_potential
from .sampler import check_chain_args, compare_density, histogram_density, mcmc_chain
from .scenarios import default_fit, get_scenario, scenario_names

_EQ_TOL = 1e-6   # equality-residual verdict threshold in reports


def _load_potential(path: str, n_override=None):
    try:
        doc = read_json(path)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}")
    except OSError as e:
        raise ValidationError(f"config file {path} cannot be read: {e.strerror}")
    except (json.JSONDecodeError, UnicodeDecodeError) as e:  # JSON text is UTF-8
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
            with np.errstate(invalid="ignore", over="ignore"):  # non-finite: refused below
                grid = np.linspace(float(lo), float(hi), int(count))
        else:
            grid = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as e:
        raise ValidationError(f"bad grid spec {text!r}: {e}")
    if not np.all(np.isfinite(grid)):
        raise ValidationError(f"grid {text!r} must have finite points")
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
        if not math.isfinite(out[key]):
            raise ValidationError(f"parameter {pair!r} must be finite")
    return out


# ---------------------------------------------------------------------------
# subcommands; each takes (args, manifest), writes only to man.path(name)
# and returns an exit code


def cmd_validate(args, man: RunManifest) -> int:
    report = {"config": args.config, "ok": False, "error": None}
    try:
        p = _load_potential(args.config)
    except (ValidationError, FormatError) as e:
        report["error"] = str(e)
        write_json(man.path("validate_report.json"), report)
        print(f"invalid: {e}", file=sys.stderr)
        return 2
    report["ok"] = True
    report["n"] = p.n
    report["support"] = [list(iv) for iv in p.support.intervals]
    report["singularities"] = len(p.singularities)
    write_json(man.path("validate_report.json"), report)
    print(f"ok: {args.config}")
    return 0


def cmd_equilibrium(args, man: RunManifest) -> int:
    if args.grid < 1:
        raise ValidationError(f"--grid must be at least 1, got {args.grid}")
    p = _load_potential(args.config)
    em = solve_support(p, args.structure)
    xs, rho = density_table(em, args.grid)
    meta = {
        "structure": args.structure,
        "support": " ".join(f"[{lo:.17g},{hi:.17g}]" for lo, hi in em.support.intervals),
        "ell": f"{em.ell:.17g}",
    }
    write_csv(man.path("density.csv"), ["x", "rho"], zip(xs, rho), meta)

    rep = check_variational(em)
    rows = [(x, r, "ok" if r < _EQ_TOL else "fail")
            for x, r in zip(rep["support_x"], rep["support_residual"])]
    rows += [(x, v, "ok" if v < 0.0 else "fail")
             for x, v in zip(rep["off_x"], rep["off_value"])]
    write_csv(man.path("variational.csv"), ["x", "residual", "verdict"], rows,
              {"eq_max": f"{rep['eq_max']:.17g}",
               "ineq_max": f"{rep['ineq_max']:.17g}"})
    print(f"support {meta['support']}  eq_max {rep['eq_max']:.3g}  "
          f"ineq_max {rep['ineq_max']:.3g}")
    return 0


def cmd_classify(args, man: RunManifest) -> int:
    p = _load_potential(args.config, n_override=args.n)
    em = solve_support(p, args.structure)
    cps = find_critical_points(em)
    out = {"n": p.n, "structure": args.structure, "critical_points": [],
           "model_data": []}
    for cp in cps:
        out["critical_points"].append(critical_point_dict(cp))
        md = extract_model_data(em, cp, p.n)
        out["model_data"].append(model_data_dict(md))
    write_json(man.path("classify_report.json"), out)
    kinds = ", ".join(f"{c.kind}@{c.x_star:.6g}" for c in cps)
    print(f"{len(cps)} critical points: {kinds}")
    return 0


def cmd_kernel(args, man: RunManifest) -> int:
    p = _load_potential(args.config, n_override=args.n)
    grid = _parse_grid(args.grid)
    try:
        target = None if args.at == "raw" else float(args.at)
    except ValueError:
        raise ValidationError(f"--at must be 'raw' or a number, got {args.at!r}")
    if target is not None and not math.isfinite(target):
        raise ValidationError(f"--at must be finite, got {args.at!r}")
    # the equilibrium layer may refuse the config; it does so before the fit
    cp = None if target is None else nearest_critical_point(
        solve_support(p, args.structure), target)
    r, q = default_fit(p)
    if cp is None:
        values = kernel_matrix(r, p, grid, grid)
        outside = 2 * int(np.count_nonzero(~p.support.contains(grid)))  # once per axis
        meta = {"n": p.n, "x_star": None, "delta": None, "scaled": False,
                "outside_points": outside}
    else:
        values = scaled_kernel_grid(r, p, cp, grid)
        meta = {"n": p.n, "x_star": cp.x_star, "delta": cp.delta, "scaled": True,
                "kind": cp.kind, "order_k": cp.order_k}
    us = grid.tolist()
    rows = [(u, v, value) for u, row in zip(us, values.tolist()) for v, value in zip(us, row)]
    diag = kernel_diag(r, p, q.nodes)
    trace = f"{float(np.sum(q.base * diag)):.17g}"
    meta["trace"] = trace
    write_csv(man.path("kernel.csv"), ["u", "v", "value"], rows, meta)
    write_csv(man.path("kernel_diag.csv"), ["x", "weight", "k_diag"],
              zip(q.nodes.tolist(), q.base.tolist(), diag.tolist()),
              {"n": p.n, "trace": trace})
    print(f"kernel {values.shape[0]}x{values.shape[1]} grid, trace {trace}")
    return 0


def cmd_converge(args, man: RunManifest) -> int:
    sc = get_scenario(args.scenario, **_parse_params(args.param))
    ns = _parse_n_list(args.n_list) if args.n_list else list(sc.default_n_list)
    grid = _parse_grid(args.grid) if args.grid else np.asarray(sc.default_grid)
    out = convergence_scan(sc, ns, grid,
                           progress=lambda n: print(f"  n={n} done", flush=True))
    write_json(man.path(f"scan_{sc.name}.json"), out)
    errs = ", ".join(f"{row['sup_error']:.3g}" for row in out["rows"])
    print(f"{sc.name}: sup errors [{errs}], decay {out['fitted_decay']:.3g}")
    return 0


def cmd_sample(args, man: RunManifest) -> int:
    if args.bins < 1:
        raise ValidationError(f"--bins must be at least 1, got {args.bins}")
    p = _load_potential(args.config)
    check_chain_args(args.steps, args.burn_in, args.thin, args.seed)
    edges = _parse_grid(args.bins_grid) if args.bins_grid else None
    em = solve_support(p, args.structure)
    if edges is None:
        lo, hi = em.support.lo, em.support.hi
        pad = 0.1 * (hi - lo)
        edges = np.linspace(lo - pad, hi + pad, args.bins + 1)
    kept, state = mcmc_chain(p, steps=args.steps, burn_in=args.burn_in,
                             thin=args.thin, seed=args.seed)
    cols = ["sweep"] + [f"x{i}" for i in range(p.n)]
    rows = ((args.burn_in + k * args.thin, *xs) for k, xs in enumerate(kept))
    write_csv(man.path("samples.csv"), cols, rows,
              {"seed": args.seed, "steps": args.steps, "burn_in": args.burn_in,
               "thin": args.thin})
    write_json(man.path("chain_meta.json"), {
        "seed": args.seed,
        "rng_stream": f"pcg64:{state.rng_seed}",
        "acceptance_rate": state.acceptance_rate(),
        "accept_count": state.accept_count,
        "propose_count": state.propose_count,
        "step_scale": state.step_scale,
        "max_drift": state.max_drift,
        "n": p.n,
        "kept_sweeps": len(kept),
    })
    emp = histogram_density(kept, edges)
    dev = compare_density(emp, em)
    write_json(man.path("density_comparison.json"), {
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
    sp.add_argument("--structure", default="one_cut", choices=STRUCTURES)
    sp.add_argument("--grid", type=int, default=400,
                    help="density table points per support component")
    sp.set_defaults(func=cmd_equilibrium)

    sp = sub.add_parser("classify", help="critical points and model data")
    sp.add_argument("config")
    sp.add_argument("--n", type=int, default=None, help="override config n")
    sp.add_argument("--structure", default="one_cut", choices=STRUCTURES)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("kernel", help="finite-n kernel on a grid")
    sp.add_argument("config")
    sp.add_argument("--n", type=int, default=None, help="override config n")
    sp.add_argument("--at", default="raw",
                    help="'raw' or an x_star value to scale at")
    sp.add_argument("--grid", default="-2:2:9",
                    help="'lo:hi:count' or comma-separated points")
    sp.add_argument("--structure", default="one_cut", choices=STRUCTURES)
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
    sp.add_argument("--structure", default="one_cut", choices=STRUCTURES)
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
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as e:   # no directory, so no manifest either
        print(f"error: output directory {outdir} cannot be made: {e.strerror}",
              file=sys.stderr)
        return 2
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "func", "config", "outdir") and v not in (None, [])}
    man = RunManifest(command=args.command, config=getattr(args, "config", None),
                      overrides=overrides, outdir=outdir, version=__version__)
    start = time.monotonic()
    try:
        code = args.func(args, man)
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
