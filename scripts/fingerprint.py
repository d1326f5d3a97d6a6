#!/usr/bin/env python3
"""Fingerprint rmtlab's outputs, and compare two fingerprints.

    python3 scripts/fingerprint.py write OUT.json
    python3 scripts/fingerprint.py compare OLD.json NEW.json

write evaluates a fixed list of named objects with the rmtlab on the
import path, so PYTHONPATH=<checkout>/src fingerprints that checkout.
Per object it stores the SHA-256 of the object's canonical bytes and
all its floats, as little-endian doubles.  The objects come in groups:

    fit:<model>-<n>   default_fit rule and recurrence: GUE at n = 40 and
                      200, the critical quartic at 120 and 600, MP with
                      a charge 1/2 at 200, mp-two-charge at 40, the
                      sextic and the two-cut quartic at 120
    kernel:<model>-<n>  on each of those fits, kernel_diag at one point,
                      kernel_matrix on 24 and on 61 points across the
                      support and kernel_diag on the rule's nodes, so
                      both loops of orthopoly.cd_rows are read: at most
                      32 distinct points (the even models' 61-point
                      grids fold to 31) run in floats, more in numpy
    scan:<run>        every sc.recurrence(p) and the convergence_scan of
                      one scan ladder of benchmark/workloads.py
    model:<preset>    measure, extract_model_data and check_variational
                      of a scenario preset at n = 120
    cli               every CSV and JSON of one pass of the benchmark's
                      cli workload, without timestamp lines, wall times
                      and the path of the pass's work directory

compare prints one line per object: "identical", or the largest
absolute and relative move of its floats, and exits 1 when any object
differs or is missing from one file.  Uses the standard library and
numpy only; compare does not import rmtlab.
"""

import argparse
import base64
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import struct
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODEL_N = 120
CLI_SEED = 1
_LINE = ((-math.inf, math.inf),)
_NEG = ((-math.inf, 0.0),)

_MP_SPAN = (-3.9, -0.05)

# (label, V_reg' coefficients, (charge location, alpha), domain, the n of
# each fit, the span of the kernel grids: just inside the support's hull)
FITS = (
    ("gue", (0.0, 1.0), (), _LINE, (40, 200), (-1.9, 1.9)),
    ("quartic-critical", (0.0, -2.0, 0.0, 1.0), (), _LINE, (120, 600), (-1.9, 1.9)),
    ("mp-charge", (-1.0,), ((0.0, 0.5),), _NEG, (200,), _MP_SPAN),
    ("sextic", (0.3, 0.5, 0.0, 0.2, 0.0, 0.3), (), _LINE, (120,), (-1.5, 1.35)),
    ("quartic-two-cut", (0.0, -3.0, 0.0, 1.0), (), _LINE, (120,), (-2.2, 2.2)),
)


def _workloads():
    """benchmark/workloads.py, the home of the scan ladders and the cli pass."""
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "benchmark", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# the objects


def _cli(workloads):
    """Every CSV (its lines, and the fields that read as floats) and JSON
    (its document) of one cli pass."""
    out = {}
    with tempfile.TemporaryDirectory() as work:
        cli = workloads.Cli(CLI_SEED, work)
        ops = cli.ops()
        for _, op in ops[:-1]:   # the last one compares two passes
            op()
        top = os.path.join(work, "pass-1")
        for root, _, files in os.walk(top):
            for f in files:
                path = os.path.join(root, f)
                with open(path) as fh:
                    text = fh.read().replace(work, "<work>")
                rel = os.path.relpath(path, top)
                if f.endswith(".json"):
                    doc = json.loads(text)
                    doc.pop("wall_time_s", None)
                    out[rel] = doc
                elif f.endswith(".csv"):
                    lines = [line for line in text.splitlines()
                             if not line.startswith("# timestamp:")]
                    out[rel] = {"lines": lines, "values": _csv_values(lines)}
    # in command order, whatever order the file system lists them in
    return {rel: out[rel] for rel in sorted(
        out, key=lambda rel: (int(rel.split(os.sep)[0]), rel))}


def _csv_values(lines) -> np.ndarray:
    vals = []
    for line in lines:
        if not line.startswith("#"):
            for field in line.split(","):
                try:
                    vals.append(float(field))
                except ValueError:
                    pass
    return np.array(vals)


def groups():
    """(group name, thunk -> {part: object}) in a fixed order."""
    from rmtlab.classify import extract_model_data
    from rmtlab.equilibrium import check_variational
    from rmtlab.kernel import convergence_scan, kernel_diag, kernel_matrix
    from rmtlab.potential import IntervalSet, Potential, Singularity
    from rmtlab.scenarios import default_fit, get_scenario, scenario_names

    fits = {}  # the kernel objects of a fit reuse it

    def fit(p):
        r, q = fits[p] = default_fit(p)
        return {"recurrence": r, "rule": q}

    def kernel(p, span):
        r, q = fits.pop(p)
        lo, hi = span
        g24, g61 = np.linspace(lo, hi, 24), np.linspace(lo, hi, 61)
        return {"diag-1": kernel_diag(r, p, np.array([0.5 * (lo + hi) + 0.1])),
                "matrix-24": kernel_matrix(r, p, g24, g24),
                "matrix-61": kernel_matrix(r, p, g61, g61),
                "diag-nodes": kernel_diag(r, p, q.nodes)}

    def scan(sc, ns):
        out = {f"recurrence-{n}": sc.recurrence(sc.make_potential(n)) for n in ns}
        out["convergence_scan"] = convergence_scan(sc, ns, sc.default_grid)
        return out

    def model(sc):
        em = sc.equilibrium(sc.make_potential(MODEL_N))
        return {"measure": em,
                "extract_model_data": extract_model_data(em, sc.critical_point(em)),
                "check_variational": check_variational(em)}

    workloads = _workloads()
    out = []
    two = get_scenario("mp-two-charge").make_potential(40)
    models = [(label, span, Potential(n=n, reg=reg, support=IntervalSet(domain),
                                      singularities=tuple(Singularity(b=b, alpha=alpha)
                                                          for b, alpha in charges)))
              for label, reg, charges, domain, ns, span in FITS for n in ns]
    for label, span, p in models + [("mp-two-charge", _MP_SPAN, two)]:
        out.append((f"fit:{label}-{p.n}", lambda p=p: fit(p)))
        out.append((f"kernel:{label}-{p.n}", lambda p=p, span=span: kernel(p, span)))
    for name, params, ns, _, _ in workloads.Scan.RUNS:
        tag = name + "".join(f"[{k}={v}]" for k, v in params.items())
        sc = get_scenario(name, **params)
        out.append((f"scan:{tag}", lambda sc=sc, ns=ns: scan(sc, ns)))
    for name in scenario_names():
        out.append((f"model:{name}", lambda sc=get_scenario(name): model(sc)))
    out.append(("cli", lambda: _cli(workloads)))
    return out


# ---------------------------------------------------------------------------
# canonical bytes


def _encode(obj, chunks: list, floats: list) -> None:
    """Append obj's canonical bytes to chunks and its floats to floats.

    A float is its 8 bytes whether it is a Python float or a numpy
    scalar; containers and dataclasses carry their type and length."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        chunks.append(f"<{type(obj).__name__}>".encode())
        for f in dataclasses.fields(obj):
            chunks.append(f.name.encode())
            _encode(getattr(obj, f.name), chunks, floats)
    elif isinstance(obj, dict):
        chunks.append(b"{%d" % len(obj))
        for k in sorted(obj, key=str):
            chunks.append(repr(k).encode())
            _encode(obj[k], chunks, floats)
    elif isinstance(obj, (list, tuple)):
        chunks.append(b"[%d" % len(obj))
        for v in obj:
            _encode(v, chunks, floats)
    elif isinstance(obj, np.ndarray):
        a = np.ascontiguousarray(obj)
        chunks.append(f"a{a.dtype.str}{a.shape}".encode())
        chunks.append(a.tobytes())
        if a.dtype.kind in "fc":
            floats.append(np.asarray(a, dtype=complex if a.dtype.kind == "c" else float)
                          .view(float).ravel())
    elif isinstance(obj, (bool, np.bool_)):
        chunks.append(b"b1" if obj else b"b0")
    elif isinstance(obj, (float, np.floating)):
        chunks.append(b"f" + struct.pack("<d", float(obj)))
        floats.append(np.array([float(obj)]))
    elif isinstance(obj, (complex, np.complexfloating)):
        chunks.append(b"c" + struct.pack("<dd", obj.real, obj.imag))
        floats.append(np.array([obj.real, obj.imag]))
    elif isinstance(obj, str):
        chunks.append(b"s%d:" % len(obj.encode()) + obj.encode())
    elif obj is None or isinstance(obj, (int, np.integer)):
        chunks.append(repr(obj if obj is None else int(obj)).encode())
    else:
        raise TypeError(f"no canonical bytes for {type(obj).__name__}")


def entry(obj) -> dict:
    """{"sha256": hex digest of the canonical bytes, "floats": base64 doubles}."""
    chunks, floats = [], []
    _encode(obj, chunks, floats)
    flat = np.concatenate(floats) if floats else np.zeros(0)
    return {"sha256": hashlib.sha256(b"".join(chunks)).hexdigest(),
            "floats": base64.b64encode(flat.astype("<f8").tobytes()).decode()}


def fingerprint() -> dict:
    """object name -> entry, for every object of every group."""
    out = {}
    for group, thunk in groups():
        for part, obj in thunk().items():
            out[f"{group}:{part}"] = entry(obj)
    return out


# ---------------------------------------------------------------------------
# comparison


def _floats(e: dict) -> np.ndarray:
    return np.frombuffer(base64.b64decode(e["floats"]), dtype="<f8")


def describe(old: dict, new: dict) -> str:
    """"identical", or how the floats of one object moved between two entries."""
    if old["sha256"] == new["sha256"]:
        return "identical"
    a, b = _floats(old), _floats(new)
    if a.size != b.size:
        return f"differs: {a.size} floats -> {b.size}"
    moved = a.view("<u8") != b.view("<u8")
    if not np.any(moved):
        return "differs outside its floats"
    a, b = a[moved], b[moved]
    with np.errstate(invalid="ignore", over="ignore"):
        diff = np.where(np.isnan(a) & np.isnan(b), 0.0, np.abs(b - a))
        diff = np.where(np.isnan(diff), math.inf, diff)
        scale = np.maximum(np.abs(a), np.abs(b))
        rel = np.where(diff == 0.0, 0.0, diff / np.where(scale > 0.0, scale, 1.0))
    return (f"moved: {int(moved.sum())} of {moved.size} floats, largest absolute "
            f"move {float(diff.max()):.3e}, largest relative move {float(rel.max()):.3e}")


def compare(old: dict, new: dict) -> list[str]:
    """One line per object of either fingerprint, in the order of old then new."""
    lines = []
    for name in list(old) + [k for k in new if k not in old]:
        if name not in new:
            lines.append(f"{name}: only in the first file")
        elif name not in old:
            lines.append(f"{name}: only in the second file")
        else:
            lines.append(f"{name}: {describe(old[name], new[name])}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    w = sub.add_parser("write", help="fingerprint the rmtlab on the import path")
    w.add_argument("out")
    c = sub.add_parser("compare", help="compare two fingerprint files")
    c.add_argument("old")
    c.add_argument("new")
    args = ap.parse_args(argv)
    if args.mode == "write":
        objs = fingerprint()
        with open(args.out, "w") as f:
            json.dump({"objects": objs}, f, indent=1)
            f.write("\n")
        print(f"wrote {len(objs)} objects to {args.out}")
        return 0
    with open(args.old) as f:
        old = json.load(f)["objects"]
    with open(args.new) as f:
        new = json.load(f)["objects"]
    lines = compare(old, new)
    print("\n".join(lines))
    same = sum(line.endswith(": identical") for line in lines)
    print(f"{same} of {len(lines)} objects identical")
    return 0 if same == len(lines) else 1


if __name__ == "__main__":
    raise SystemExit(main())
