#!/usr/bin/env python3
"""rmtlab benchmark: run one workload for a fixed time and check every output.

    python3 benchmark/run.py --workload scan --seed 1 --seconds 20 --trace 0

Workloads: scan, identities, mcmc, cli (see benchmark/README.md).  With
--trace 0 the run reports the end-to-end metrics setup_s, wall_s and
peak_rss_mb; with --trace 1 it alternates untraced and traced passes
and reports the per-layer metrics from spans recorded around rmtlab's
public functions.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The package is
imported from src/ of the checkout this file sits in; run records and
span traces go to .bench_out/ there.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5    # fresh processes timed per run; setup_s is their median
BLAS_THREADS = 1
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


def import_package():
    """Import rmtlab from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import rmtlab
    except ImportError as e:
        raise SystemExit(f"benchmark: cannot import rmtlab from {SRC}: {e}")
    if not os.path.abspath(rmtlab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark: rmtlab resolved to {rmtlab.__file__}, not {SRC}")


def check_declared(workloads, spans):
    """BENCHMARK.json must name exactly the workloads and metrics reported here."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        raise SystemExit(f"benchmark: cannot read {path}: {e}")
    declared = ([w["name"] for w in spec["workloads"]],
                [m["name"] for m in spec["end_to_end"]],
                [m["name"] for m in spec["per_layer"]])
    reported = (list(workloads.WORKLOADS), [m for m, _ in END_TO_END], list(spans.PER_LAYER))
    if declared != reported:
        raise SystemExit("benchmark: BENCHMARK.json does not match the metrics run.py reports")


class Tally:
    """Operations attempted and failed over the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label, error=None):
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{label}: {type(error).__name__}: {error}")
            print(f"FAILED {self.failures[-1]}", file=sys.stderr)


def run_pass(workload, tally, root_span=None):
    """One pass over the workload's operations: (wall seconds, [(label, seconds)])."""
    ops = workload.ops()
    times = []
    start = time.perf_counter()
    with root_span or contextlib.nullcontext():
        for label, op in ops:
            t = time.perf_counter()
            try:
                op()
            except Exception as e:  # counted as a failed operation
                tally.record(label, e)
            else:
                tally.record(label)
            times.append((label, time.perf_counter() - t))
    return time.perf_counter() - start, times


def probe_setup(args) -> float:
    """Seconds from starting a fresh interpreter until its workload is built."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"benchmark: set-up probe failed ({proc.returncode}): {err[-500:]}")
    return elapsed


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(), "cpu": cpu}


def measure(args, workload, tally) -> dict:
    """Untraced passes for --seconds; the end-to-end metrics."""
    walls = []
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        walls.append(run_pass(workload, tally)[0])
    return {"passes": len(walls), "walls": walls,
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6}


def measure_traced(args, workload, tally, spans) -> dict:
    """Untraced and traced passes in turn for --seconds; the per-layer metrics."""
    tracer = spans.Tracer()
    plain, traced, by_label = [], [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        wall, times = run_pass(workload, tally)
        plain.append(wall)
        by_label.append(times)
        with spans.installed(tracer):
            traced.append(run_pass(workload, tally, tracer.span(spans.ROOT_SPAN))[0])

    metrics = spans.layer_metrics(tracer, len(traced))
    untraced = statistics.median(plain)
    metrics["trace.overhead_frac"] = (statistics.median(traced) - untraced) / untraced
    for metric in spans.PER_LAYER:
        if metric.startswith("scan_s."):
            name = metric.split(".", 1)[1]
            metrics[metric] = statistics.median(
                sum(t for label, t in times if label == name) for times in by_label)

    # self times partition the traced passes: their sum is the traced wall
    stats = tracer.by_name()
    self_sum = sum(s for _, s, _, _ in stats.values())
    gap = abs(self_sum - sum(traced)) / sum(traced)
    tally.record("trace.self_sum", None if gap < 1e-3 else RuntimeError(
        f"summed self times {self_sum:.6f} s vs traced wall {sum(traced):.6f} s"))

    tracer.save(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.npz"))
    top = sorted(((s, n) for n, (_, s, _, _) in stats.items()), reverse=True)
    return {"passes": len(traced), "walls": plain, "traced_walls": traced,
            "metrics": metrics, "top_self_s": [(n, s / len(traced)) for s, n in top[:8]]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("scan", "identities", "mcmc", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # Set before numpy loads, here and in the set-up probes that inherit
    # the environment: OpenBLAS otherwise starts up to nproc threads in
    # the recurrence's mat-vecs and the timings follow the machine's load.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    import_package()
    import spans
    import workloads
    check_declared(workloads, spans)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    try:
        if args.setup_probe:
            workloads.WORKLOADS[args.workload](args.seed, workdir)
            print("ready", flush=True)
            return 0
        setup = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tally = Tally()
        if args.trace:
            rec = measure_traced(args, workload, tally, spans)
            values = rec["metrics"]
            names = [(m, spans.unit(m)) for m in spans.PER_LAYER]
        else:
            rec = measure(args, workload, tally)
            values = {"setup_s": statistics.median(setup), **rec}
            names = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(tally.failures)
    result = {"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
              "metrics": {m: {"value": float(values[m]), "unit": u} for m, u in names}}
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup_probes": setup,
              "failures": tally.failures, **rec, "result": result}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)

    print(f"{args.workload} seed {args.seed}: {rec['passes']} measured passes, "
          f"{tally.attempted} operations, {failed} failed "
          f"(failed_frac {failed / tally.attempted:.4g})")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for m, u in names:
        print(f"  {m} = {values[m]:.6g} {u}")
    if args.trace:
        print("largest self times per pass: " + ", ".join(
            f"{n} {s:.3g} s" for n, s in rec["top_self_s"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
