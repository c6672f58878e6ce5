"""Closed-loop benchmark of deepo.

    python3 perfbench/run.py --workload converter --seed 7 --seconds 25 --trace 0

Runs one workload through deepo's public API for ``--seconds`` seconds and
checks every repetition: the control outcome, and identical trace CSVs and
outcomes whenever two repetitions share a seed.  Load is one process,
closed loop: the plant waits for each decision.

With ``--trace 0`` the repetitions run on seeds drawn from ``--seed`` (the
first two on ``--seed`` itself) and the end-to-end metrics are reported.
A decision's latency and the activation time are the process's CPU time
over that interval, which is the wall-clock latency on a core of its own
and leaves out the time slices a shared host gives to other tenants; the
wall-clock figures are printed beside them.  ``samples_per_s`` is on the
wall clock.  ``setup_s`` is the median over fresh processes.  The control
outcome, ``quality_ratio``, is printed on its own line.

With ``--trace 1`` untraced and traced repetitions alternate on ``--seed``
and the per-layer metrics come from spans recorded around deepo's public
functions.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run from the root of a checkout:
deepo is imported from ``src/`` there, and the program exits with code 2
when it is missing.
"""

from __future__ import annotations

import os

# One BLAS thread: the controller is a single closed loop on a small box, and
# the thread count changes the last bits of results, so both sides of a
# comparison must run under the same setting.  Set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from layers import COUNTED, LayerStats, percentile, tail_percentile
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Decisions must fit in one sampling period of the 200 Hz surrogate.
PERIOD_US = 5000.0
# Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 5
# The first two repetitions share the seed so their traces can be compared.
MIN_REPS = 2


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the calibrated one)")
    parser.add_argument("--seconds", type=float, default=25.0, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = workloads[args.workload].default_seed
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def rep_seed(seed: int, k: int) -> int:
    """Seed of repetition k: the given seed for the first two, then derived ones."""
    if k < MIN_REPS:
        return seed
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0] >> 1)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Time fresh processes from spawn until deepo is imported and inputs are built."""
    times = []
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        tic = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - tic
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {code}")
        times.append(elapsed)
    return times


def run_reps(workload, inputs, args, workdir, stats, tracer):
    """Repeat the workload for about ``args.seconds``.

    Returns ``[(rep, traced)]`` and the exact call counts of the first traced
    repetition, which every later traced repetition must repeat.
    """
    runs = []
    first_counts = None
    started = time.perf_counter()
    deadline = started + args.seconds
    # Stop when the next repetition would end more than half past the
    # deadline, so a run lasts about --seconds even with long repetitions.
    while len(runs) < MIN_REPS or time.perf_counter() + 0.5 * (time.perf_counter() - started) / len(runs) < deadline:
        k = len(runs)
        traced = tracer is not None and k % 2 == 1
        seed = args.seed if tracer is not None else rep_seed(args.seed, k)
        with tracer if traced else contextlib.nullcontext():
            rep = workload.run(inputs, seed, workdir, tracer if traced else None)
        if traced:
            counts = stats.add(tracer.take(), rep.decisions)
            first_counts = first_counts or counts
            if rep.error is None and counts != first_counts:
                rep.error = f"call counts {counts} differ from the first traced repetition's {first_counts}"
        runs.append((rep, traced))
    return runs, first_counts


def check(reps) -> int:
    """Count failed decisions: those of repetitions that raised, failed their
    outcome check, or differ from the first repetition on the same seed."""
    first_by_seed = {}
    failed = 0
    for idx, rep in enumerate(reps):
        ref = first_by_seed.setdefault(rep.seed, rep)
        if rep.error is None and (rep.digest, rep.quality) != (ref.digest, ref.quality):
            rep.error = f"trace or outcome differs from repetition {reps.index(ref)} on seed {rep.seed}"
        if rep.error is not None:
            failed += rep.ops
            print(f"FAILED repetition {idx} (seed {rep.seed}): {rep.error}")
    return failed


def end_to_end(reps, setup, peak_rss_mb) -> dict:
    cpu_us = [cpu / 1e3 for rep in reps for _, _, cpu in rep.decisions]
    wall_us = [(end - start) / 1e3 for rep in reps for start, end, _ in rep.decisions]
    tail = tail_percentile(len(cpu_us))
    activations_ms = [ns / 1e6 for rep in reps for ns in rep.activations_ns]
    qualities = {rep.seed: rep.quality for rep in reps if rep.quality is not None}
    rates = [rep.samples / (rep.wall_ns / 1e9) for rep in reps if rep.wall_ns]
    metrics = {
        "decision_us.p50": (percentile(cpu_us, 50), "us"),
        "decision_us.p99": (percentile(cpu_us, tail), "us"),
        "activation_ms": (percentile(activations_ms, 50), "ms"),
        "samples_per_s": (percentile(rates, 50), "1/s"),
        "setup_s": (percentile(setup, 50), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"decision_us: {len(cpu_us)} decisions, the tail is p{tail:.2f}; "
          f"{sum(d > PERIOD_US for d in cpu_us)} over the {PERIOD_US:.0f} us period")
    print(f"wall clock: decision p50 {percentile(wall_us, 50):.1f} us, p{tail:.2f} {percentile(wall_us, tail):.1f} us")
    if activations_ms:
        print(f"activation_ms: median of {len(activations_ms)}; first in the process {activations_ms[0]:.3f} ms")
    print(f"setup_s: probes {' '.join(f'{s:.4f}' for s in setup)}")
    # The control outcome is printed, not returned as a metric: it varies
    # from seed to seed by more than any bound (converter 0.08 to 0.63), so
    # the mean over one run's seeds is not steady enough to gate on.
    if qualities:
        print(f"quality_ratio = {statistics.fmean(qualities.values()):.6g} ratio: mean over "
              f"{len(qualities)} seeds, min {min(qualities.values()):.4f} max {max(qualities.values()):.4f}")
    return metrics


def main(argv=None) -> int:
    if not (SRC / "deepo" / "__init__.py").is_file():
        print(f"deepo sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import deepo

    if Path(deepo.__file__).resolve().parent != SRC / "deepo":
        print(f"imported deepo from {deepo.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    workload = WORKLOADS[args.workload]
    inputs = workload.build(args.seed)

    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    stats = LayerStats()
    try:
        runs, counts = run_reps(workload, inputs, args, workdir, stats, Tracer() if args.trace else None)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    reps = [rep for rep, _ in runs]
    failed = check(reps)
    attempted = sum(rep.ops for rep in reps)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(reps)} repetitions "
          f"on {len({rep.seed for rep in reps})} seeds")

    untraced = [rep for rep, traced in runs if not traced]
    if args.trace:
        untraced_p50 = percentile([cpu for rep in untraced for _, _, cpu in rep.decisions], 50)
        traced_p50 = percentile([cpu for rep, traced in runs if traced for _, _, cpu in rep.decisions], 50)
        print(f"decision p50: traced {traced_p50 / 1e3:.1f} us, untraced {untraced_p50 / 1e3:.1f} us")
        for label, (decisions, *calls) in sorted((counts or {}).items()):
            listed = " ".join(f"{name}={total}" for name, total in zip(COUNTED, calls))
            print(f"counts per repetition on the {label} path, {decisions} decisions: {listed}")
        metrics = stats.metrics(traced_p50 / untraced_p50 if untraced_p50 else 0.0)
    else:
        metrics = end_to_end(untraced, setup, peak_rss_mb)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"ops = {attempted} ops_failed = {failed}")
    result = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
