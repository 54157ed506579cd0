#!/usr/bin/env python3
"""Benchmark of the beamlab recovery chain.

    python3 benchmarks/run.py --workload recover_cubic --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all

One run sets the workload up, then repeats whole rounds of its driver calls
until ``--seconds`` have passed (at least one round) and checks every
round's result against a reference the benchmark computes itself.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end
ones (``wall_s``, ``setup_s``, ``peak_rss_mb``, ``ref_deviation``); with
``--trace 1`` they are the per-layer ones from ``tracer.py`` with the traced
round time and the time the wrappers added.  ``--workload all`` runs every
workload untraced and traced, each in its own process, one after another.

No input is random: ``--seed`` is recorded for provenance only.  BLAS runs
on one thread.  Records go to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# the keys of workloads.WORKLOADS, listed here because importing that module
# (numpy, beamlab) is part of the timed set-up
WORKLOADS = ("recover_cubic", "boundary_pair", "curved_beam")
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# fresh processes that repeat the set-up, besides the run's own set-up
SETUP_PROBES = 2
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("ref_deviation", "1"))


def load_workloads():
    """Import beamlab from this checkout's ``src`` and the workload table."""
    if not os.path.isfile(os.path.join(SRC, "beamlab", "__init__.py")):
        sys.exit(f"beamlab sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import workloads

    origin = os.path.abspath(workloads.recon.__file__)
    if not origin.startswith(SRC + os.sep):
        sys.exit(f"imported beamlab from {origin}, not from {SRC}")
    return workloads


def timed_setup(name):
    """Seconds for imports plus input construction, and the inputs."""
    t0 = time.perf_counter()
    wl = load_workloads()
    inputs = wl.WORKLOADS[name][0]()
    return time.perf_counter() - t0, wl, inputs


def probe_setup(name):
    out = subprocess.run([sys.executable, __file__, "--workload", name,
                          "--setup-probe"], capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.split()[-1])


def run_round(wl, name, inputs):
    """One round: (seconds, operations, failed, ok, deviation)."""
    from beamlab.errors import BeamlabError

    _, run, check, ops = wl.WORKLOADS[name]
    t0 = time.perf_counter()
    try:
        result = run(inputs)
    except BeamlabError as exc:
        print(f"round failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return time.perf_counter() - t0, ops, ops, True, None
    ok, dev = check(result)
    return time.perf_counter() - t0, ops, 0, ok, dev


def measure(name, seconds, trace):
    """Set up, run rounds for ``seconds``, return the run's record."""
    first, wl, inputs = timed_setup(name)
    setups = [first] + [probe_setup(name) for _ in range(SETUP_PROBES)]
    rounds = []
    tracer = None
    if trace:
        from tracer import Tracer, metric_names

        tracer = Tracer()
        tracer.install()
    try:
        start = time.perf_counter()
        rounds.append(run_round(wl, name, inputs))
        # the high-water mark after set-up and one round: later rounds raise
        # it further as the heap fragments, by an amount that depends on how
        # many rounds the run fits in
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while time.perf_counter() - start < seconds:
            rounds.append(run_round(wl, name, inputs))
    finally:
        if tracer is not None:
            tracer.uninstall()
    devs = [r[4] for r in rounds if r[4] is not None]
    record = {
        "correct": all(r[3] for r in rounds),
        "attempted": sum(r[1] for r in rounds),
        "failed": sum(r[2] for r in rounds),
    }
    # seconds per round over the whole run: on a shared host whose speed
    # drifts for seconds to minutes, the mean of every round spreads less
    # across runs than the median of a handful
    wall = statistics.fmean(r[0] for r in rounds)
    if trace:
        values = tracer.metrics(len(rounds))
        values["trace.wall_s"] = wall
        values["trace.overhead_s"] = tracer.overhead() / len(rounds)
        units = dict(metric_names())
        record["call_tree"] = tracer.call_tree()
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss,
            "ref_deviation": statistics.median(devs) if devs else None,
        }
        units = dict(END_TO_END)
    record["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in values.items()}
    record["rounds"] = [r[0] for r in rounds]
    record["setup_samples"] = setups
    return record


def provenance(args):
    import numpy
    import scipy

    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpus": os.cpu_count()}


def write_record(name, record):
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                sys.exit(f"{name} (trace {trace}) exited {out.returncode}")
            rec = json.loads(out.stdout.strip().splitlines()[-1])
            summary["correct"] &= rec["correct"]
            summary["attempted"] += rec["attempted"]
            summary["failed"] += rec["failed"]
            for key, val in rec["metrics"].items():
                summary["metrics"][f"{name}.{key}"] = val
                print(f"{name:18s} {key:36s} {val['value']:14.6g} "
                      f"{val['unit']}")
    write_record(f"all_seed{args.seed}.json", summary)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        print(timed_setup(args.workload)[0])
        return 0
    record = measure(args.workload, args.seconds, args.trace)
    record.update(provenance(args))
    write_record(f"{args.workload}_trace{args.trace}_seed{args.seed}.json",
                 record)
    for key, val in record["metrics"].items():
        print(f"{key} {val['value']:.6g} {val['unit']}")
    print(f"# seed {args.seed}, rounds {len(record['rounds'])}, operations "
          f"attempted {record['attempted']}, failed {record['failed']}, "
          f"BLAS threads {BLAS_THREADS}")
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
