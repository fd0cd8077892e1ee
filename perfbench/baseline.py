#!/usr/bin/env python3
"""Measure the benchmark across seeds and optionally record it as the baseline.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py [--seeds 1 2 ...] [--write perfbench/baseline.json]

Runs every workload once per seed (seed-major, so workloads are
interleaved in time), with BENCHMARK.json's run_seconds, and prints for
each end-to-end metric the median, the quartiles and the spread
(q3 - q1) / median next to the metric's bound.  The raw wall-clock
medians of setup_s and run_s, before the rescaling to the reference
speed, are kept beside them.  One traced run per workload at TRACE_SEED
gives the per-layer figures and the payload sha256 that parent and
change compare byte for byte.  --write stores all of it, with the
machine's facts and each workload's reason from BENCHMARK.json, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

import run

TRACE_SEED = 42


def machine_facts() -> dict:
    import mpmath
    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--write", default=None, help="path of the baseline JSON to write")
    args = parser.parse_args(argv)
    seconds = run.SPEC["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in run.SPEC["end_to_end"]}
    whys = {w["name"]: w["why"] for w in run.SPEC["workloads"]}
    samples = {w: {m: [] for m in run.END_TO_END_UNITS} for w in run.WORKLOADS}
    raw = {w: {"setup_s": [], "run_s": []} for w in run.WORKLOADS}
    failures = 0
    with run.work_dir() as work:
        for seed in args.seeds:
            for name in run.WORKLOADS:
                result, reps = run.measure(run.WORKLOADS[name], seed, seconds, False, work)
                failures += result["failed"]
                for metric, entry in result["metrics"].items():
                    samples[name][metric].append(entry["value"])
                for label, median in run.raw_medians(reps).items():
                    raw[name][label].append(median)
                print(f"seed {seed} {name}: "
                      + " ".join(f"{m}={e['value']:.5g}" for m, e in result["metrics"].items()),
                      flush=True)
        traces = {}
        for name in run.WORKLOADS:
            result, reps = run.measure(run.WORKLOADS[name], TRACE_SEED, seconds, True, work)
            failures += result["failed"]
            traces[name] = {
                "payload_sha256": next(r.hashes for r in reps if r.hashes),
                "per_layer": {m: e["value"] for m, e in result["metrics"].items()},
            }

    workloads = {}
    print(f"\n{'workload':20s} {'metric':14s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, wl in run.WORKLOADS.items():
        e2e = {}
        for metric, values in samples[name].items():
            stats = spread(values) if len(values) >= 2 else {"values": values}
            e2e[metric] = {"unit": run.END_TO_END_UNITS[metric], "bound": bounds[metric], **stats}
            if "spread" in stats:
                flag = "" if stats["spread"] <= bounds[metric] / 3 else "  above bound/3"
                print(f"{name:20s} {metric:14s} {stats['median']:12.6g} "
                      f"{stats['spread']:8.4f} {bounds[metric]:6.2f}{flag}")
        raw_wall = {}
        for label, values in raw[name].items():
            stats = spread(values) if len(values) >= 2 else {"values": values}
            raw_wall[label] = {"unit": "s", **stats}
            if "spread" in stats:
                print(f"{name:20s} {'raw ' + label:14s} {stats['median']:12.6g} "
                      f"{stats['spread']:8.4f}")
        workloads[name] = {"why": whys[name], "command": wl.command, "config": wl.config,
                           "format": wl.formats, "coords_drawn": wl.coords,
                           "end_to_end": e2e, "raw_wall": raw_wall, "trace": traces[name]}
    print(f"failed repetitions: {failures}")

    if args.write:
        baseline = {"machine": machine_facts(), "run_seconds": seconds, "seeds": args.seeds,
                    "trace_seed": TRACE_SEED, "failed_repetitions": failures,
                    "workloads": workloads}
        with open(args.write, "w") as fh:
            json.dump(baseline, fh, indent=2)
            fh.write("\n")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
