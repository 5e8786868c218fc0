"""Measure every workload over several seeds and print the baseline table.

Usage, from the root of a source checkout:

    python3 bench/table.py --seeds 1 2 3 4 5 6 7 8 9 10 --out bench/baseline.json

For each workload this makes one untraced benchmark run per seed
and one traced run with the first seed, all with ``run_seconds`` from
``BENCHMARK.json``.  It prints, per workload, the median and quartiles of
each end-to-end metric with its spread (interquartile range over median)
against the metric's bound, then the per-layer metrics of the traced runs.
With ``--out`` it also writes the whole point as JSON.  The recorded
``bench/baseline.json`` is such a point.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def _summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            return next((line.split(":", 1)[1].strip() for line in f
                         if line.startswith("model name")), platform.processor())
    except OSError:
        return platform.processor()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    root = os.getcwd()
    spec = run.load_spec(root)
    seconds = spec["run_seconds"]
    _, threads = run.worker_env()
    point = {"machine": {"cores": threads, "cpu": _cpu_model()}, "blas_threads": threads,
             "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in run.WORKLOAD_NAMES:
        results = [run.run(workload, seed, seconds, False, root) for seed in args.seeds]
        traced = run.run(workload, args.seeds[0], seconds, True, root)
        end_to_end = {m["name"]: _summary([r["metrics"][m["name"]]["value"] for r in results])
                      for m in spec["end_to_end"]}
        point["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results) + traced["attempted"],
            "failed": sum(r["failed"] for r in results) + traced["failed"],
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}

        print(f"\n### {workload} ({len(args.seeds)} runs of {seconds} s, "
              f"{point['workloads'][workload]['failed']} failed operations)\n")
        print("| metric | median | q1 | q3 | spread | bound |\n|---|---|---|---|---|---|")
        for m in spec["end_to_end"]:
            s = end_to_end[m["name"]]
            print(f"| {m['name']} ({m['unit']}) | {s['median']:.4g} | {s['q1']:.4g} | "
                  f"{s['q3']:.4g} | {s['spread']:.3f} | {m['bound']} |")

    print("\n### per layer (traced run, first seed)\n")
    print("| metric | " + " | ".join(run.WORKLOAD_NAMES) + " |\n|---|"
          + "---|" * len(run.WORKLOAD_NAMES))
    for m in spec["per_layer"]:
        cells = [f"{point['workloads'][w]['per_layer'][m['name']]:.4g}" for w in run.WORKLOAD_NAMES]
        print(f"| {m['name']} ({m['unit']}) | " + " | ".join(cells) + " |")

    if args.out:
        with open(args.out, "w") as f:
            json.dump(point, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
