"""Benchmark of the steklovfem pipeline: one workload, one seed, one run.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload study --seed 1729 --seconds 42 --trace 0

The load is a closed loop with one client: passes run one at a time, each in
a fresh process (``ru_maxrss`` is a process high-water mark, and SuperLU
arenas stay resident after a factor is freed), with BLAS threads capped at
the number of usable cores.  Passes repeat while the next one is expected
to end within ``--seconds``; at least one always runs.  Pass ``i`` uses the
solver seed ``seed + i * PASS_SEED_STRIDE``: the iteration count depends on
the start block, so a run's median spans several start blocks.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``wall_s`` (median pass wall time after imports), ``setup_s`` (median over
the passes of the time from process start until numpy, scipy and steklovfem
are imported), ``peak_rss_mb`` (median peak RSS of a pass process) and
``pass_rate`` (share of operations whose outputs passed their check).
``--trace 1`` runs each pass seed once untraced and once traced, in
alternating order, and reports the per-layer metrics: medians over the
traced passes of the times, the counters of the first traced pass, and
``trace.overhead_s``, the median over the pairs of traced minus untraced
wall time.  Spans of the traced passes go to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``python3 bench/run.py --record-expected`` runs every workload once with the
solver's default seed and writes the outputs the checks compare against to
``bench/expected.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("study", "spectrum", "assemble")
PASS_SEED_STRIDE = 1_000_003  # pass i runs the solver with seed + i * stride
DEADLINE_S = 170.0        # a run must end within 180 s; a pass normally takes 15 s
RECORD_SEED = 1729        # the solver's default start-block seed
OUT_DIR = ".bench_out"


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def worker_env() -> tuple[dict, int]:
    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env, threads


def _spawn(name: str, seed: int, traced: bool, env: dict, deadline: float) -> dict:
    """Run one pass of workload ``name`` in a fresh process; return its result."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, name, str(seed), "1" if traced else "0", repr(spawned)],
        capture_output=True, text=True, env=env, timeout=max(deadline - spawned, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"pass process exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload: str, seed: int, seconds: float, traced: bool, root: str) -> dict:
    """Run the passes of one benchmark run; return the result object."""
    deadline = time.monotonic() + DEADLINE_S
    env, threads = worker_env()
    spec = load_spec(root)
    passes: list[dict] = []
    overheads: list[float] = []  # traced minus untraced wall of each round's pair
    start = time.monotonic()
    longest = 0.0
    rounds = 0
    while not passes or time.monotonic() - start + longest <= seconds:
        t0 = time.monotonic()
        # A traced round runs the same pass with and without the tracer, in
        # alternating order so that drift between passes cancels out.
        modes = (False,) if not traced else (False, True) if rounds % 2 == 0 else (True, False)
        pair = {}
        for mode in modes:
            result = _spawn(workload, seed + rounds * PASS_SEED_STRIDE, mode, env, deadline)
            result["traced"] = mode
            passes.append(result)
            pair[mode] = result["wall_s"]
        if traced:
            overheads.append(pair[True] - pair[False])
        longest = max(longest, time.monotonic() - t0)
        rounds += 1

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for f in failures:
        print(f"bench: failed: {f}", file=sys.stderr)
    plain = [p for p in passes if not p["traced"]]
    if traced:
        with_trace = [p for p in passes if p["traced"]]
        values = {name: statistics.median(p["layers"][name] for p in with_trace)
                  for name in with_trace[0]["layers"]}
        # Counters depend on the pass seed: report the first pass's, whose
        # seed is --seed itself, so that they repeat exactly for a seed.
        values.update({name: with_trace[0]["layers"][name] for name in tracing.COUNTERS})
        values["trace.overhead_s"] = statistics.median(overheads)
        metrics = spec["per_layer"]
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
        with open(os.path.join(root, OUT_DIR, f"trace-{workload}-{seed}.json"), "w") as f:
            json.dump({"workload": workload, "seed": seed, "blas_threads": threads,
                       "passes": passes}, f)
    else:
        values = {"wall_s": statistics.median(p["wall_s"] for p in plain),
                  "setup_s": statistics.median(p["setup_s"] for p in passes),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
                  "pass_rate": 1.0 - len(failures) / attempted}
        metrics = spec["end_to_end"]
    print(f"workload={workload} seed={seed} passes={len(plain)} "
          f"traced_passes={len(passes) - len(plain)} blas_threads={threads} "
          f"attempted={attempted} failed={len(failures)}")
    for m in metrics:
        print(f"  {m['name']:24s} {values[m['name']]:.6g} {m['unit']}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in metrics}}


def record_expected(root: str) -> None:
    env, _ = worker_env()
    expected = {name: _spawn(name, RECORD_SEED, False, env, time.monotonic() + DEADLINE_S)["values"]
                for name in WORKLOAD_NAMES}
    with open(os.path.join(HERE, "expected.json"), "w") as f:
        json.dump(expected, f, indent=1)
        f.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=RECORD_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "steklovfem", "__init__.py")):
        return _fail(f"no steklovfem sources under {os.path.join(root, 'src')}; "
                     "run from the root of a source checkout")
    try:
        if args.record_expected:
            record_expected(root)
            return 0
        if args.workload is None:
            return _fail("--workload is required")
        seconds = load_spec(root)["run_seconds"] if args.seconds is None else args.seconds
        result = run(args.workload, args.seed, seconds, args.trace == 1, root)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
