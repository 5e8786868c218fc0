"""One benchmark pass in a fresh process.

Usage: python3 bench/worker.py <workload> <seed> <trace 0|1> <spawn_time>

``spawn_time`` is the parent's ``time.monotonic()`` just before it started
this process; ``setup_s`` is the time from then until numpy, scipy and
``steklovfem`` are imported.

The cyclic garbage collector is off during the pass.  ``SpdFactor.matrix``
and ``SymSparse._spd_factor`` form a reference cycle, so a factor that is no
longer used (with its SuperLU arena) is freed only by a full collection.
With the collector on, whether that collection runs before the next large
factor depends on allocation counts that the hash seed, the tracer or any
unrelated change shift, and the peak RSS of a study pass lands on about 685
or 787 MB by chance.  With it off, memory held by cycles counts fully and
the peak repeats (about 800 MB); breaking the cycle shows as a gain.

The package is imported from ``src/`` of the current directory and nowhere
else.  The pass prints one JSON line: its timings, its peak RSS, the
operations it attempted and failed with the reason of each failure, and,
when traced, its layer metrics and spans.
"""

import gc
import os
import sys
import time

SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)

import numpy  # noqa: E402,F401
import scipy.sparse.linalg  # noqa: E402,F401
import steklovfem  # noqa: E402

IMPORTED = time.monotonic()

import json  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, traced, spawned = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    if os.path.dirname(os.path.abspath(steklovfem.__file__)) != os.path.join(SRC, "steklovfem"):
        raise SystemExit(f"steklovfem was imported from {steklovfem.__file__}, not {SRC}")
    gc.disable()  # see the module docstring
    tracer = tracing.Tracer() if traced else None
    if tracer:
        tracer.install(steklovfem)
    run = workloads.run_pass(name, seed)
    result = {"setup_s": IMPORTED - spawned, "wall_s": run.wall_s,
              "peak_rss_mb": tracing.maxrss_mb(), "attempted": run.attempted,
              "failures": run.failures, "values": run.values}
    if tracer:
        result.update(layers=tracer.layer_metrics(run.wall_s), spans=tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
