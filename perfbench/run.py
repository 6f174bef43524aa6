"""wsisearch benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run is traced and the metrics are the per-layer ones, plus the tracing
overhead.  The line before it, starting with ``info:``, records the
environment, the host calibration, sample counts, the per-engine digests
of the rows in rows.csv format and, for untraced runs, the raw samples behind
every timing.
"""
from __future__ import annotations

import json
import os
import sys

#: pinned before numpy is imported: one BLAS thread, fixed string hashing
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")


def main(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wsisearch", "__init__.py")):
        print(f"error: {SRC} holds no wsisearch package; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import measure

    if ns.workload not in measure.WORKLOADS:
        print(f"error: unknown workload {ns.workload!r}; choose from {sorted(measure.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if ns.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    workload = measure.WORKLOADS[ns.workload]
    if ns.trace:
        result, info = measure.run_traced(workload, ns.seed, WORK)
    else:
        result, info = measure.run_untraced(workload, ns.seed, ns.seconds, WORK)
    info["env"] = {key: os.environ.get(key) for key in PINNED_ENV}
    info["env"]["nproc"] = os.cpu_count()
    info["env"]["affinity"] = len(os.sched_getaffinity(0))
    print("info: " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})
    sys.exit(main(sys.argv[1:]))
