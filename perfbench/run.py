"""Benchmark entry point: one workload per process, one JSON line out.

From the repository root::

    python3 perfbench/run.py --workload anytime-vgg16 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures every end-to-end metric with nothing wrapped;
``--trace 1`` measures every per-layer metric with span timers around
each layer's entry points (:mod:`perfbench.spans`).  The workloads and
metrics are declared in ``BENCHMARK.json``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it starts with
``diagnostics`` and carries raw (un-normalised) values and any failed
check.

The environment is pinned before numpy is imported: one BLAS thread,
``REPRO_LOG_LEVEL=ERROR`` (the chaos fleet logs a warning per degraded
admission), no ``REPRO_DEFAULT_DTYPE`` override, and stderr diverted to
``.perfbench/stderr.log`` when it is a terminal.  Each invocation runs
one workload, so ``peak_rss_mb`` is that workload's own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _pin_environment() -> None:
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"
    os.environ["REPRO_LOG_LEVEL"] = "ERROR"
    os.environ.pop("REPRO_DEFAULT_DTYPE", None)
    if sys.stderr.isatty():
        log_dir = ROOT / ".perfbench"
        log_dir.mkdir(exist_ok=True)
        with open(log_dir / "stderr.log", "a") as log:
            os.dup2(log.fileno(), sys.stderr.fileno())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [name for name in ("src/repro/__init__.py", "BENCHMARK.json") if not (ROOT / name).is_file()]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _pin_environment()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import measure, measure_traced
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    run = measure_traced if args.trace else measure
    result, diagnostics = run(WORKLOADS[args.workload](args.seed), args.seconds)
    print("diagnostics " + json.dumps(diagnostics), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
