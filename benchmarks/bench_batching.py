#!/usr/bin/env python
"""Benchmark: batched serving vs one-request-per-step serving.

The production question behind `repro.serving.batching`: when many
single-image requests hit one accelerator, what does coalescing
same-level requests into shared dispatches buy?  The *same*
Poisson stream is served by the same network, trace and FIFO scheduler
under ``batch_policy="none"`` (the correctness oracle) and
``"same-level"`` at max batch sizes 4 / 8 / 16, measuring

* host wall-clock of the whole serving run (every batch size timed in
  the same interleaved best-of rounds, ``timing.time_engines``) and
  executed subnet steps per wall-second — each member still runs its own compiled edge
  program, so the gain is engine-dispatch amortisation: one scheduling
  decision, one event and one overhead charge per group instead of per
  request;
* simulated makespan / p95 latency — batches charge the sum of member
  MACs but a single per-step overhead, so coalescing also helps the
  modelled accelerator;
* batch occupancy (mean/max members per dispatch) and a per-request
  bit-equality check of every batched run against the unbatched oracle.

Bench scale is the interactive-serving regime batching targets:
``tiny-cnn`` at 12x12 with batch-size-1 requests (per-request GEMMs far
from saturating the host), matching the serving test fixtures.  Like
``bench_plan.py`` this is a plain script so CI can run it as a smoke
job::

    PYTHONPATH=src python benchmarks/bench_batching.py --smoke

Results are written as machine-readable JSON (default
``benchmarks/results/BENCH_batching.json``) so per-PR perf regressions
are visible as artefact diffs.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread *before* numpy loads: the per-member GEMMs are
# interactive-sized, where thread fan-out only adds dispatch jitter.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
from pathlib import Path

import numpy as np

from repro.baselines.common import set_prefix_assignments
from repro.core import SteppingNetwork
from repro.core.pruning import apply_unstructured_pruning
from repro.models import tiny_cnn
from repro.runtime.platform import ResourceTrace
from repro.serving import (
    ServingEngine,
    SteppingBackend,
    get_batch_policy,
    poisson_stream,
)
from timing import time_engines

DEFAULT_OUT = Path(__file__).parent / "results" / "BENCH_batching.json"
DTYPE = np.float32  # the serving default
NUM_SUBNETS = 4
SECONDS_FOR_LARGEST = 0.04  # simulated full-quality service time per request
UTILIZATION = 2.0  # sustained oversubscription: the regime batching targets


def build_network(width_scale: float):
    """A tiny-CNN stepping network with nested subnets and live pruning.

    Training is irrelevant to step latency, so the network is assembled
    directly, mirroring ``bench_plan.build_network`` at the serving-test
    scale batching targets (single-image interactive requests).
    """
    spec = tiny_cnn(num_classes=10, input_shape=(3, 12, 12), width_scale=width_scale)
    network = SteppingNetwork(
        spec.expand(1.5), num_subnets=NUM_SUBNETS, rng=np.random.default_rng(0)
    )
    fractions = [(level + 1) / NUM_SUBNETS for level in range(NUM_SUBNETS)]
    set_prefix_assignments(network, fractions)
    network.assignment.validate()
    apply_unstructured_pruning(network, 3e-2)
    network.eval()
    return network


def build_workload(network, num_requests: int):
    largest = float(network.subnet_macs(network.num_subnets - 1))
    trace = ResourceTrace.constant(largest / SECONDS_FOR_LARGEST, name="steady")
    rng = np.random.default_rng(42)
    images = rng.standard_normal((64, 3, 12, 12))
    requests = poisson_stream(
        images,
        rate=UTILIZATION / SECONDS_FOR_LARGEST,
        num_requests=num_requests,
        batch_size=1,
        seed=0,
    )
    return trace, requests


def make_engine(network, trace, batch_size: int) -> ServingEngine:
    """A FIFO engine coalescing same-level requests up to ``batch_size``."""
    policy = (
        "none" if batch_size == 1 else get_batch_policy("same-level", max_batch_size=batch_size)
    )
    return ServingEngine(
        SteppingBackend(network, dtype=DTYPE),
        trace,
        "fifo",
        batch_policy=policy,
        overhead_per_step=5e-4,
    )


def run_row(report, wall: float, batch_size: int, num_requests: int) -> dict:
    steps = sum(len(job.steps) for job in report.jobs)
    return {
        "max_batch_size": batch_size,
        "batch_policy": report.batch_policy_name,
        "wall_seconds": wall,
        "steps_per_second_wall": steps / wall,
        "requests_per_second_wall": num_requests / wall,
        "completed": len(report.completed_jobs),
        "executed_steps": steps,
        "dispatches": report.num_dispatches,
        "mean_batch_occupancy": report.mean_batch_occupancy,
        "max_batch_occupancy": report.max_batch_occupancy,
        "batched_steps": report.batched_steps,
        "solo_steps": report.solo_steps,
        "simulated_makespan": report.makespan,
        "simulated_p95_latency": report.p95_latency,
        "simulated_throughput_rps": report.throughput,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny configuration for CI smoke runs"
    )
    parser.add_argument("--repeats", type=int, default=None, help="timing repetitions")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="JSON output path")
    args = parser.parse_args()

    if args.smoke:
        width_scale, num_requests, repeats = 0.5, 32, 2
    else:
        width_scale, num_requests, repeats = 1.0, 240, 3
    if args.repeats is not None:
        repeats = args.repeats

    network = build_network(width_scale)
    trace, requests = build_workload(network, num_requests)

    results = {
        "config": {
            "model": "tiny-cnn",
            "width_scale": width_scale,
            "num_subnets": NUM_SUBNETS,
            "request_batch_size": 1,
            "dtype": np.dtype(DTYPE).name,
            "num_requests": num_requests,
            "poisson_rate": UTILIZATION / SECONDS_FOR_LARGEST,
            "seconds_for_largest": SECONDS_FOR_LARGEST,
            "overhead_per_step": 5e-4,
            "repeats": repeats,
            "smoke": bool(args.smoke),
        },
        "runs": {},
        "speedup_vs_none": {},
        "bit_equal_to_none": {},
    }

    # Every batch size is timed in the same interleaved rounds, so a slow
    # host period cannot favour one of them.
    engines = {str(size): make_engine(network, trace, size) for size in (1, 4, 8, 16)}
    reports, walls = time_engines(engines, requests, repeats)
    oracle = reports["1"]
    for key, report in reports.items():
        batch_size = int(key)
        row = run_row(report, walls[key], batch_size, num_requests)
        results["runs"][key] = row
        if batch_size > 1:
            results["speedup_vs_none"][key] = (
                results["runs"]["1"]["wall_seconds"] / row["wall_seconds"]
            )
            # Batching must not change a single answer: every request's
            # final logits bit-equal the unbatched oracle's.
            results["bit_equal_to_none"][key] = all(
                np.array_equal(a.final_logits, b.final_logits)
                for a, b in zip(oracle.jobs, report.jobs)
            )
        print(
            f"batch {batch_size:>2d}: {row['wall_seconds']:6.3f} s wall, "
            f"{row['steps_per_second_wall']:8.1f} steps/s, "
            f"occupancy {row['mean_batch_occupancy']:5.2f} "
            f"(max {row['max_batch_occupancy']:2d}), "
            f"sim makespan {row['simulated_makespan']:6.3f} s, "
            f"sim p95 {row['simulated_p95_latency'] * 1e3:7.2f} ms"
        )
    for key, speedup in results["speedup_vs_none"].items():
        print(
            f"  speedup vs none @ batch {key}: {speedup:.2f}x wall"
            f" ({'bit-equal' if results['bit_equal_to_none'][key] else 'MISMATCH'})"
        )

    # Written before the checks so a failing run still leaves its numbers.
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")

    assert all(results["bit_equal_to_none"].values()), "batched logits diverged from oracle"
    for row in results["runs"].values():
        assert row["completed"] == num_requests, "requests went missing"
    if args.smoke:
        assert results["runs"]["8"]["batched_steps"] > 0, "batching never engaged"
    else:
        speedup = results["speedup_vs_none"]["8"]
        assert speedup >= 1.5, f"batch-8 serving speedup {speedup:.2f}x < 1.5x"


if __name__ == "__main__":
    main()
