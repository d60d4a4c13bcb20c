#!/usr/bin/env python
"""Benchmark: graceful degradation of fleet serving under node failures.

The production question behind `repro.serving.faults`: a classical
serving system answers node loss with errors or timeouts; an anytime
fleet answers with *smaller subnets*.  This study serves the same
deadline-bound workload on a 3-node fleet while crashing nodes one by
one (3 -> 2 -> 1 survivors) and measures the degradation curve:

* mean delivered subnet level (the quality axis) — must fall
  monotonically as capacity is lost, never collapse to failures;
* deadline-miss rate — must rise monotonically;
* the fault-tolerance counters (retries, migrations, failovers) and
  the invariant that nothing is lost while one node survives;
* a per-request bit-equality check of every completed request against
  solo incremental inference over its executed levels — failover
  replay must never change an answer.

A second section serves the checked-in chaos config
(``configs/cluster_faults.json``: crash + recovery + partition +
transients + slowdown under degrade-mode admission) end to end, as the
CI chaos-smoke job.  Like the other benches this is a plain script::

    PYTHONPATH=src python benchmarks/bench_faults.py --smoke

Results are written as machine-readable JSON (default
``benchmarks/results/BENCH_faults.json``).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.baselines.common import set_prefix_assignments
from repro.core import SteppingNetwork
from repro.core.incremental import IncrementalInference
from repro.models import tiny_cnn
from repro.runtime.platform import ResourceTrace
from repro.runtime.policies import ConfidencePolicy
from repro.serving import (
    ClusterSpec,
    CrashFault,
    FaultSpec,
    Request,
    RetryPolicy,
    ServingCluster,
    ServingEngine,
    SteppingBackend,
)

DEFAULT_OUT = Path(__file__).parent / "results" / "BENCH_faults.json"
CONFIG = Path(__file__).parent / "configs" / "cluster_faults.json"
DTYPE = np.float32
NUM_SUBNETS = 4
NUM_NODES = 3
SECONDS_FOR_LARGEST = 0.04  # simulated full-quality service time per request
UTILIZATION = 2.0  # per-fleet oversubscription: queues build, deadlines bind


def build_network(width_scale: float):
    spec = tiny_cnn(num_classes=10, input_shape=(3, 12, 12), width_scale=width_scale)
    network = SteppingNetwork(
        spec.expand(1.5), num_subnets=NUM_SUBNETS, rng=np.random.default_rng(0)
    )
    fractions = [(level + 1) / NUM_SUBNETS for level in range(NUM_SUBNETS)]
    set_prefix_assignments(network, fractions)
    network.assignment.validate()
    network.eval()
    return network


def build_workload(network, num_requests: int):
    """Deadline-bound traffic: time lost to faults shows up as quality."""
    rng = np.random.default_rng(42)
    images = rng.standard_normal((64, 3, 12, 12))
    mean_gap = SECONDS_FOR_LARGEST / (UTILIZATION * NUM_NODES)
    requests = []
    arrival = 0.0
    for index in range(num_requests):
        arrival += float(rng.exponential(mean_gap))
        requests.append(
            Request(
                request_id=index,
                arrival_time=arrival,
                inputs=images[index % len(images)][None],
                deadline=arrival + 2.5 * SECONDS_FOR_LARGEST,
            )
        )
    horizon = requests[-1].arrival_time
    return requests, horizon


def build_cluster(network, faults):
    largest = float(network.subnet_macs(network.num_subnets - 1))
    trace = lambda: ResourceTrace.constant(  # noqa: E731 - tiny local factory
        largest / SECONDS_FOR_LARGEST, name="steady"
    )
    engines = [
        ServingEngine(
            SteppingBackend(
                network,
                policy=ConfidencePolicy(threshold=1.0, respect_deadline=False),
                dtype=DTYPE,
            ),
            trace(),
            "edf",
            overhead_per_step=5e-4,
            enforce_deadline=True,
        )
        for _ in range(NUM_NODES)
    ]
    return ServingCluster(
        engines,
        router="round-robin",
        names=[f"n{i}" for i in range(NUM_NODES)],
        faults=faults,
    )


def bit_equal_to_oracle(network, jobs) -> bool:
    """Every completed request matches solo incremental inference."""
    for job in jobs:
        if job.status != "completed" or not job.steps:
            continue
        oracle = IncrementalInference(network, dtype=DTYPE)
        result = oracle.run(job.request.inputs, subnet=job.steps[0].subnet)
        if not np.array_equal(job.steps[0].logits, result.logits):
            return False
        for step in job.steps[1:]:
            result = oracle.step_to(step.subnet)
            if not np.array_equal(step.logits, result.logits):
                return False
        if not np.array_equal(job.final_logits, result.logits):
            return False
    return True


def row_from_report(report, network, num_requests: int, wall: float) -> dict:
    jobs = report.jobs
    # Delivered quality: executed levels per request (0 = no answer).
    delivered = [len({step.subnet for step in job.steps}) for job in jobs]
    # One serialisation path: consume the canonical ClusterReport.to_dict()
    # instead of re-assembling its scalars by hand.
    summary = report.to_dict()
    row = {
        key: summary[key]
        for key in (
            "num_jobs",
            "completed",
            "dropped",
            "deadline_miss_rate",
            "total_macs",
            "retries",
            "timed_out",
            "migrations",
            "failovers",
            "degraded_admissions",
            "rejected",
            "lost",
        )
    }
    row.update(
        mean_delivered_levels=float(np.mean(delivered)) if delivered else 0.0,
        simulated_p95_latency=summary["p95_latency"],
        simulated_makespan=summary["makespan"],
        recompute_macs=summary["total_macs_recomputed"],
        bit_equal_to_oracle=bit_equal_to_oracle(network, jobs),
        wall_seconds=wall,
    )
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny configuration for CI smoke runs"
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="JSON output path")
    args = parser.parse_args()

    width_scale, num_requests = (0.5, 60) if args.smoke else (1.0, 180)
    network = build_network(width_scale)
    requests, horizon = build_workload(network, num_requests)

    # Cumulative crash schedules: each point keeps the previous point's
    # crashes and adds one more, so disruption grows monotonically.
    crash_points = [
        ("3-nodes", ()),
        ("2-nodes", (CrashFault(node="n2", time=0.5 * horizon),)),
        (
            "1-node",
            (
                CrashFault(node="n2", time=0.25 * horizon),
                CrashFault(node="n1", time=0.5 * horizon),
            ),
        ),
    ]
    retry = RetryPolicy(base_delay=0.002, max_delay=0.02, max_retries=5)

    results = {
        "config": {
            "model": "tiny-cnn",
            "width_scale": width_scale,
            "num_subnets": NUM_SUBNETS,
            "num_nodes": NUM_NODES,
            "num_requests": num_requests,
            "utilization": UTILIZATION,
            "seconds_for_largest": SECONDS_FOR_LARGEST,
            "relative_deadline": 2.5 * SECONDS_FOR_LARGEST,
            "smoke": bool(args.smoke),
        },
        "degradation": {},
        "chaos_config": {},
    }

    for label, crashes in crash_points:
        faults = FaultSpec(events=crashes, retry=retry) if crashes else None
        cluster = build_cluster(network, faults)
        start = time.perf_counter()
        report = cluster.serve(requests)
        wall = time.perf_counter() - start
        row = row_from_report(report, network, num_requests, wall)
        results["degradation"][label] = row
        print(
            f"{label:>8s}: delivered {row['mean_delivered_levels']:.2f} levels, "
            f"miss {row['deadline_miss_rate']:6.2%}, "
            f"retries {row['retries']:>2d}, migrations {row['migrations']:>2d}, "
            f"failovers {row['failovers']:>2d}, lost {row['lost']} "
            f"({'bit-equal' if row['bit_equal_to_oracle'] else 'MISMATCH'})"
        )

    curve = [results["degradation"][label] for label, _ in crash_points]
    assert all(row["bit_equal_to_oracle"] for row in curve), "faults changed answers"
    assert all(row["lost"] == 0 for row in curve), "requests lost with a survivor up"
    assert all(row["num_jobs"] == num_requests for row in curve), "records went missing"
    quality = [row["mean_delivered_levels"] for row in curve]
    assert all(
        later <= earlier + 1e-9 for earlier, later in zip(quality, quality[1:])
    ), f"degradation curve not monotone: {quality}"
    assert quality[-1] > 0, "fleet collapsed to zero delivered quality"
    misses = [row["deadline_miss_rate"] for row in curve]
    assert all(
        later >= earlier - 1e-9 for earlier, later in zip(misses, misses[1:])
    ), f"deadline-miss curve not monotone: {misses}"
    assert curve[-1]["failovers"] > 0 or curve[-1]["migrations"] > 0, (
        "crashes never exercised failover"
    )

    # ------------------------------------------------------------------
    # The checked-in chaos config, end to end (the CI smoke artefact).
    # ------------------------------------------------------------------
    spec = ClusterSpec.from_json(CONFIG)
    cluster = ServingCluster.from_spec(spec)
    start = time.perf_counter()
    report = cluster.serve()
    wall = time.perf_counter() - start
    chaos_network = cluster.engines[0].backend.network
    row = row_from_report(report, chaos_network, report.num_jobs, wall)
    results["chaos_config"] = dict(row, config=str(CONFIG.name))
    print(
        f"chaos config: {row['num_jobs']} jobs, completed {row['completed']}, "
        f"degraded {row['degraded_admissions']}, rejected {row['rejected']}, "
        f"retries {row['retries']}, failovers {row['failovers']} "
        f"({'bit-equal' if row['bit_equal_to_oracle'] else 'MISMATCH'})"
    )
    assert row["bit_equal_to_oracle"], "chaos config changed answers"
    assert (
        row["completed"] + row["dropped"] + row["rejected"] + row["lost"]
        == row["num_jobs"]
    ), "chaos config records do not partition the workload"

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
