"""Batched serving: coalescing same-level requests into shared dispatches.

Under heavy multi-tenant traffic the serving engine's queue fills with
requests that all need the *same* subnet step — the compiled plan runs
one edge program per ``(current -> next)`` edge, so the batching
policies in :mod:`repro.serving.batching` coalesce them: the
scheduler's winner and every compatible ready job at its subnet edge
advance in one ``NetworkPlan.execute_batch`` dispatch (each member
through the edge's program), bit-equal per request to unbatched
serving.

This example pushes one oversubscribed Poisson stream of single-image
requests through the same engine under the three registered policies
(``none`` / ``same-level`` / ``windowed``) and prints what coalescing
buys — host wall-clock, simulated makespan (one launch overhead per
batch instead of per request) and batch occupancy — then runs the same
idea fleet-wide from a checked-in JSON config with a queue-depth-aware
router.

Run with:  python examples/batched_serving.py
"""

import time
from pathlib import Path

import numpy as np

from repro.analysis.reporting import format_experiment_header, format_markdown_table
from repro.baselines.common import set_prefix_assignments
from repro.core import SteppingNetwork
from repro.models import tiny_cnn
from repro.runtime.platform import ResourceTrace
from repro.serving import (
    ClusterSpec,
    ServingEngine,
    SteppingBackend,
    get_batch_policy,
    poisson_stream,
    serve,
)

CLUSTER_CONFIG = Path(__file__).parent.parent / "benchmarks" / "configs" / "cluster_batched.json"

POLICIES = (
    ("none", {}),
    ("same-level", {"max_batch_size": 8}),
    ("windowed", {"max_batch_size": 8, "window": 0.01}),
)


def build_network():
    spec = tiny_cnn(num_classes=10, input_shape=(3, 12, 12), width_scale=1.0)
    network = SteppingNetwork(spec.expand(1.5), num_subnets=4, rng=np.random.default_rng(0))
    set_prefix_assignments(network, [0.25, 0.5, 0.75, 1.0])
    network.assignment.validate()
    network.eval()
    return network


def main() -> None:
    print(format_experiment_header("Batched serving: shared dispatches"))
    network = build_network()
    largest = float(network.subnet_macs(network.num_subnets - 1))
    trace = ResourceTrace.constant(largest / 0.04, name="steady")
    images = np.random.default_rng(42).standard_normal((64, 3, 12, 12))
    # 2x oversubscribed single-image traffic: the regime where queues
    # build and same-level coalescing has material to work with.
    requests = poisson_stream(images, rate=50.0, num_requests=160, batch_size=1, seed=0)

    rows = []
    oracle = None
    for name, params in POLICIES:
        engine = ServingEngine(
            SteppingBackend(network),
            trace,
            "fifo",
            batch_policy=get_batch_policy(name, **params),
            overhead_per_step=5e-4,
        )
        start = time.perf_counter()
        report = engine.serve(requests)
        wall = time.perf_counter() - start
        if oracle is None:
            oracle = report
        exact = all(
            np.array_equal(a.final_logits, b.final_logits)
            for a, b in zip(oracle.jobs, report.jobs)
        )
        rows.append(
            {
                "policy": name,
                "wall s": f"{wall:.3f}",
                "sim makespan s": f"{report.makespan:.3f}",
                "dispatches": report.num_dispatches,
                "occupancy": f"{report.mean_batch_occupancy:.2f}",
                "max batch": report.max_batch_occupancy,
                "bit-equal": "yes" if exact else "NO",
            }
        )
    print(format_markdown_table(rows))
    print()

    print(format_experiment_header("Batched fleet from JSON (queue-depth router)"))
    spec = ClusterSpec.from_json(CLUSTER_CONFIG)
    report = serve(None, spec)  # None: instantiate the spec's declarative model
    payload = report.as_dict()
    print(
        f"cluster '{payload['cluster']}' ({payload['num_nodes']} nodes, "
        f"router {payload['router']}): {payload['completed']}/{payload['num_jobs']} "
        f"completed, occupancy {payload['mean_batch_occupancy']:.2f}, "
        f"{payload['batched_steps']} batched / {payload['solo_steps']} solo steps"
    )
    for node in payload["nodes"]:
        print(
            f"  {node['node']:>14s}: {node['assigned']:3d} assigned, "
            f"batch policy {node['batch_policy']:>10s}, "
            f"occupancy {node['mean_batch_occupancy']:.2f}"
        )


if __name__ == "__main__":
    main()
