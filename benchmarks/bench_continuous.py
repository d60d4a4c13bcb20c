#!/usr/bin/env python
"""Benchmark: continuous batching vs windowed batching under wave decay.

The production question behind ``ContinuousBatching``: early-exit
workloads make lockstep waves *decay* — most requests stop after their
first level, so a wave that dispatched 16-wide drags on as a skinny
survivor chain, and windowed batching burns one dispatch per near-empty
pass.  Continuous batching instead tops the in-flight wave back up at
every step boundary with ready laggards, which catch up inside the
dispatch and ride the shared pass, bit-equal per request to solo
serving.

The workload is a two-class early-exit stream (the regime the policy
targets): ``FRAC_LOUD`` of the requests are confidently classified at
subnet 0 and exit immediately under a ``ConfidencePolicy``; the rest
stay uncertain and climb all ``NUM_SUBNETS`` levels.  The *same* Poisson
stream (2x sustained oversubscription, rate calibrated from a probe
run's measured per-request MACs) is served under ``batch_policy="none"``
(the correctness oracle), ``"windowed"`` and ``"continuous"`` at
``max_batch_size=16``, measuring

* host wall-clock of the whole serving run (interleaved best-of-K
  rounds, GC parked during timing) — fewer, fatter passes amortise the
  per-pass fixed cost, the real-hardware analogue of kernel-launch and
  weight-reload amortisation;
* executed passes and batch occupancy (the occupancy-over-time series
  is written to the JSON so the wave-decay shape is visible);
* per-request bit-equality of both batched runs against the oracle;
* a scheduler micro-benchmark: batch-candidate lookup through the
  per-edge ready index vs a linear ready-queue scan at 250 / 1000
  queued jobs — the index is what keeps dispatch cost flat as the
  backlog grows.

Like ``bench_batching.py`` this is a plain script so CI can run it as a
smoke job::

    PYTHONPATH=src python benchmarks/bench_continuous.py --smoke

Results are written as machine-readable JSON (default
``benchmarks/results/BENCH_continuous.json``) so per-PR perf
regressions are visible as artefact diffs.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread *before* numpy loads: the per-member GEMMs are
# interactive-sized, where thread fan-out only adds dispatch jitter.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.baselines.common import set_prefix_assignments
from repro.core import SteppingNetwork
from repro.core.pruning import apply_unstructured_pruning
from repro.models import tiny_cnn
from repro.runtime.platform import ResourceTrace
from repro.runtime.policies import ConfidencePolicy
from repro.serving import (
    ServingEngine,
    ServingJob,
    SteppingBackend,
    get_batch_policy,
    get_scheduler,
    poisson_stream,
)
from repro.serving.request import Request
from timing import time_engines

DEFAULT_OUT = Path(__file__).parent / "results" / "BENCH_continuous.json"
DTYPE = np.float32  # the serving default
NUM_SUBNETS = 32  # deep anytime ladder: waves decay over many boundaries
ENTRY_FRACTION = 1.0 / 16.0  # entry subnet width (anchors level-0 exits)
SECONDS_FOR_LARGEST = 0.04  # simulated full-quality service time per request
UTILIZATION = 2.0  # sustained oversubscription: the regime batching targets
MAX_BATCH_SIZE = 16
MAX_CATCHUP_LEVELS = 7  # admission cap: deep laggards open fresh waves
BATCH_WINDOW = 0.01  # windowed baseline's coalescing wait
CONFIDENCE_THRESHOLD = 0.9
FRAC_LOUD = 0.9  # fraction of requests that exit confidently at subnet 0
LOUD_SCALE = 400.0  # input magnitude of the confident class
QUIET_SCALE = 1e-3  # near-zero inputs stay maximally uncertain


def build_network():
    """A 32-subnet tiny-CNN stepping network with live pruning.

    Training is irrelevant to step latency, so the network is assembled
    directly, mirroring ``bench_batching.build_network`` but with a deep
    subnet ladder: wave decay (and therefore refill headroom) grows with
    the number of step boundaries a survivor chain crosses.  The entry
    subnet keeps the width of a 16-level ladder's first rung (so the
    confident class still exits at level 0) and the remaining levels
    interpolate linearly to full width — depth changes how finely the
    *refining* requests step, not who exits early.
    """
    spec = tiny_cnn(num_classes=10, input_shape=(3, 12, 12), width_scale=0.5)
    network = SteppingNetwork(
        spec.expand(1.5), num_subnets=NUM_SUBNETS, rng=np.random.default_rng(0)
    )
    fractions = [
        ENTRY_FRACTION + level * (1.0 - ENTRY_FRACTION) / (NUM_SUBNETS - 1)
        for level in range(NUM_SUBNETS)
    ]
    set_prefix_assignments(network, fractions)
    network.assignment.validate()
    apply_unstructured_pruning(network, 3e-2)
    network.eval()
    return network


def build_images() -> np.ndarray:
    """Two-class image pool: confident-at-entry vs never-confident.

    Large-magnitude inputs saturate the entry subnet's logits (confident
    stop at level 0); near-zero inputs keep the softmax flat so their
    requests climb the whole ladder.  Shuffled so the two classes
    interleave in arrival order.
    """
    rng = np.random.default_rng(42)
    images = rng.standard_normal((64, 3, 12, 12)) * QUIET_SCALE
    images[: int(64 * FRAC_LOUD)] *= LOUD_SCALE / QUIET_SCALE
    rng.shuffle(images, axis=0)
    return images.astype(DTYPE)


def build_workload(network, images, num_requests: int):
    """Probe-calibrated Poisson stream at 2x sustained oversubscription.

    Early exits make the *offered* load depend on the policy: a probe
    serve measures the mean MACs one request actually consumes, and the
    arrival rate is set so the stream demands ``UTILIZATION`` times the
    trace's throughput — enough backlog that batches can actually form.
    """
    largest = float(network.subnet_macs(NUM_SUBNETS - 1))
    trace = ResourceTrace.constant(largest / SECONDS_FOR_LARGEST, name="steady")
    policy = ConfidencePolicy(threshold=CONFIDENCE_THRESHOLD, respect_deadline=False)
    probe = ServingEngine(
        SteppingBackend(network, policy=policy, dtype=DTYPE),
        trace,
        "fifo",
        overhead_per_step=5e-4,
    ).serve(poisson_stream(images, rate=1.0, num_requests=32, batch_size=1, seed=1))
    macs_per_request = probe.total_macs / 32
    rate = UTILIZATION * (largest / SECONDS_FOR_LARGEST) / macs_per_request
    requests = poisson_stream(
        images, rate=rate, num_requests=num_requests, batch_size=1, seed=0
    )
    return trace, requests, rate


def make_engine(network, trace, policy_name: str):
    policy = ConfidencePolicy(threshold=CONFIDENCE_THRESHOLD, respect_deadline=False)
    if policy_name == "none":
        batch_policy = get_batch_policy("none")
    elif policy_name == "windowed":
        batch_policy = get_batch_policy(
            "windowed", max_batch_size=MAX_BATCH_SIZE, window=BATCH_WINDOW
        )
    else:
        batch_policy = get_batch_policy(
            "continuous",
            max_batch_size=MAX_BATCH_SIZE,
            max_catchup_levels=MAX_CATCHUP_LEVELS,
        )
    return ServingEngine(
        SteppingBackend(network, policy=policy, dtype=DTYPE),
        trace,
        "fifo",
        batch_policy=batch_policy,
        overhead_per_step=5e-4,
    )


def run_row(report, wall: float, num_requests: int) -> dict:
    steps = sum(len(job.steps) for job in report.jobs)
    return {
        "batch_policy": report.batch_policy_name,
        "wall_seconds": wall,
        "steps_per_second_wall": steps / wall,
        "requests_per_second_wall": num_requests / wall,
        "completed": len(report.completed_jobs),
        "executed_steps": steps,
        "dispatches": report.num_dispatches,
        "mean_batch_occupancy": report.mean_batch_occupancy,
        "max_batch_occupancy": report.max_batch_occupancy,
        "refilled_jobs": report.refilled_jobs,
        "occupancy_series": list(report.batch_sizes),
        "simulated_makespan": report.makespan,
        "simulated_p95_latency": report.p95_latency,
        "simulated_throughput_rps": report.throughput,
    }


class _StubSession:
    """Session stand-in for the dispatch micro-benchmark.

    The scheduler only reads the edge and cost signals (same duck type
    the scheduler unit tests use); carrying real inference state would
    measure context construction, not candidate lookup.
    """

    def __init__(self, level: int, macs: float):
        self.current_subnet = level
        self._next = level + 1
        self._macs = macs

    def next_subnet(self):
        return self._next

    @property
    def edge(self):
        return self.current_subnet, self._next

    def next_step_macs(self):
        return self._macs

    def pending_recompute_macs(self):
        return 0.0


def bench_dispatch_index(queue_sizes, lookups: int = 200) -> dict:
    """Per-edge index vs linear scan for one batch-candidate fetch.

    Fills a FIFO ready queue with ``n`` jobs spread over 8 subnet edges,
    then times fetching the top ``MAX_BATCH_SIZE`` jobs at one edge --
    through ``jobs_at_edge`` (what the engine dispatch uses) and through
    the brute-force scan-all-jobs-and-sort fallback.  The index cost
    stays flat as the backlog grows; the scan grows linearly, which is
    exactly the per-dispatch cost continuous batching cannot afford at
    every step boundary.
    """
    rows = {}
    num_edges = 8
    for n in queue_sizes:
        scheduler = get_scheduler("fifo")
        rng = np.random.default_rng(0)
        placeholder = np.zeros((1, 1), dtype=DTYPE)  # lookup never reads inputs
        for request_id in range(n):
            request = Request(
                request_id=request_id,
                arrival_time=float(request_id) * 1e-4,
                inputs=placeholder,
            )
            session = _StubSession(
                level=int(rng.integers(0, num_edges)),
                macs=float(rng.uniform(0.5, 4.0)),
            )
            scheduler.add(ServingJob(request=request, session=session))
        edge = (0, 1)

        start = time.perf_counter()
        for _ in range(lookups):
            indexed = scheduler.jobs_at_edge(edge, MAX_BATCH_SIZE)
        indexed_seconds = (time.perf_counter() - start) / lookups

        start = time.perf_counter()
        for _ in range(lookups):
            at_edge = [job for job in scheduler.jobs() if job.edge == edge]
            at_edge.sort(key=scheduler.key)
            scanned = at_edge[:MAX_BATCH_SIZE]
        scan_seconds = (time.perf_counter() - start) / lookups

        assert [job.request.request_id for job in indexed] == [
            job.request.request_id for job in scanned
        ], "per-edge index disagrees with the linear-scan oracle"
        rows[str(n)] = {
            "queued_jobs": n,
            "indexed_lookup_seconds": indexed_seconds,
            "linear_scan_seconds": scan_seconds,
            "index_speedup": scan_seconds / indexed_seconds,
        }
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny configuration for CI smoke runs"
    )
    parser.add_argument("--repeats", type=int, default=None, help="timing repetitions")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="JSON output path")
    args = parser.parse_args()

    if args.smoke:
        num_requests, repeats, queue_sizes = 48, 2, (100, 400)
    else:
        num_requests, repeats, queue_sizes = 240, 12, (250, 1000)
    if args.repeats is not None:
        repeats = args.repeats

    network = build_network()
    images = build_images()
    trace, requests, rate = build_workload(network, images, num_requests)

    results = {
        "config": {
            "model": "tiny-cnn",
            "width_scale": 0.5,
            "num_subnets": NUM_SUBNETS,
            "request_batch_size": 1,
            "dtype": np.dtype(DTYPE).name,
            "num_requests": num_requests,
            "poisson_rate": rate,
            "seconds_for_largest": SECONDS_FOR_LARGEST,
            "utilization": UTILIZATION,
            "overhead_per_step": 5e-4,
            "max_batch_size": MAX_BATCH_SIZE,
            "max_catchup_levels": MAX_CATCHUP_LEVELS,
            "batch_window": BATCH_WINDOW,
            "confidence_threshold": CONFIDENCE_THRESHOLD,
            "frac_loud": FRAC_LOUD,
            "repeats": repeats,
            "smoke": bool(args.smoke),
        },
        "runs": {},
        "speedup_vs_windowed": None,
        "speedup_vs_none": {},
        "bit_equal_to_none": {},
        "dispatch_index": {},
    }

    engines = {
        name: make_engine(network, trace, name)
        for name in ("none", "windowed", "continuous")
    }
    # The acceptance ratio is windowed vs continuous: interleave those
    # two for the full settle budget, and clock the unbatched oracle
    # (context for speedup_vs_none only) in a short separate block so it
    # does not eat half of every timing round.
    reports, walls = time_engines(
        {name: engines[name] for name in ("windowed", "continuous")},
        requests,
        repeats,
    )
    none_reports, none_walls = time_engines(
        {"none": engines["none"]}, requests, max(3, repeats // 3)
    )
    reports.update(none_reports)
    walls.update(none_walls)

    oracle = reports["none"]
    for name in engines:
        row = run_row(reports[name], walls[name], num_requests)
        results["runs"][name] = row
        if name != "none":
            results["speedup_vs_none"][name] = (
                walls["none"] / walls[name]
            )
            # Batching must not change a single answer: every request's
            # final logits bit-equal the unbatched oracle's.
            results["bit_equal_to_none"][name] = all(
                np.array_equal(a.final_logits, b.final_logits)
                for a, b in zip(oracle.jobs, reports[name].jobs)
            )
        print(
            f"{name:>10s}: {row['wall_seconds'] * 1e3:7.1f} ms wall, "
            f"{row['dispatches']:4d} passes, "
            f"occupancy {row['mean_batch_occupancy']:5.2f} "
            f"(max {row['max_batch_occupancy']:2d}), "
            f"refills {row['refilled_jobs']:3d}, "
            f"sim makespan {row['simulated_makespan']:6.3f} s"
        )

    results["speedup_vs_windowed"] = walls["windowed"] / walls["continuous"]
    print(
        f"continuous vs windowed: {results['speedup_vs_windowed']:.2f}x wall "
        f"({'bit-equal' if results['bit_equal_to_none']['continuous'] else 'MISMATCH'})"
    )

    results["dispatch_index"] = bench_dispatch_index(queue_sizes)
    for row in results["dispatch_index"].values():
        print(
            f"dispatch lookup @ {row['queued_jobs']:4d} queued: "
            f"index {row['indexed_lookup_seconds'] * 1e6:6.1f} us, "
            f"scan {row['linear_scan_seconds'] * 1e6:6.1f} us "
            f"({row['index_speedup']:.1f}x)"
        )

    # Written before the checks so a failing run still leaves its numbers.
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")

    assert all(results["bit_equal_to_none"].values()), "batched logits diverged from oracle"
    for row in results["runs"].values():
        assert row["completed"] == num_requests, "requests went missing"
    continuous = results["runs"]["continuous"]
    windowed = results["runs"]["windowed"]
    assert continuous["refilled_jobs"] > 0, "continuous batching never refilled a wave"
    assert (
        continuous["mean_batch_occupancy"] > windowed["mean_batch_occupancy"]
    ), "refills did not raise occupancy over the windowed baseline"
    small, large = (str(n) for n in queue_sizes)
    index_rows = results["dispatch_index"]
    assert (
        index_rows[large]["index_speedup"] > 1.0
    ), "per-edge index no faster than a linear scan"
    # Sub-linear dispatch: a 4x deeper backlog must not cost the index
    # lookup 4x — the scan is the one that scales with the queue.
    assert (
        index_rows[large]["indexed_lookup_seconds"]
        < 2.0 * index_rows[small]["indexed_lookup_seconds"]
    ), "indexed dispatch lookup scaled with the backlog"
    if not args.smoke:
        speedup = results["speedup_vs_windowed"]
        assert speedup >= 1.3, f"continuous vs windowed speedup {speedup:.2f}x < 1.3x"


if __name__ == "__main__":
    main()
