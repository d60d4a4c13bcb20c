"""The continuation-verdict memo is exact.

``ServingRun._stop_reason`` memoises each verdict on its job
(``ServingJob.stop_memo``) under a key holding everything the verdict
reads that can change while the job waits at one level.  The oracle here
wraps the method: every call is answered as the run asks it (memo and
all), then again with the memo cleared, and the two answers must agree.
It runs on three setups that move every part of the key — the clock,
the scheduler depth and the next step's MACs (which an eviction grows by
the replay surcharge) — and checks each setup actually hit the memo.
Two directed cases pin the clock and the MACs parts on their own: a job
re-priced after a tighter request ran ahead of it, and — since an engine
evicts only after a dispatch has moved its clock — an eviction made by
hand between two asks at one clock.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.common import set_prefix_assignments
from repro.core import SteppingNetwork
from repro.runtime.platform import ResourceTrace
from repro.runtime.policies import ConfidencePolicy, GreedyPolicy, LoadAdaptivePolicy
from repro.serving import (
    ClusterSpec,
    ContinuousBatching,
    Request,
    ServingEngine,
    SteppingBackend,
    poisson_stream,
    serve,
)
from repro.serving.engine import ServingRun

CHAOS_CONFIG = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "configs" / "cluster_faults.json"
)
#: Verdicts returned before the policy is consulted (never memoised).
_UNPRICED = {"largest subnet reached", "admission-capped subnet reached", "deadline reached"}


@pytest.fixture
def oracle(monkeypatch):
    """Check every verdict against a memo-free recomputation; count memo hits."""
    counts = {"calls": 0, "hits": 0}
    original = ServingRun._stop_reason

    def checked(run, job):
        memo = job.stop_memo
        reason = original(run, job)
        if memo is not None and job.stop_memo is memo and reason not in _UNPRICED:
            counts["hits"] += 1
        job.stop_memo = None
        fresh = original(run, job)
        assert reason == fresh, (
            f"request {job.request.request_id} at level {job.current_subnet}, "
            f"t={run.now!r}: memoised verdict {reason!r} != fresh {fresh!r}"
        )
        counts["calls"] += 1
        return reason

    monkeypatch.setattr(ServingRun, "_stop_reason", checked)
    return counts


@pytest.fixture
def ladder(tiny_spec):
    """An 8-level ladder: many short steps, as on an early-exit deployment."""
    network = SteppingNetwork(tiny_spec.expand(1.5), num_subnets=8, rng=np.random.default_rng(0))
    set_prefix_assignments(network, [0.125 * (level + 1) for level in range(8)])
    network.eval()
    return network


def _images(count, seed=0, quiet=0.5):
    """Inputs whose confidence spans the threshold: some exit early, some climb."""
    rng = np.random.default_rng(seed)
    images = rng.standard_normal((count, 3, 12, 12))
    images[: int(count * quiet)] *= 1e-3
    return images.astype(np.float32)


def _trace(network, seconds_for_largest):
    largest = float(network.subnet_macs(network.num_subnets - 1))
    return ResourceTrace.constant(largest / seconds_for_largest, name="calibrated")


def test_continuous_deadline_confidence_engine(ladder, oracle):
    """The serve-continuous shape: EDF, continuous batching, deadline-respecting confidence."""
    backend = SteppingBackend(ladder, policy=ConfidencePolicy(0.5, respect_deadline=True))
    engine = ServingEngine(
        backend,
        _trace(ladder, 0.02),
        "edf",
        batch_policy=ContinuousBatching(8, 3),
        overhead_per_step=5e-4,
    )
    requests = poisson_stream(
        _images(32), rate=250.0, num_requests=160, relative_deadline=0.03, seed=1
    )
    report = engine.serve(requests)
    assert report.refilled_jobs > 0 and report.max_batch_occupancy > 1
    assert len({job.final_subnet for job in report.jobs}) > 2
    assert oracle["hits"] > 0


def test_memory_bounded_lru_load_adaptive_engine(ladder, oracle):
    """Evictions grow a waiting job's next-step MACs; queue depth moves the verdict."""
    backend = SteppingBackend(ladder, policy=LoadAdaptivePolicy(max_queue_depth=2))
    engine = ServingEngine(
        backend,
        _trace(ladder, 0.02),
        "edf",
        memory_budget_bytes=int(1.1 * backend.context_nbytes(1)),
        eviction_policy="lru",
        overhead_per_step=2e-4,
    )
    # Random relative deadlines make EDF preempt started jobs, whose
    # suspended contexts the budget then evicts.
    rng = np.random.default_rng(3)
    images = _images(32, seed=2, quiet=0.0)
    arrivals = np.cumsum(rng.exponential(0.012, size=120))
    deadlines = arrivals + rng.uniform(0.002, 0.1, size=120)
    requests = [
        Request(index, float(t), images[index % 32][None], deadline=float(d))
        for index, (t, d) in enumerate(zip(arrivals, deadlines))
    ]
    report = engine.serve(requests)
    assert report.cache_evictions > 0 and report.total_macs_recomputed > 0
    reasons = {job.stop_reason for job in report.jobs}
    assert any(reason.startswith("yielding") for reason in reasons)
    assert "next step would miss the deadline" in reasons
    assert oracle["hits"] > 0


def test_waiting_job_is_repriced_at_a_later_clock(ladder, oracle):
    """A job preempted by a tighter request sees the clock move, not the depth."""
    backend = SteppingBackend(ladder, policy=GreedyPolicy())
    trace = _trace(ladder, 0.02)
    entry, step = backend.step_cost(-1, 0), backend.step_cost(0, 1)
    first = trace.time_to_execute(entry, 0.0)
    # A's next step fits when asked at ``first`` but not once B's entry ran.
    deadline = trace.time_to_execute(step + entry / 2, first)
    run = ServingEngine(backend, trace, "edf").open_run()
    run.push(Request(0, 0.0, _images(1), deadline=deadline))
    run.run_until(0.0)
    assert run._stop_reason(run.scheduler.get(0)) is None
    run.push(Request(1, first, _images(1), deadline=deadline - 1e-6, max_subnet=0))
    report = run.finish()
    late = report.jobs[0]
    assert [step.subnet for step in late.steps] == [0]
    assert late.stop_reason == "next step would miss the deadline"
    assert oracle["hits"] == 1


def test_eviction_between_two_asks_at_one_clock(ladder, oracle):
    """The replay surcharge re-prices a verdict even at an unchanged clock and depth."""
    backend = SteppingBackend(ladder, policy=GreedyPolicy())
    trace = _trace(ladder, 0.02)
    first = trace.time_to_execute(backend.step_cost(-1, 0), 0.0)
    warm = trace.time_to_execute(backend.step_cost(0, 1), first)
    cold = trace.time_to_execute(backend.step_cost(0, 1) + backend.recompute_macs(0), first)
    run = ServingEngine(backend, trace, "fifo").open_run()
    run.push(Request(0, 0.0, _images(1), deadline=(warm + cold) / 2))
    run.run_until(0.0)  # the first step; the job waits at level 0, its verdict memoised
    job = run.scheduler.get(0)
    assert job.current_subnet == 0 and run.now == first and job.stop_memo is not None
    assert run._stop_reason(job) is None
    job.session.drop_state()  # what a memory budget's tier-2 eviction does
    assert run._stop_reason(job) == "next step would miss the deadline"
    assert oracle["hits"] == 1


@pytest.mark.parametrize("policy", ["full-quality", "load-adaptive", "deadline-aware"])
def test_chaos_fleet(policy, oracle):
    """The chaos fleet config, loaded harder and stealing: crash failover, steal, transient."""
    config = json.loads(CHAOS_CONFIG.read_text())
    for node in config["nodes"]:
        node["policy"] = policy
    for event in config["faults"]["events"]:
        if event["kind"] == "crash":
            event["time"] = 0.006  # while the node holds in-flight work
    config["streams"][0]["params"]["rate"] = 6000.0
    config["streams"][1]["params"]["burst_size"] = 24
    config["rebalance"] = {"enabled": True, "interval": 0.001, "steal_in_flight": True}
    report = serve(None, ClusterSpec.from_dict(config))
    assert report.failovers > 0 and report.steals > 0 and report.retries > report.failovers
    assert oracle["calls"] > 0 and oracle["hits"] > 0
