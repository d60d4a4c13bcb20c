"""Chaos tests: fault injection, checkpointed failover and admission.

The headline invariant, inherited from the eviction and batching layers
and now stated under *node failures*: for any seeded fault schedule that
leaves at least one node alive, every request that is not rejected and
not expired completes with logits **bit-identical** to fault-free
serving — failover replays the checkpointed subnet-level history on the
surviving node and charges the recompute MACs honestly, exactly like an
eviction resume.  Faults may only trade latency and MACs for
availability, never answers.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.incremental import IncrementalInference
from repro.runtime.platform import ResourceTrace
from repro.runtime.policies import ConfidencePolicy
from repro.serving import (
    ClusterSpec,
    CrashFault,
    FaultSpec,
    ObservabilitySpec,
    PartitionFault,
    Request,
    RetryPolicy,
    ServingCluster,
    ServingEngine,
    SlowdownFault,
    SteppingBackend,
    TransientFault,
    fault_from_dict,
)
from repro.serving.engine import InterruptedJob
from repro.serving.faults import derate_trace
from repro.utils.errors import ConfigError


def _full_quality():
    """Time-blind refinement to the top subnet (see test_memory)."""
    return ConfidencePolicy(threshold=1.0, respect_deadline=False)


def _constant_trace(network, seconds_for_largest=0.4):
    largest = float(network.subnet_macs(network.num_subnets - 1))
    return ResourceTrace.constant(largest / seconds_for_largest, name="constant")


def _engine(network, **kwargs):
    kwargs.setdefault("enforce_deadline", False)
    return ServingEngine(
        SteppingBackend(network, policy=_full_quality()),
        _constant_trace(network),
        "fifo",
        **kwargs,
    )


def _requests(images, count, gap=0.05, deadline=None):
    return [
        Request(
            request_id=index,
            arrival_time=index * gap,
            inputs=images[index % len(images)][None],
            deadline=None if deadline is None else index * gap + deadline,
        )
        for index in range(count)
    ]


def _oracle_steps(network, job):
    """Solo incremental inference over the job's executed level sequence."""
    oracle = IncrementalInference(network, dtype=np.float32)
    results = [oracle.run(job.request.inputs, subnet=job.steps[0].subnet)]
    for step in job.steps[1:]:
        results.append(oracle.step_to(step.subnet))
    return results


def _assert_jobs_bit_equal_to_oracle(network, jobs):
    for job in jobs:
        if job.status != "completed":
            continue
        reference = _oracle_steps(network, job)
        for step, ref in zip(job.steps, reference):
            assert step.subnet == ref.subnet
            assert np.array_equal(step.logits, ref.logits)
        assert np.array_equal(job.final_logits, reference[-1].logits)


def _baseline_macs(network, jobs):
    """Per-level delta MACs of every executed step: the work without replays."""
    per_level = [float(network.subnet_macs(0))] + [
        float(network.subnet_macs(level)) - float(network.subnet_macs(level - 1))
        for level in range(1, network.num_subnets)
    ]
    return sum(per_level[step.subnet] for job in jobs for step in job.steps)


# ----------------------------------------------------------------------
# FaultSpec serialisation and validation
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_json_round_trip_all_kinds(self):
        spec = FaultSpec(
            events=(
                CrashFault(node="a", time=0.5, recover_time=2.0),
                CrashFault(node="b", time=1.0),
                TransientFault(node="a", time=0.25),
                SlowdownFault(node="b", time=0.0, duration=1.5, factor=0.5),
                PartitionFault(node="a", time=0.75, duration=0.5),
            ),
            retry=RetryPolicy(kind="fixed", base_delay=0.01, max_delay=0.01),
        )
        payload = json.loads(json.dumps(spec.to_dict()))
        assert FaultSpec.from_dict(payload) == spec

    def test_dict_events_converted_in_constructor(self):
        spec = FaultSpec(events=({"kind": "crash", "node": "a", "time": 1.0},))
        assert spec.events == (CrashFault(node="a", time=1.0),)

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind 'meteor'"):
            fault_from_dict({"kind": "meteor", "node": "a", "time": 0.0})

    def test_unknown_fault_key_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown CrashFault keys \['blast'\]"):
            fault_from_dict({"kind": "crash", "node": "a", "time": 0.0, "blast": 1})

    def test_unknown_retry_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown retry policy 'psychic'"):
            RetryPolicy(kind="psychic")

    def test_injector_rejects_unknown_node(self):
        spec = FaultSpec(events=(CrashFault(node="ghost", time=1.0),))
        with pytest.raises(ValueError, match="unknown node 'ghost'"):
            spec.injector(["a", "b"])

    def test_invalid_event_parameters_rejected(self):
        with pytest.raises(ValueError, match="recover_time"):
            CrashFault(node="a", time=2.0, recover_time=1.0)
        with pytest.raises(ValueError, match="factor"):
            SlowdownFault(node="a", time=0.0, duration=1.0, factor=0.0)
        with pytest.raises(ValueError, match="duration"):
            PartitionFault(node="a", time=0.0, duration=-1.0)

    def test_seeded_random_is_deterministic_and_spares_first_node(self):
        names = ["a", "b", "c"]
        kwargs = dict(
            horizon=10.0, seed=7, crash_rate=0.3, transient_rate=0.5,
            slowdown_rate=0.2, partition_rate=0.2,
        )
        first = FaultSpec.random(names, **kwargs)
        second = FaultSpec.random(names, **kwargs)
        assert first == second
        assert first.events  # the rates are high enough to draw something
        assert not any(
            event.node == "a" for event in first.events if event.kind == "crash"
        )


class TestRetryPolicy:
    def test_exponential_backoff_caps(self):
        policy = RetryPolicy(base_delay=0.01, multiplier=2.0, max_delay=0.03)
        assert policy.backoff(0) == pytest.approx(0.01)
        assert policy.backoff(1) == pytest.approx(0.02)
        assert policy.backoff(2) == pytest.approx(0.03)  # capped
        assert policy.backoff(9) == pytest.approx(0.03)

    def test_fixed_and_none_kinds(self):
        assert RetryPolicy(kind="fixed", base_delay=0.02).backoff(5) == 0.02
        disabled = RetryPolicy(kind="none")
        assert disabled.budget == 0
        assert RetryPolicy(max_retries=4).budget == 4


class TestInjectorQueries:
    def test_alive_and_reachable_intervals_are_half_open(self):
        spec = FaultSpec(
            events=(
                CrashFault(node="a", time=1.0, recover_time=2.0),
                PartitionFault(node="a", time=3.0, duration=1.0),
            )
        )
        inj = spec.injector(["a"])
        assert inj.alive("a", 0.999) and not inj.alive("a", 1.0)
        assert not inj.alive("a", 1.999) and inj.alive("a", 2.0)
        # Partition blocks routing but not liveness.
        assert inj.alive("a", 3.5) and not inj.reachable("a", 3.5)
        assert inj.reachable("a", 4.0)
        assert inj.transitions("a") == [(1.0, "crash"), (2.0, "recover")]

    def test_transients_are_one_shot(self):
        inj = FaultSpec(events=(TransientFault(node="a", time=1.0),)).injector(["a"])
        assert not inj.consume_transient("a", 0.5)
        assert inj.consume_transient("a", 1.5)
        assert not inj.consume_transient("a", 2.0)  # already consumed

    def test_next_reachable_skips_blocked_windows(self):
        spec = FaultSpec(
            events=(
                CrashFault(node="a", time=0.0),  # never recovers
                PartitionFault(node="b", time=0.0, duration=2.0),
            )
        )
        inj = spec.injector(["a", "b"])
        assert inj.next_reachable(0.5) == 2.0
        spec_dead = FaultSpec(events=(CrashFault(node="a", time=0.0),))
        assert spec_dead.injector(["a"]).next_reachable(0.5) == np.inf

    def test_derate_trace_multiplies_inside_window(self):
        trace = ResourceTrace.constant(100.0, name="flat")
        derated = derate_trace(trace, [(1.0, 2.0, 0.5)])
        assert derated.throughput_at(0.5) == pytest.approx(100.0)
        assert derated.throughput_at(1.5) == pytest.approx(50.0)
        assert derated.throughput_at(2.0) == pytest.approx(100.0)


# ----------------------------------------------------------------------
# Engine-level faults: transients, retry budget, watchdog
# ----------------------------------------------------------------------
class TestEngineFaults:
    def test_transient_failure_retries_bit_equal(self, stepping_network, sample_pool):
        images, _ = sample_pool
        requests = _requests(images, count=4)
        baseline = _engine(stepping_network).serve(requests)

        faults = FaultSpec(events=(TransientFault(node="n0", time=0.0),))
        engine = _engine(stepping_network, retry_policy=faults.retry)
        run = engine.open_run(fault_injector=faults.injector(["n0"]), node="n0")
        for request in _requests(images, count=4):
            run.push(request)
        report = run.finish()

        assert report.retries == 1
        assert sum(job.retries for job in report.jobs) == 1
        assert len(report.completed_jobs) == 4
        for a, b in zip(baseline.jobs, report.jobs):
            assert np.array_equal(a.final_logits, b.final_logits)
        # The failed attempt burned time but no MACs.
        assert report.total_macs == baseline.total_macs
        assert report.makespan > baseline.makespan

    def test_retry_budget_exhaustion_drops_unstarted_job(
        self, stepping_network, sample_pool
    ):
        images, _ = sample_pool
        faults = FaultSpec(
            events=(TransientFault(node="n0", time=0.0),),
            retry=RetryPolicy(kind="none"),
        )
        engine = _engine(stepping_network, retry_policy=faults.retry)
        run = engine.open_run(fault_injector=faults.injector(["n0"]), node="n0")
        run.push(_requests(images, count=1)[0])
        report = run.finish()
        # Budget 0: the first failure finalises the job; it never
        # executed a step, so there is nothing anytime to return.
        assert report.jobs[0].status == "dropped"
        assert report.jobs[0].retries == 1

    def test_watchdog_finalises_stuck_job_with_partial_result(
        self, stepping_network, sample_pool
    ):
        images, _ = sample_pool
        # Two requests race on one node; the watchdog cuts service at
        # 0.45 s per request — enough for some but not all four levels.
        engine = _engine(stepping_network, max_service_time=0.45)
        report = engine.serve(_requests(images, count=2, gap=0.0))
        flagged = [job for job in report.jobs if job.timed_out]
        assert flagged
        assert report.timed_out == len(flagged)
        for job in flagged:
            assert job.status == "completed"
            assert job.steps  # best-so-far anytime prediction
            assert job.final_subnet < stepping_network.num_subnets - 1
            assert job.stop_reason == "max service time exceeded"
            assert np.array_equal(job.final_logits, job.steps[-1].logits)


class TestRecoverInPlace:
    """A crashed run comes back in place: one run, one report per node."""

    def test_crash_recover_push_finish_keeps_every_record(
        self, stepping_network, sample_pool
    ):
        images, _ = sample_pool
        requests = _requests(images, count=6)
        run = _engine(stepping_network).open_run(node="n0")
        for request in requests[:3]:
            run.push(request)
        run.run_until(0.5)
        work = run.crash(0.5)
        assert work.unstarted and work.interrupted
        assert run.crashed and run.next_event_time() is None
        run.recover(1.0)
        assert not run.crashed and run.now == 1.0
        for request in work.unstarted:
            run.push(request, not_before=1.0)
        for checkpoint in work.interrupted:
            run.push_resumed(checkpoint, resume_at=1.0)
        for request in requests[3:]:
            run.push(request, not_before=1.0)
        report = run.finish()

        assert [job.request.request_id for job in report.jobs] == list(range(6))
        finished_before = [job for job in report.jobs if job.completion_time <= 0.5]
        assert finished_before, "no record from before the crash"
        resumed = {checkpoint.request.request_id for checkpoint in work.interrupted}
        for job in report.jobs:
            if job not in finished_before:
                assert job.steps[-1].start_time >= 1.0
            if job.request.request_id in resumed:
                # Steps served before the crash stay on the record.
                assert job.steps[0].start_time < 1.0
        counters = report.metrics["counters"]
        assert counters["dispatches"] == len(report.batch_sizes)
        assert counters["jobs_finalized"] == len(requests)
        assert len(report.completed_jobs) == len(requests)
        _assert_jobs_bit_equal_to_oracle(stepping_network, report.jobs)

    @pytest.mark.parametrize("bounded", [False, True], ids=["unbounded", "bounded"])
    def test_recovered_run_serves_like_a_fresh_run(
        self, stepping_network, sample_pool, bounded
    ):
        images, _ = sample_pool
        budget = None
        if bounded:
            probe = SteppingBackend(stepping_network, policy=_full_quality())
            budget = 1.5 * probe.context_nbytes(1)
        first, *later = _requests(images, count=5)
        later = [replace(request, arrival_time=1.0 + request.arrival_time) for request in later]

        crashed = _engine(stepping_network, memory_budget_bytes=budget)
        recorder = ObservabilitySpec(enabled=True).build()
        run = crashed.open_run(node="n0", recorder=recorder)
        run.push(first)
        run.run_until(0.25)
        # The crash releases every context, emptying the residency ledger.
        assert run.resident_bytes > 0
        run.crash(0.25)
        assert run.resident_bytes == 0
        mark = len(recorder.events)
        run.recover(1.0)
        for request in later:
            run.push(request)
        report = run.finish()

        fresh_recorder = ObservabilitySpec(enabled=True).build()
        fresh = _engine(stepping_network, memory_budget_bytes=budget).open_run(
            node="n0", recorder=fresh_recorder
        )
        for request in later:
            fresh.push(request)
        baseline = fresh.finish()

        # Only the first request's pre-crash passes precede the fresh run's.
        assert report.batch_sizes[-len(baseline.batch_sizes):] == baseline.batch_sizes
        assert [job.request.request_id for job in report.jobs] == [1, 2, 3, 4]
        for job, reference in zip(report.jobs, baseline.jobs):
            assert len(job.steps) == len(reference.steps)
            for step, ref in zip(job.steps, reference.steps):
                assert np.array_equal(step.logits, ref.logits)
                assert replace(step, logits=None) == replace(ref, logits=None)
            assert np.array_equal(job.final_logits, reference.final_logits)
        # Same events after recovery, wave numbers and residency included.
        strip = lambda events: [{k: v for k, v in e.items() if k != "seq"} for e in events]
        assert strip(recorder.events[mark:]) == strip(fresh_recorder.events)

    def test_recover_needs_a_crash_and_a_crashed_run_takes_no_work(
        self, stepping_network, sample_pool
    ):
        images, _ = sample_pool
        first, second = _requests(images, count=2)
        run = _engine(stepping_network).open_run(node="n0")
        with pytest.raises(RuntimeError, match="not crashed"):
            run.recover(0.0)
        run.push(first)
        run.crash(0.0)
        checkpoint = InterruptedJob(request=second, history=[], steps=[], logits=None, retries=0)
        with pytest.raises(RuntimeError, match="crashed"):
            run.push(second)
        with pytest.raises(RuntimeError, match="crashed"):
            run.push_resumed(checkpoint)
        with pytest.raises(RuntimeError, match="crashed"):
            run.steal(1, 0.0)

    def test_push_resumed_duplicate_id_raises_before_opening_a_session(
        self, stepping_network, sample_pool
    ):
        images, _ = sample_pool
        request = _requests(images, count=1)[0]
        engine = _engine(stepping_network)
        run = engine.open_run(node="n0")
        run.push(request)
        opened = []
        real_open = engine.backend.open
        engine.backend.open = lambda *args, **kwargs: opened.append(args) or real_open(
            *args, **kwargs
        )
        checkpoint = InterruptedJob(request=request, history=[0], steps=[], logits=None, retries=0)
        with pytest.raises(ValueError, match="already pushed"):
            run.push_resumed(checkpoint)
        assert opened == []

    def test_recovered_fleet_node_reports_one_consistent_run(
        self, stepping_network, sample_pool
    ):
        images, _ = sample_pool
        faults = FaultSpec(
            events=(CrashFault(node="n1", time=0.55, recover_time=0.9),),
            retry=RetryPolicy(kind="none"),
        )
        requests = _requests(images, count=14, gap=0.1)
        report = _cluster(stepping_network, faults=faults).serve(requests)
        recovered = report.node_reports[1]
        assert any(job.completion_time < 0.55 for job in recovered.jobs)
        assert any(job.request.arrival_time > 0.9 for job in recovered.jobs)
        for node in report.node_reports:
            ids = [job.request.request_id for job in node.jobs]
            assert ids == sorted(ids)
            counters = node.metrics["counters"]
            assert counters["dispatches"] == len(node.batch_sizes)
            assert counters["jobs_finalized"] == node.num_jobs
        _assert_jobs_bit_equal_to_oracle(stepping_network, report.jobs)


# ----------------------------------------------------------------------
# Cluster-level failover
# ----------------------------------------------------------------------
def _cluster(network, num_nodes=2, faults=None, admission="none", router="round-robin",
             **engine_kwargs):
    engines = [_engine(network, **engine_kwargs) for _ in range(num_nodes)]
    return ServingCluster(
        engines,
        router=router,
        names=[f"n{i}" for i in range(num_nodes)],
        faults=faults,
        admission=admission,
    )


def test_fleets_derate_their_own_engine_copies(stepping_network, sample_pool):
    """A slowdown fault derates the fleet's copies, never the caller's
    engines, so two fleets built over one engine list serve alike."""
    images, _ = sample_pool
    engines = [_engine(stepping_network) for _ in range(2)]
    traces = [engine.trace for engine in engines]
    policies = [engine.retry_policy for engine in engines]
    faults = FaultSpec(
        events=(SlowdownFault(node="n0", time=0.0, duration=10.0, factor=0.5),)
    )
    reports = [
        ServingCluster(engines, names=["n0", "n1"], faults=faults).serve(
            _requests(images, count=6)
        )
        for _ in range(2)
    ]
    assert json.dumps(reports[0].to_dict(), sort_keys=True) == json.dumps(
        reports[1].to_dict(), sort_keys=True
    )
    assert [engine.trace for engine in engines] == traces
    assert all(engine.retry_policy is policy for engine, policy in zip(engines, policies))


def _crash_mid_burst(network, images, **fault_kwargs):
    """A 10-request burst on two nodes, node n1 crashing mid-way through
    its half of it; returns the fault-free baseline and the faulted report."""
    burst = lambda: _requests(images, count=10, gap=0.0)
    baseline = _cluster(network).serve(burst())
    n1_jobs = baseline.node_reports[1].jobs
    crash_at = n1_jobs[len(n1_jobs) // 2].steps[0].finish_time
    faults = FaultSpec(
        events=(CrashFault(node="n1", time=float(crash_at)),), **fault_kwargs
    )
    return baseline, _cluster(network, faults=faults).serve(burst())


class TestClusterFailover:
    def test_crash_migrates_and_fails_over_bit_exact(
        self, stepping_network, sample_pool
    ):
        baseline, report = _crash_mid_burst(stepping_network, sample_pool[0])

        assert report.num_jobs == 10
        assert report.as_dict()["completed"] == 10
        assert report.lost == 0 and report.rejected == 0
        assert report.migrations > 0 and report.failovers > 0
        assert report.retries >= report.failovers
        # Each request has exactly one record fleet-wide.
        ids = sorted(job.request.request_id for job in report.jobs)
        assert ids == list(range(10))
        _assert_jobs_bit_equal_to_oracle(stepping_network, report.jobs)
        # Failover replay is charged honestly and exactly.
        assert report.total_macs_recomputed > 0
        assert report.total_macs - report.total_macs_recomputed == pytest.approx(
            baseline.total_macs
        )

    def test_fleet_macs_count_best_effort_records(self, stepping_network, sample_pool):
        """Without retries, crashed in-flight jobs are finalised by the
        coordinator with their best-so-far steps — those steps' MACs
        still belong to the fleet totals."""
        _, report = _crash_mid_burst(
            stepping_network, sample_pool[0], retry=RetryPolicy(kind="none")
        )

        assert any(job.steps for job in report.extra_jobs)
        assert report.total_macs == sum(
            step.macs_charged for job in report.jobs for step in job.steps
        )
        assert report.total_macs - report.total_macs_recomputed == pytest.approx(
            _baseline_macs(stepping_network, report.jobs)
        )

    def test_crash_with_no_survivor_returns_best_effort(
        self, stepping_network, sample_pool
    ):
        images, _ = sample_pool
        baseline = _cluster(stepping_network, num_nodes=1).serve(
            _requests(images, count=3, gap=0.0)
        )
        crash_at = baseline.node_reports[0].jobs[0].steps[1].finish_time
        faults = FaultSpec(events=(CrashFault(node="n0", time=float(crash_at)),))
        report = _cluster(stepping_network, num_nodes=1, faults=faults).serve(
            _requests(images, count=3, gap=0.0)
        )
        assert report.num_jobs == 3
        jobs = {job.request.request_id: job for job in report.jobs}
        # The in-flight job keeps its best-so-far anytime prediction.
        started = jobs[0]
        assert started.status == "completed"
        assert 0 < len(started.steps) < stepping_network.num_subnets
        assert np.array_equal(started.final_logits, started.steps[-1].logits)
        # Queued-but-unstarted requests are lost: no node ever comes back.
        assert report.lost == 2
        assert all(jobs[i].status == "lost" for i in (1, 2))
        _assert_jobs_bit_equal_to_oracle(stepping_network, report.jobs)

    def test_recovered_node_serves_again(self, stepping_network, sample_pool):
        images, _ = sample_pool
        faults = FaultSpec(
            events=(CrashFault(node="n1", time=0.01, recover_time=0.4),)
        )
        requests = _requests(images, count=8, gap=0.2)  # last arrives at 1.4 s
        report = _cluster(stepping_network, faults=faults).serve(requests)
        assert report.as_dict()["completed"] == 8
        # Arrivals after 0.4 s round-robin back onto the recovered node;
        # its run recovered in place, so its report holds them too.
        assert any(
            job.request.arrival_time > 0.4 for job in report.node_reports[1].jobs
        )
        _assert_jobs_bit_equal_to_oracle(stepping_network, report.jobs)

    def test_partitioned_node_receives_no_new_work(
        self, stepping_network, sample_pool
    ):
        images, _ = sample_pool
        faults = FaultSpec(events=(PartitionFault(node="n1", time=0.0, duration=1.0),))
        requests = _requests(images, count=6, gap=0.1)  # all inside the window
        report = _cluster(stepping_network, faults=faults).serve(requests)
        assert report.as_dict()["completed"] == 6
        assert report.node_reports[1].num_jobs == 0
        assert report.node_reports[0].num_jobs == 6

    def test_all_nodes_partitioned_holds_arrivals_until_heal(
        self, stepping_network, sample_pool
    ):
        images, _ = sample_pool
        faults = FaultSpec(
            events=(
                PartitionFault(node="n0", time=0.0, duration=0.5),
                PartitionFault(node="n1", time=0.0, duration=0.5),
            )
        )
        report = _cluster(stepping_network, faults=faults).serve(
            _requests(images, count=4, gap=0.0)
        )
        assert report.as_dict()["completed"] == 4
        assert report.lost == 0
        # Nothing could start before the partitions healed.
        starts = [job.steps[0].start_time for job in report.jobs]
        assert min(starts) >= 0.5

    def test_fault_tolerant_serve_is_deterministic(
        self, stepping_network, sample_pool
    ):
        images, _ = sample_pool
        faults = FaultSpec.random(
            ["n0", "n1"], horizon=1.0, seed=3,
            crash_rate=1.0, transient_rate=2.0, partition_rate=1.0,
        )
        first = _cluster(stepping_network, faults=faults).serve(
            _requests(images, count=8)
        )
        second = _cluster(stepping_network, faults=faults).serve(
            _requests(images, count=8)
        )
        # NaN-tolerant structural equality (NaN != NaN under ==).
        assert json.dumps(first.as_dict(), sort_keys=True) == json.dumps(
            second.as_dict(), sort_keys=True
        )


# ----------------------------------------------------------------------
# Retry scheduling respects hard deadlines
# ----------------------------------------------------------------------
class TestRetryDeadlineClamp:
    """A retry may never be scheduled at or past its request's deadline.

    Under deadline enforcement a retry event firing past the deadline
    could only discover the job dead at dispatch — so the coordinator
    clamps ``not_before`` to the deadline and finalises the best-so-far
    anytime answer immediately, both when the failover backoff
    overshoots and when the reachability horizon does.
    """

    def _deadlined(self, images, deadline):
        return [
            Request(
                request_id=0, arrival_time=0.0, inputs=images[0][None],
                deadline=deadline,
            )
        ]

    def test_backoff_overshoot_finalises_immediately(
        self, stepping_network, sample_pool
    ):
        images, _ = sample_pool
        # The in-flight job checkpoints at the crash; the 0.5 s backoff
        # would land the retry past the 0.3 s deadline, so the job is
        # finalised with its best-so-far step instead of waiting.
        faults = FaultSpec(
            events=(CrashFault(node="n0", time=0.15),),
            retry=RetryPolicy(kind="fixed", base_delay=0.5, max_delay=0.5),
        )
        recorder = ObservabilitySpec(enabled=True).build()
        try:
            report = _cluster(
                stepping_network, faults=faults, enforce_deadline=True
            ).serve(self._deadlined(images, 0.3), recorder=recorder)
        finally:
            recorder.close()
        job = report.jobs[0]
        assert job.status == "completed"
        assert job.stop_reason == "deadline reached during failover backoff"
        assert job.steps  # best-so-far anytime answer, not a drop
        finalizes = [e for e in recorder.events if e["type"] == "finalize"]
        assert finalizes and all(float(e["time"]) < 0.3 for e in finalizes)
        _assert_jobs_bit_equal_to_oracle(stepping_network, report.jobs)

    def test_reachability_horizon_past_deadline_finalises_immediately(
        self, stepping_network, sample_pool
    ):
        images, _ = sample_pool
        # The crash survivor is partitioned until long past the
        # deadline: the retry heap must not park the checkpoint on the
        # heal horizon.
        faults = FaultSpec(
            events=(
                CrashFault(node="n0", time=0.15),
                PartitionFault(node="n1", time=0.0, duration=1.0),
            ),
            retry=RetryPolicy(kind="fixed", base_delay=0.01, max_delay=0.01),
        )
        report = _cluster(
            stepping_network, faults=faults, enforce_deadline=True
        ).serve(self._deadlined(images, 0.3))
        job = report.jobs[0]
        assert job.status == "completed"
        assert job.stop_reason == "deadline reached before any node is reachable"
        assert job.steps

    def test_without_enforcement_the_retry_still_waits(
        self, stepping_network, sample_pool
    ):
        # The clamp is an enforcement feature: best-effort fleets keep
        # retrying past soft deadlines exactly as before.
        images, _ = sample_pool
        faults = FaultSpec(
            events=(CrashFault(node="n0", time=0.15),),
            retry=RetryPolicy(kind="fixed", base_delay=0.5, max_delay=0.5),
        )
        report = _cluster(stepping_network, faults=faults).serve(
            self._deadlined(images, 0.3)
        )
        job = report.jobs[0]
        assert job.status == "completed"
        assert job.retries > 0
        assert job.final_subnet == stepping_network.num_subnets - 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chaos_never_fires_a_retry_past_the_deadline(
        self, stepping_network, sample_pool, seed
    ):
        images, _ = sample_pool
        faults = FaultSpec.random(
            ["n0", "n1", "n2"], horizon=1.5, seed=seed,
            crash_rate=1.2, recover_fraction=0.3, partition_rate=1.0,
            retry=RetryPolicy(base_delay=0.1, max_delay=0.4, max_retries=5),
        )
        requests = _requests(images, count=12, gap=0.04, deadline=0.5)
        engines = [
            _engine(stepping_network, enforce_deadline=True) for _ in range(3)
        ]
        cluster = ServingCluster(
            engines, names=["n0", "n1", "n2"], faults=faults
        )
        recorder = ObservabilitySpec(enabled=True).build()
        try:
            report = cluster.serve(requests, recorder=recorder)
        finally:
            recorder.close()
        deadlines = {r.request_id: r.deadline for r in requests}
        # The retry heap never parks a checkpoint past its request's
        # hard deadline: whenever the backoff or the reachability
        # horizon would overshoot, the coordinator finalises on the
        # spot.  Observable two ways: a horizon clamp fires at a retry
        # dispatch, which is itself always scheduled before the
        # deadline; and any clamp finalize is *terminal* — no failover
        # resume for that request ever follows it.
        clamped = [
            e for e in recorder.events
            if e["type"] == "finalize" and "deadline reached" in str(e.get("reason"))
        ]
        for event in clamped:
            if "reachable" in event["reason"]:
                assert float(event["time"]) < deadlines[event["request_id"]]
        for event in clamped:
            later = [
                e for e in recorder.events
                if e.get("request_id") == event["request_id"]
                and e["type"] in ("failover", "arrive", "admit")
                and float(e["time"]) >= float(event["time"])
            ]
            assert later == []
        # One record per request survives the chaos, as ever.
        ids = sorted(job.request.request_id for job in report.jobs)
        assert ids == list(range(12))
        _assert_jobs_bit_equal_to_oracle(stepping_network, report.jobs)


# ----------------------------------------------------------------------
# Admission control: degrade before reject
# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_tight_deadline_degrades_target_subnet(
        self, stepping_network, sample_pool
    ):
        images, _ = sample_pool
        # Full quality takes 0.4 s; a 0.15 s deadline only fits the
        # small subnets, so admission caps instead of rejecting.
        requests = _requests(images, count=3, gap=1.0, deadline=0.15)
        report = _cluster(
            stepping_network, num_nodes=1, admission="degrade",
            enforce_deadline=True,
        ).serve(requests)
        assert report.degraded_admissions == 3
        assert report.rejected == 0
        assert report.as_dict()["completed"] == 3
        for job in report.jobs:
            assert job.final_subnet < stepping_network.num_subnets - 1
            assert "admission-capped" in job.stop_reason

    def test_infeasible_deadline_rejects_with_record(
        self, stepping_network, sample_pool
    ):
        images, _ = sample_pool
        requests = _requests(images, count=2, gap=1.0, deadline=1e-9)
        report = _cluster(
            stepping_network, num_nodes=1, admission="degrade",
            enforce_deadline=True,
        ).serve(requests)
        assert report.rejected == 2
        assert report.num_jobs == 2  # rejected arrivals still get records
        assert all(job.status == "rejected" for job in report.jobs)
        assert all("admission control" in job.stop_reason for job in report.jobs)

    def test_memory_pressure_caps_to_minimum_subnet(
        self, stepping_network, sample_pool
    ):
        images, _ = sample_pool
        context = IncrementalInference(
            stepping_network, dtype=np.float32
        ).plan.state_nbytes(1)
        # Budget holds one context: a second simultaneous arrival would
        # thrash, so admission caps it to the mandatory level instead.
        report = _cluster(
            stepping_network, num_nodes=1, admission="degrade",
            memory_budget_bytes=int(context * 1.5),
        ).serve(_requests(images, count=2, gap=0.0))
        assert report.degraded_admissions == 1
        capped = [
            job for job in report.jobs
            if job.request.max_subnet == 0 and job.status == "completed"
        ]
        assert len(capped) == 1
        assert capped[0].final_subnet == 0
        _assert_jobs_bit_equal_to_oracle(stepping_network, report.jobs)


# ----------------------------------------------------------------------
# ClusterSpec integration
# ----------------------------------------------------------------------
class TestClusterSpecFaults:
    BASE = {
        "name": "chaos",
        "model": {"name": "tiny-cnn", "num_subnets": 4},
        "nodes": [{"name": "a", "platform": "mobile-soc"}],
    }

    def test_round_trip_with_faults_admission_and_count(self):
        data = dict(
            self.BASE,
            nodes=[{"name": "a", "platform": "mobile-soc", "count": 3}],
            admission="degrade",
            faults={
                "events": [
                    {"kind": "crash", "node": "a#1", "time": 0.5, "recover_time": 1.0}
                ],
                "retry": {"kind": "fixed", "base_delay": 0.01, "max_delay": 0.01},
            },
        )
        spec = ClusterSpec.from_dict(data)
        assert [node.node_name for node in spec.nodes] == ["a#0", "a#1", "a#2"]
        assert spec.admission == "degrade"
        assert spec.faults.retry.kind == "fixed"
        round_tripped = ClusterSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert round_tripped == spec

    def test_admission_name_is_case_insensitive_end_to_end(
        self, stepping_network, sample_pool
    ):
        images, _ = sample_pool
        spec = ClusterSpec.from_dict(dict(self.BASE, admission="Degrade"))
        cluster = ServingCluster.from_spec(spec, stepping_network)
        assert cluster.admission == "degrade"
        # A deadline between the smallest and the largest subnet's
        # service time fits only part of the ladder: degraded, not rejected.
        trace = cluster.engines[0].trace
        smallest, largest = (
            trace.time_to_execute(float(stepping_network.subnet_macs(level)), 0.0)
            for level in (0, stepping_network.num_subnets - 1)
        )
        requests = _requests(images, count=3, gap=1.0, deadline=(smallest + largest) / 2)
        report = cluster.serve(requests)
        assert report.degraded_admissions == 3
        assert report.rejected == 0

    def test_non_positive_node_count_rejected(self):
        data = dict(self.BASE, nodes=[{"platform": "mobile-soc", "count": 0}])
        with pytest.raises(ValueError, match="'count' must be a positive integer"):
            ClusterSpec.from_dict(data)
        data = dict(self.BASE, nodes=[{"platform": "mobile-soc", "count": True}])
        with pytest.raises(ValueError, match="'count' must be a positive integer"):
            ClusterSpec.from_dict(data)

    def test_unknown_registry_names_raise_value_error_with_choices(self):
        cases = [
            (dict(self.BASE, nodes=[{"platform": "mobile-soc", "scheduler": "sjf"}]),
             "unknown scheduler 'sjf'"),
            (dict(self.BASE, nodes=[{"platform": "mobile-soc",
                                     "eviction_policy": "random"}]),
             "unknown eviction policy 'random'"),
            (dict(self.BASE, router="quantum"), "unknown router 'quantum'"),
            (dict(self.BASE, admission="strict"), "unknown admission policy 'strict'"),
            (dict(self.BASE, faults={"retry": {"kind": "psychic"}}),
             "unknown retry policy 'psychic'"),
            (dict(self.BASE, faults={"events": [{"kind": "meteor", "node": "a",
                                                 "time": 0.0}]}),
             "unknown fault kind 'meteor'"),
        ]
        for data, message in cases:
            with pytest.raises(ValueError, match=message):
                ClusterSpec.from_dict(data)
            # Registry misses stay catchable as KeyError too (the
            # historical contract of the get_* helpers).
            with pytest.raises(KeyError):
                ClusterSpec.from_dict(data)

    def test_config_error_is_both_value_and_key_error(self):
        with pytest.raises(ConfigError) as excinfo:
            ClusterSpec.from_dict(dict(self.BASE, router="quantum"))
        assert isinstance(excinfo.value, ValueError)
        assert isinstance(excinfo.value, KeyError)
        # KeyError's repr-quoting is suppressed: the message stays plain.
        assert str(excinfo.value).startswith("unknown router")


# ----------------------------------------------------------------------
# Chaos fuzz: seeded fault schedules x serving modes
# ----------------------------------------------------------------------
def _chaos_cluster(network, mode, faults):
    """A 3-node fleet in the given serving mode under the chaos schedule.

    ``batched`` exercises crashes that land mid-shared-pass, ``continuous``
    crashes during refill catch-up, and ``memory`` makes eviction race
    failover (the budget fits ~2 contexts).
    """

    def engine():
        if mode == "batched":
            return ServingEngine(
                SteppingBackend(network, policy=_full_quality()),
                _constant_trace(network),
                "batch-aware",
                batch_policy="same-level",
                enforce_deadline=False,
            )
        if mode == "continuous":
            return ServingEngine(
                SteppingBackend(network, policy=_full_quality()),
                _constant_trace(network),
                "batch-aware",
                batch_policy="continuous",
                enforce_deadline=False,
            )
        assert mode == "memory"
        context = IncrementalInference(network, dtype=np.float32).plan.state_nbytes(1)
        return ServingEngine(
            SteppingBackend(network, policy=_full_quality()),
            _constant_trace(network),
            "edf",
            memory_budget_bytes=int(context * 2.5),
            eviction_policy="lru",
            enforce_deadline=False,
        )

    return ServingCluster(
        [engine() for _ in range(3)],
        names=["n0", "n1", "n2"],
        faults=faults,
    )


class TestChaosFuzz:
    @pytest.mark.parametrize("mode", ["batched", "continuous", "memory"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_completed_requests_bit_equal_under_chaos(
        self, stepping_network, sample_pool, mode, seed
    ):
        images, _ = sample_pool
        faults = FaultSpec.random(
            ["n0", "n1", "n2"],
            horizon=1.5,
            seed=seed,
            crash_rate=1.2,
            recover_fraction=0.5,
            transient_rate=1.5,
            slowdown_rate=0.5,
            partition_rate=0.8,
            retry=RetryPolicy(base_delay=0.005, max_delay=0.02, max_retries=5),
        )
        requests = _requests(images, count=18, gap=0.04)
        report = _chaos_cluster(stepping_network, mode, faults).serve(requests)

        # Exactly one record per request, fleet-wide.
        ids = sorted(job.request.request_id for job in report.jobs)
        assert ids == list(range(18))
        # spare_first leaves n0 alive throughout, and partitions always
        # heal: nothing may be lost outright.
        assert report.lost == 0
        # Every completed request — including best-effort failover
        # finalisations — is bit-identical to solo incremental inference
        # over its executed level sequence, at every step.
        _assert_jobs_bit_equal_to_oracle(stepping_network, report.jobs)
        # Two serves of the same schedule agree exactly.
        again = _chaos_cluster(stepping_network, mode, faults).serve(
            _requests(images, count=18, gap=0.04)
        )
        assert json.dumps(report.as_dict(), sort_keys=True) == json.dumps(
            again.as_dict(), sort_keys=True
        )

    def test_chaos_macs_charged_exactly(self, stepping_network, sample_pool):
        """Fault-run MACs decompose as useful work + honest recompute."""
        images, _ = sample_pool
        faults = FaultSpec.random(
            ["n0", "n1", "n2"], horizon=1.5, seed=2,
            crash_rate=1.0, recover_fraction=0.5,
            retry=RetryPolicy(max_retries=5),
        )
        requests = _requests(images, count=18, gap=0.04)
        report = _chaos_cluster(stepping_network, "memory", faults).serve(requests)
        assert report.total_macs - report.total_macs_recomputed == pytest.approx(
            _baseline_macs(stepping_network, report.jobs)
        )
