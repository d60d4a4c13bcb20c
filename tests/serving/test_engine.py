"""Tests for the event-driven serving engine."""

import math

import numpy as np
import pytest

from repro.core import SteppingNetwork
from repro.runtime.platform import ResourceTrace
from repro.runtime.policies import ConfidencePolicy, GreedyPolicy, LoadAdaptivePolicy
from repro.serving import (
    RecomputeBackend,
    Request,
    ServingEngine,
    SteppingBackend,
    periodic_stream,
    poisson_stream,
)
from repro.serving.observe import ObservabilitySpec
from repro.utils.errors import ConfigError


@pytest.fixture
def fast_trace():
    return ResourceTrace.constant(1e12, name="fast")


def _calibrated_trace(network, seconds_for_largest=0.5):
    largest = float(network.subnet_macs(network.num_subnets - 1))
    return ResourceTrace.constant(largest / seconds_for_largest, name="calibrated")


def test_latencies_returns_isolated_copy(stepping_network, sample_pool, fast_trace):
    """Mutating a latencies() result must not corrupt the memoised metrics."""
    images, _ = sample_pool
    requests = [
        Request(request_id=i, arrival_time=float(i), inputs=images[:1]) for i in range(4)
    ]
    report = ServingEngine(SteppingBackend(stepping_network), fast_trace).serve(requests)
    before = report.p95_latency
    values = report.latencies()
    values *= 1000.0  # e.g. a caller converting to milliseconds in place
    assert report.p95_latency == before


class TestServeBasics:
    def test_all_requests_finalised(self, stepping_network, sample_pool, fast_trace):
        images, labels = sample_pool
        requests = poisson_stream(images, labels, rate=5.0, num_requests=20, batch_size=2, seed=0)
        report = ServingEngine(SteppingBackend(stepping_network), fast_trace).serve(requests)
        assert report.num_jobs == 20
        assert len(report.completed_jobs) == 20
        assert all(job.final_subnet == stepping_network.num_subnets - 1 for job in report.jobs)

    def test_report_identity_fields(self, stepping_network, sample_pool, fast_trace):
        images, labels = sample_pool
        requests = poisson_stream(images, labels, rate=5.0, num_requests=4, seed=0)
        report = ServingEngine(SteppingBackend(stepping_network), fast_trace, "edf").serve(requests)
        assert report.backend_name == "steppingnet"
        assert report.scheduler_name == "edf"
        assert report.trace_name == "fast"

    def test_jobs_sorted_by_request_id(self, stepping_network, sample_pool, fast_trace):
        images, labels = sample_pool
        requests = poisson_stream(images, labels, rate=5.0, num_requests=10, seed=0)
        report = ServingEngine(SteppingBackend(stepping_network), fast_trace).serve(requests)
        ids = [job.request.request_id for job in report.jobs]
        assert ids == sorted(ids)

    def test_empty_stream(self, stepping_network, fast_trace):
        report = ServingEngine(SteppingBackend(stepping_network), fast_trace).serve([])
        assert report.num_jobs == 0
        assert report.throughput == 0.0
        assert math.isnan(report.p95_latency)

    def test_as_dict_keys(self, stepping_network, sample_pool, fast_trace):
        images, labels = sample_pool
        requests = poisson_stream(images, labels, rate=5.0, num_requests=5, seed=0)
        payload = ServingEngine(SteppingBackend(stepping_network), fast_trace).serve(requests).as_dict()
        assert {
            "throughput_rps",
            "p50_latency",
            "p95_latency",
            "p99_latency",
            "deadline_miss_rate",
            "total_macs",
        } <= set(payload)

    def test_invalid_overhead_rejected(self, stepping_network, fast_trace):
        with pytest.raises(ValueError):
            ServingEngine(SteppingBackend(stepping_network), fast_trace, overhead_per_step=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("option", ["overhead_per_step", "max_service_time"])
    def test_timing_option_must_be_finite_and_in_range(
        self, stepping_network, fast_trace, option, value
    ):
        with pytest.raises(ConfigError, match=option):
            ServingEngine(SteppingBackend(stepping_network), fast_trace, **{option: value})

    def test_unknown_batch_policy_is_a_config_error(self, stepping_network, fast_trace):
        with pytest.raises(ConfigError, match="batch policy"):
            ServingEngine(SteppingBackend(stepping_network), fast_trace, batch_policy="typo")

    def test_duplicate_request_ids_rejected(self, stepping_network, fast_trace):
        inputs = np.zeros((1, 3, 12, 12))
        duplicates = [
            Request(request_id=7, arrival_time=0.0, inputs=inputs),
            Request(request_id=7, arrival_time=0.1, inputs=inputs),
        ]
        with pytest.raises(ValueError, match="request_id"):
            ServingEngine(SteppingBackend(stepping_network), fast_trace).serve(duplicates)


class TestQueueingBehaviour:
    def test_waiting_requests_queue(self, stepping_network, sample_pool):
        """Simultaneous arrivals share one accelerator: later jobs wait."""
        images, labels = sample_pool
        trace = _calibrated_trace(stepping_network)
        requests = periodic_stream(images, labels, period=1e-6, num_requests=5, batch_size=2)
        report = ServingEngine(SteppingBackend(stepping_network), trace, "fifo").serve(requests)
        delays = [job.queueing_delay for job in report.jobs]
        assert max(delays) > 0.0

    def test_makespan_and_throughput_consistent(self, stepping_network, sample_pool):
        images, labels = sample_pool
        trace = _calibrated_trace(stepping_network)
        requests = periodic_stream(images, labels, period=0.7, num_requests=6, batch_size=2)
        report = ServingEngine(SteppingBackend(stepping_network), trace).serve(requests)
        assert report.throughput == pytest.approx(
            len(report.completed_jobs) / report.makespan
        )

    def test_stepping_beats_recompute_at_deadline(self, stepping_network, sample_pool):
        images, labels = sample_pool
        trace = _calibrated_trace(stepping_network)
        requests = poisson_stream(
            images, labels, rate=1.2, num_requests=30, relative_deadline=0.8, batch_size=2, seed=0
        )
        stepping = ServingEngine(SteppingBackend(stepping_network), trace).serve(requests)
        recompute = ServingEngine(RecomputeBackend(stepping_network), trace).serve(requests)
        assert stepping.mean_subnet_at_deadline > recompute.mean_subnet_at_deadline
        assert stepping.total_macs < recompute.total_macs
        assert stepping.total_macs_reused > 0.0
        assert recompute.total_macs_reused == 0.0


class TestPreemption:
    def test_edf_preempts_in_flight_job(self, stepping_network):
        """An urgent arrival takes the accelerator at the next step
        boundary, before the running job's remaining levels."""
        inputs = np.zeros((2, 3, 12, 12))
        trace = _calibrated_trace(stepping_network, seconds_for_largest=1.0)
        relaxed = Request(request_id=0, arrival_time=0.0, inputs=inputs, deadline=50.0)
        urgent = Request(request_id=1, arrival_time=0.05, inputs=inputs, deadline=1.2)
        report = ServingEngine(
            SteppingBackend(stepping_network, policy=GreedyPolicy()), trace, "edf"
        ).serve([relaxed, urgent])
        relaxed_job, urgent_job = report.jobs

        # The relaxed job started first (it was alone), but the urgent job
        # finished its work before the relaxed job's last step.
        assert relaxed_job.steps[0].start_time < urgent_job.steps[0].start_time
        assert urgent_job.completion_time < relaxed_job.completion_time
        # True preemption: the relaxed job has steps both before and after
        # the urgent job's execution window.
        before = [s for s in relaxed_job.steps if s.finish_time <= urgent_job.steps[0].start_time + 1e-9]
        after = [s for s in relaxed_job.steps if s.start_time >= urgent_job.completion_time - 1e-9]
        assert before and after

    def test_preempted_job_keeps_reuse(self, stepping_network):
        """Resuming after preemption still only pays delta MACs."""
        inputs = np.zeros((2, 3, 12, 12))
        trace = _calibrated_trace(stepping_network, seconds_for_largest=1.0)
        relaxed = Request(request_id=0, arrival_time=0.0, inputs=inputs, deadline=50.0)
        urgent = Request(request_id=1, arrival_time=0.05, inputs=inputs, deadline=1.2)
        report = ServingEngine(SteppingBackend(stepping_network), trace, "edf").serve(
            [relaxed, urgent]
        )
        relaxed_job = report.jobs[0]
        total_charged = relaxed_job.total_macs_charged
        assert total_charged == pytest.approx(
            stepping_network.subnet_macs(stepping_network.num_subnets - 1)
        )


class TestDeadlines:
    def test_drop_expired_skips_unstarted_jobs(self, stepping_network):
        inputs = np.zeros((2, 3, 12, 12))
        trace = _calibrated_trace(stepping_network, seconds_for_largest=1.0)
        # One long job plus a request whose deadline expires while queued.
        long_job = Request(request_id=0, arrival_time=0.0, inputs=inputs, deadline=10.0)
        doomed = Request(request_id=1, arrival_time=0.1, inputs=inputs, deadline=0.2)
        report = ServingEngine(
            SteppingBackend(stepping_network), trace, "fifo", drop_expired=True
        ).serve([long_job, doomed])
        dropped = report.jobs[1]
        assert dropped.status == "dropped"
        assert dropped.steps == []
        assert not dropped.deadline_met
        assert report.deadline_miss_rate == pytest.approx(0.5)

    def test_without_drop_expired_everyone_gets_an_answer(self, stepping_network):
        inputs = np.zeros((2, 3, 12, 12))
        trace = _calibrated_trace(stepping_network, seconds_for_largest=1.0)
        long_job = Request(request_id=0, arrival_time=0.0, inputs=inputs, deadline=10.0)
        doomed = Request(request_id=1, arrival_time=0.1, inputs=inputs, deadline=0.2)
        report = ServingEngine(
            SteppingBackend(stepping_network), trace, "fifo", drop_expired=False
        ).serve([long_job, doomed])
        assert all(job.steps for job in report.jobs)

    def test_enforce_deadline_stops_refinement(self, stepping_network):
        inputs = np.zeros((2, 3, 12, 12))
        trace = _calibrated_trace(stepping_network, seconds_for_largest=1.0)
        # Policy that never stops on its own; the engine's deadline stop
        # must end the job once time passes its deadline.
        policy = ConfidencePolicy(threshold=1.0, respect_deadline=False)
        request = Request(request_id=0, arrival_time=0.0, inputs=inputs, deadline=0.15)
        report = ServingEngine(
            SteppingBackend(stepping_network, policy=policy),
            trace,
            enforce_deadline=True,
        ).serve([request])
        job = report.jobs[0]
        assert job.stop_reason == "deadline reached"
        assert job.final_subnet < stepping_network.num_subnets - 1

    def test_no_post_deadline_step_after_preemption(self, stepping_network):
        """A job preempted past its deadline must not execute another
        refinement step when it is finally re-selected (regression: the
        continuation conditions used to be checked only right after the
        job's own step, so re-dispatch ran one stale step)."""
        inputs = np.zeros((2, 3, 12, 12))
        trace = _calibrated_trace(stepping_network, seconds_for_largest=1.0)
        # Victim finishes its first level quickly, then a pile of urgent
        # requests occupies the accelerator until well past its deadline.
        victim = Request(request_id=0, arrival_time=0.0, inputs=inputs, deadline=0.9)
        urgent = [
            Request(request_id=1 + i, arrival_time=0.05, inputs=inputs, deadline=0.5 + 2.0 * i)
            for i in range(4)
        ]
        report = ServingEngine(
            SteppingBackend(stepping_network), trace, "edf", enforce_deadline=True
        ).serve([victim] + urgent)
        victim_job = report.jobs[0]
        assert all(
            step.start_time <= victim_job.request.deadline + 1e-9 for step in victim_job.steps
        )
        # Finalised without a stale step: either the dispatch-time deadline
        # check or the policy's own deadline estimate stopped it.
        assert victim_job.stop_reason in (
            "deadline reached",
            "largest subnet reached",
            "next step would miss the deadline",
        )

    def test_starved_trace_finalises_jobs(self, stepping_network):
        inputs = np.zeros((2, 3, 12, 12))
        trace = ResourceTrace.constant(0.0, name="dead")
        request = Request(request_id=0, arrival_time=0.0, inputs=inputs, deadline=1.0)
        report = ServingEngine(SteppingBackend(stepping_network), trace).serve([request])
        job = report.jobs[0]
        assert job.status == "starved"
        assert math.isinf(job.steps[0].finish_time)
        assert not job.deadline_met


class TestSchedulerIsolation:
    def test_engines_sharing_a_scheduler_instance_do_not_alias(
        self, stepping_network, sample_pool, fast_trace
    ):
        """Regression: ``serve()`` used to mutate the shared instance in
        place, so two engines handed one Scheduler corrupted each other's
        ready queues.  Engines now clone per serve()."""
        from repro.serving import EDFScheduler

        images, labels = sample_pool
        shared = EDFScheduler()
        engine_a = ServingEngine(SteppingBackend(stepping_network), fast_trace, shared)
        engine_b = ServingEngine(SteppingBackend(stepping_network), fast_trace, shared)
        requests = poisson_stream(images, labels, rate=5.0, num_requests=6, seed=0)
        report_a = engine_a.serve(requests)
        assert len(shared) == 0  # the shared instance was never touched
        report_b = engine_b.serve(requests)
        assert report_a.as_dict() == report_b.as_dict()
        assert report_a.scheduler_name == "edf"

    def test_scheduler_accepts_name_class_and_instance(self, stepping_network, fast_trace):
        from repro.serving import EDFScheduler

        backend = SteppingBackend(stepping_network)
        for spec in ("edf", EDFScheduler, EDFScheduler()):
            engine = ServingEngine(backend, fast_trace, spec)
            assert engine.scheduler.name == "edf"

    def test_clone_produces_fresh_queue(self, stepping_network):
        from repro.serving import PriorityScheduler

        original = PriorityScheduler()
        clone = original.clone()
        assert type(clone) is PriorityScheduler
        assert clone is not original
        assert len(clone) == 0


class TestExpiryHeap:
    def test_many_expiring_jobs_drop_identically(self, stepping_network):
        """The heap-based admission control must drop exactly the jobs the
        old O(n) ready-set scan dropped: unstarted, deadline passed."""
        inputs = np.zeros((2, 3, 12, 12))
        trace = _calibrated_trace(stepping_network, seconds_for_largest=1.0)
        # A long head-of-line job, then a spread of queued requests whose
        # deadlines straddle its completion.
        requests = [Request(request_id=0, arrival_time=0.0, inputs=inputs, deadline=30.0)]
        for index in range(1, 9):
            requests.append(
                Request(
                    request_id=index,
                    arrival_time=0.05 * index,
                    inputs=inputs,
                    deadline=0.05 * index + (0.3 if index % 2 else 5.0),
                )
            )
        report = ServingEngine(
            SteppingBackend(stepping_network), trace, "fifo", drop_expired=True
        ).serve(requests)
        by_id = {job.request.request_id for job in report.dropped_jobs}
        # FIFO keeps the accelerator on job 0 for ~1 s: every tight-deadline
        # request expired unstarted, every relaxed one eventually ran.
        assert by_id == {1, 3, 5, 7}
        for job in report.jobs:
            if job.status == "dropped":
                assert job.steps == []
            else:
                assert job.steps

    def test_started_jobs_never_dropped_by_expiry(self, stepping_network):
        """A job that got its mandatory first level before the deadline is
        not admission-dropped when the deadline later passes."""
        inputs = np.zeros((2, 3, 12, 12))
        trace = _calibrated_trace(stepping_network, seconds_for_largest=1.0)
        victim = Request(request_id=0, arrival_time=0.0, inputs=inputs, deadline=0.9)
        backlog = [
            Request(request_id=1 + i, arrival_time=0.05, inputs=inputs, deadline=0.5 + 2.0 * i)
            for i in range(3)
        ]
        report = ServingEngine(
            SteppingBackend(stepping_network), trace, "edf", drop_expired=True
        ).serve([victim] + backlog)
        victim_job = report.jobs[0]
        assert victim_job.status == "completed"
        assert victim_job.steps


class TestLoadAdaptivePolicy:
    def test_yields_under_load_refines_when_idle(self, stepping_network, sample_pool):
        images, labels = sample_pool
        trace = _calibrated_trace(stepping_network)
        backend = SteppingBackend(stepping_network, policy=LoadAdaptivePolicy(max_queue_depth=0))
        # A burst: while others wait, each job stops after its mandatory
        # level; the last job (empty queue) refines to the top.
        requests = periodic_stream(images, labels, period=1e-6, num_requests=4, batch_size=2)
        report = ServingEngine(backend, trace, "fifo").serve(requests)
        subnets = [job.final_subnet for job in report.jobs]
        assert subnets[:-1] == [0] * (len(subnets) - 1)
        assert subnets[-1] == stepping_network.num_subnets - 1


class TestInputValidation:
    """Bad request inputs fail at the run's one way in, with ConfigError."""

    @staticmethod
    def _bad_inputs(images):
        nan = images[:1].copy()
        nan[0, 0, 0, 0] = np.nan
        return {
            "wrong shape": images[:1, :, :-1],
            "no batch axis": images[0],
            "empty batch": images[:0],
            "nan": nan,
            "inf": np.full_like(images[:2], np.inf),
        }

    @pytest.mark.parametrize(
        "kind", ["wrong shape", "no batch axis", "empty batch", "nan", "inf"]
    )
    def test_rejected_then_run_serves_valid_request(
        self, stepping_network, sample_pool, fast_trace, kind
    ):
        images, _ = sample_pool
        engine = ServingEngine(SteppingBackend(stepping_network), fast_trace)
        run = engine.open_run()
        bad = Request(request_id=0, arrival_time=0.0, inputs=self._bad_inputs(images)[kind])
        with pytest.raises(ConfigError, match="request 0: inputs"):
            run.push(bad)
        # The rejected id was never registered: a valid request reuses it.
        good = Request(request_id=0, arrival_time=0.0, inputs=images[:1])
        run.push(good)
        report = run.finish()
        assert [job.status for job in report.jobs] == ["completed"]
        reference = engine.serve([good]).jobs[0]
        assert np.array_equal(report.jobs[0].final_logits, reference.final_logits)

    def test_mlp_takes_flattened_samples(self, mlp_spec, rng, fast_trace):
        network = SteppingNetwork(mlp_spec, num_subnets=2, rng=rng)
        shaped = rng.standard_normal((2,) + tuple(mlp_spec.input_shape))
        requests = [
            Request(request_id=0, arrival_time=0.0, inputs=shaped),
            Request(request_id=1, arrival_time=0.0, inputs=shaped.reshape(2, -1)),
        ]
        report = ServingEngine(SteppingBackend(network), fast_trace).serve(requests)
        assert [job.status for job in report.jobs] == ["completed", "completed"]

    def test_serve_raises_before_any_step(self, stepping_network, sample_pool, fast_trace):
        images, _ = sample_pool
        requests = [
            Request(request_id=i, arrival_time=0.0, inputs=images[i : i + 1]) for i in range(3)
        ]
        requests.append(
            Request(request_id=3, arrival_time=0.0, inputs=self._bad_inputs(images)["nan"])
        )
        recorder = ObservabilitySpec(enabled=True).build()
        engine = ServingEngine(SteppingBackend(stepping_network), fast_trace)
        with pytest.raises(ConfigError, match="finite"):
            engine.serve(requests, recorder=recorder)
        assert [event["type"] for event in recorder.events] == ["arrive"] * 3
