"""Tests for shared-plan batched serving (`repro.serving.batching`).

The load-bearing property: batched execution is *bit-equal* (same dtype)
to the unbatched compiled path per request — ``batch_policy="none"`` is
the correctness oracle for every coalescing policy.  Verified at the
backend level (``advance_group`` vs solo ``IncrementalInference``
steps, group sizes 2/4/8, conv and MLP networks, both dtypes, ragged
member batch sizes) and at the engine level (whole Poisson streams
under FIFO/EDF).
"""

import math

import numpy as np
import pytest

from repro.baselines.common import set_prefix_assignments
from repro.core import SteppingNetwork
from repro.models import mlp
from repro.runtime.platform import ResourceTrace
from repro.serving import (
    BACKENDS,
    BATCH_POLICIES,
    NoBatching,
    RecomputeBackend,
    Request,
    SameLevelBatching,
    ServingEngine,
    ServingSpec,
    SteppingBackend,
    WindowedBatching,
    get_batch_policy,
    periodic_stream,
    poisson_stream,
)
from repro.utils.errors import ConfigError


@pytest.fixture
def mlp_network(mlp_spec, rng):
    network = SteppingNetwork(mlp_spec, num_subnets=4, rng=rng)
    set_prefix_assignments(network, [0.3, 0.55, 0.8, 1.0])
    network.assignment.validate()
    return network


def _fast_trace():
    return ResourceTrace.constant(1e12, name="fast")


def _calibrated_trace(network, seconds_for_largest=0.05):
    largest = float(network.subnet_macs(network.num_subnets - 1))
    return ResourceTrace.constant(largest / seconds_for_largest, name="calibrated")


# ----------------------------------------------------------------------
# Policy registry
# ----------------------------------------------------------------------
class TestBatchPolicyRegistry:
    def test_registry_contents(self):
        assert {"none", "same-level", "windowed"} <= set(BATCH_POLICIES)

    def test_get_batch_policy_forwards_knobs(self):
        policy = get_batch_policy("windowed", max_batch_size=4, window=0.25)
        assert isinstance(policy, WindowedBatching)
        assert policy.max_batch_size == 4
        assert policy.window == 0.25
        greedy = get_batch_policy("same-level", max_batch_size=16)
        assert greedy.max_batch_size == 16

    def test_none_ignores_knobs(self):
        policy = get_batch_policy("none", max_batch_size=32, window=1.0)
        assert isinstance(policy, NoBatching)
        assert policy.max_batch_size == 1

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="batch policy"):
            get_batch_policy("adaptive-magic")

    def test_invalid_knobs(self):
        with pytest.raises(ValueError):
            SameLevelBatching(max_batch_size=0)
        with pytest.raises(ValueError):
            WindowedBatching(window=-0.1)


# ----------------------------------------------------------------------
# Backend-level group advance: the bit-equality property
# ----------------------------------------------------------------------
class TestAdvanceGroup:
    @staticmethod
    def _assert_step_macs(backend, outcome, level):
        """MAC fields of an un-evicted step against the cost model itself."""
        previous = level - 1
        assert outcome.macs_charged == backend.step_cost(previous, level)
        expected_reused = (
            backend.subnet_macs(previous) if previous >= 0 and backend.reuses_activations else 0.0
        )
        assert outcome.macs_reused == expected_reused
        assert outcome.macs_recomputed == 0.0

    @pytest.mark.parametrize("group_size", [2, 4, 8])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("model", ["conv", "mlp"])
    def test_bit_equal_to_solo_sessions(
        self, stepping_network, mlp_network, rng, solo_logits, group_size, dtype, model
    ):
        network = stepping_network if model == "conv" else mlp_network
        shape = (3, 12, 12) if model == "conv" else (16,)
        inputs = [rng.standard_normal((1,) + shape) for _ in range(group_size)]
        levels = list(range(network.num_subnets))
        references = [solo_logits(network, batch, levels, dtype=dtype) for batch in inputs]
        backend = SteppingBackend(network, dtype=dtype)
        grouped = [backend.open(batch) for batch in inputs]
        for level in levels:
            outcomes = backend.advance_group(grouped)
            for reference, outcome in zip(references, outcomes):
                assert outcome.subnet == level
                self._assert_step_macs(backend, outcome, level)
                assert outcome.logits.dtype == np.dtype(dtype)
                assert np.array_equal(outcome.logits, reference[level])

    def test_ragged_member_batch_sizes(self, stepping_network, rng, solo_logits):
        """Members with different per-request sample counts still bit-match."""
        sizes = [1, 2, 1, 3]
        inputs = [rng.standard_normal((n, 3, 12, 12)) for n in sizes]
        levels = list(range(stepping_network.num_subnets))
        references = [solo_logits(stepping_network, batch, levels) for batch in inputs]
        backend = SteppingBackend(stepping_network)
        grouped = [backend.open(batch) for batch in inputs]
        for level in levels:
            outcomes = backend.advance_group(grouped)
            for reference, outcome in zip(references, outcomes):
                assert np.array_equal(outcome.logits, reference[level])

    def test_member_can_leave_the_batch_and_continue_solo(
        self, stepping_network, rng, solo_logits
    ):
        inputs = [rng.standard_normal((1, 3, 12, 12)) for _ in range(3)]
        backend = SteppingBackend(stepping_network)
        sessions = [backend.open(batch) for batch in inputs]
        backend.advance_group(sessions)
        # One member steps alone, the rest keep batching: both stay exact.
        alone = sessions[0].advance()
        rest = backend.advance_group(sessions[1:])
        for batch, outcome in zip(inputs, [alone, *rest]):
            assert np.array_equal(solo_logits(stepping_network, batch, [0, 1])[1], outcome.logits)
            self._assert_step_macs(backend, outcome, 1)

    def test_mixed_edges_rejected(self, stepping_network, rng):
        backend = SteppingBackend(stepping_network)
        ahead = backend.open(rng.standard_normal((1, 3, 12, 12)))
        ahead.advance()
        fresh = backend.open(rng.standard_normal((1, 3, 12, 12)))
        with pytest.raises(ValueError, match="share a subnet edge"):
            backend.advance_group([ahead, fresh])

    def test_empty_group_rejected(self, stepping_network):
        with pytest.raises(ValueError, match="empty"):
            SteppingBackend(stepping_network).advance_group([])

    @pytest.mark.parametrize("backend_cls", [SteppingBackend, RecomputeBackend])
    def test_group_with_evicted_member_matches_solo(
        self, stepping_network, rng, solo_logits, backend_cls
    ):
        """A member whose context was dropped replays inside the group, bit-equal."""
        inputs = [rng.standard_normal((1, 3, 12, 12)) for _ in range(2)]
        backend = backend_cls(stepping_network)
        levels = list(range(stepping_network.num_subnets))
        references = [solo_logits(stepping_network, batch, levels) for batch in inputs]
        grouped = [backend.open(batch) for batch in inputs]
        for level in levels:
            if level == 2:
                # One member loses its context before the step: it replays
                # levels 0..1 and is charged their recompute MACs.
                grouped[1].drop_state()
            outcomes = backend.advance_group(grouped)
            for index, (reference, outcome) in enumerate(zip(references, outcomes)):
                assert outcome.subnet == level
                assert np.array_equal(outcome.logits, reference[level])
                if level == 2 and index == 1:
                    replayed = backend.recompute_macs(1)
                    assert outcome.macs_recomputed == replayed
                    assert outcome.macs_charged == backend.step_cost(1, 2) + replayed
                    assert outcome.macs_reused == 0.0  # rebuilt, not served from memory
                else:
                    self._assert_step_macs(backend, outcome, level)
            if level == 2 and backend.reuses_activations:
                assert outcomes[1].macs_recomputed > 0
        assert grouped[1].current_subnet == stepping_network.num_subnets - 1


# ----------------------------------------------------------------------
# Engine-level batched serving
# ----------------------------------------------------------------------
class TestBatchedServing:
    def _serve(self, network, requests, *, policy=None, scheduler="fifo", trace=None,
               overhead=0.0, backend_cls=SteppingBackend, **engine_kwargs):
        engine = ServingEngine(
            backend_cls(network),
            trace or _fast_trace(),
            scheduler,
            batch_policy=policy,
            overhead_per_step=overhead,
            **engine_kwargs,
        )
        return engine.serve(requests)

    @pytest.mark.parametrize("max_batch_size", [2, 4, 8])
    @pytest.mark.parametrize("scheduler", ["fifo", "edf"])
    def test_stream_logits_bit_equal_to_unbatched(
        self, stepping_network, sample_pool, max_batch_size, scheduler
    ):
        images, labels = sample_pool
        requests = poisson_stream(
            images, labels, rate=50.0, num_requests=24, batch_size=1, seed=0
        )
        trace = _calibrated_trace(stepping_network)
        oracle = self._serve(stepping_network, requests, scheduler=scheduler, trace=trace)
        batched = self._serve(
            stepping_network,
            requests,
            policy=SameLevelBatching(max_batch_size),
            scheduler=scheduler,
            trace=trace,
        )
        assert batched.max_batch_occupancy <= max_batch_size
        for reference, job in zip(oracle.jobs, batched.jobs):
            assert job.request.request_id == reference.request.request_id
            assert job.final_subnet == reference.final_subnet
            assert np.array_equal(job.final_logits, reference.final_logits)

    def test_mlp_stream_logits_bit_equal(self, mlp_network, rng):
        images = rng.standard_normal((16, 16))
        requests = poisson_stream(images, rate=50.0, num_requests=16, batch_size=1, seed=0)
        trace = _calibrated_trace(mlp_network)
        oracle = self._serve(mlp_network, requests, trace=trace)
        batched = self._serve(
            mlp_network, requests, policy=SameLevelBatching(8), trace=trace
        )
        for reference, job in zip(oracle.jobs, batched.jobs):
            assert np.array_equal(job.final_logits, reference.final_logits)

    def test_burst_forms_full_batches(self, stepping_network, sample_pool):
        """Simultaneous arrivals advance as lockstep waves."""
        images, _ = sample_pool
        requests = [
            Request(request_id=i, arrival_time=0.0, inputs=images[i : i + 1])
            for i in range(8)
        ]
        report = self._serve(
            stepping_network,
            requests,
            policy=SameLevelBatching(8),
            trace=_calibrated_trace(stepping_network),
        )
        # One wave: every level of every request runs in a full batch.
        assert report.batch_sizes == [8] * stepping_network.num_subnets
        assert report.mean_batch_occupancy == 8.0
        assert report.batched_steps == 8 * stepping_network.num_subnets
        assert report.solo_steps == 0

    def test_mixed_start_levels_never_share_a_batch(self, stepping_network, sample_pool):
        """A late arrival cannot join jobs already past its start edge."""
        images, _ = sample_pool
        trace = _calibrated_trace(stepping_network, seconds_for_largest=0.4)
        early = [
            Request(request_id=i, arrival_time=0.0, inputs=images[i : i + 1])
            for i in range(2)
        ]
        # Arrives after the early wave finished level 0 (0.4s covers all
        # four levels; level 0 alone is well under 0.25s).
        late = [Request(request_id=2, arrival_time=0.25, inputs=images[2:3])]
        report = self._serve(
            stepping_network, early + late, policy=SameLevelBatching(8), trace=trace
        )
        # The late job's steps must all have run after its arrival — it
        # can never have been folded into the early wave's passes.
        late_record = report.jobs[-1]
        assert late_record.request.request_id == 2
        assert all(step.start_time >= 0.25 for step in late_record.steps)
        # And its results are still exact.
        oracle = self._serve(stepping_network, early + late, trace=trace)
        for reference, job in zip(oracle.jobs, report.jobs):
            assert np.array_equal(job.final_logits, reference.final_logits)

    def test_windowed_policy_batches_imminent_arrivals(
        self, stepping_network, sample_pool
    ):
        images, _ = sample_pool
        requests = periodic_stream(images, period=0.01, num_requests=4, batch_size=1)
        report = self._serve(
            stepping_network,
            requests,
            policy=WindowedBatching(max_batch_size=4, window=0.1),
        )
        # The first dispatch waited for all four arrivals (0.00..0.03)
        # and ran them as one full batch.
        assert report.batch_sizes[0] == 4
        first_steps = [job.steps[0] for job in report.jobs]
        assert all(step.start_time == pytest.approx(0.03) for step in first_steps)
        # The wait is bounded by the window from each member's arrival.
        for job in report.jobs:
            assert job.queueing_delay <= 0.1 + 1e-9

    def test_windowed_wait_is_bounded_by_window(self, stepping_network, sample_pool):
        """Arrivals beyond the window do not hold the accelerator."""
        images, _ = sample_pool
        requests = [
            Request(request_id=0, arrival_time=0.0, inputs=images[:1]),
            Request(request_id=1, arrival_time=0.5, inputs=images[1:2]),
        ]
        report = self._serve(
            stepping_network,
            requests,
            policy=WindowedBatching(max_batch_size=4, window=0.05),
        )
        # Request 0 dispatched alone at t=0: the next arrival (0.5) lies
        # outside its window.
        assert report.jobs[0].steps[0].start_time == 0.0
        assert report.batch_sizes[0] == 1

    def test_windowed_wait_never_crosses_a_member_deadline(
        self, stepping_network, sample_pool
    ):
        """An idle coalescing wait must not expire a feasible request."""
        images, _ = sample_pool
        requests = [
            # Trivially feasible alone; the next arrival (0.08) is inside
            # the 0.1s window but past this request's deadline.
            Request(request_id=0, arrival_time=0.0, inputs=images[:1], deadline=0.05),
            Request(request_id=1, arrival_time=0.08, inputs=images[1:2]),
        ]
        report = self._serve(
            stepping_network,
            requests,
            policy=WindowedBatching(max_batch_size=4, window=0.1),
            trace=_calibrated_trace(stepping_network, seconds_for_largest=0.01),
            drop_expired=True,
        )
        first = report.jobs[0]
        assert first.status == "completed"
        assert first.deadline_met
        assert first.steps[0].start_time == 0.0  # dispatched, not held

    def test_batching_amortises_step_overhead(self, stepping_network, sample_pool):
        """Simulated time improves too: one launch overhead per batch."""
        images, _ = sample_pool
        requests = [
            Request(request_id=i, arrival_time=0.0, inputs=images[i : i + 1])
            for i in range(8)
        ]
        solo = self._serve(stepping_network, requests, overhead=1e-3)
        batched = self._serve(
            stepping_network, requests, policy=SameLevelBatching(8), overhead=1e-3
        )
        assert batched.makespan < solo.makespan
        assert batched.num_dispatches < solo.num_dispatches

    @pytest.mark.parametrize("policy", ["same-level", "windowed", "continuous"])
    @pytest.mark.parametrize(
        "backend, alias", [("stepping", "batched"), ("recompute", "batched-recompute")]
    )
    def test_batching_policy_runs_on_any_backend(
        self, stepping_network, sample_pool, backend, alias, policy
    ):
        """Batching is a policy: every backend runs it, bit-equal to ``"none"``."""
        images, _ = sample_pool
        requests = poisson_stream(images, rate=50.0, num_requests=16, batch_size=1, seed=0)
        largest = float(stepping_network.subnet_macs(stepping_network.num_subnets - 1))

        def serve(**knobs):
            spec = ServingSpec(trace="constant", trace_rate=largest / 0.05, **knobs)
            return spec.build_engine(stepping_network).serve(requests)

        oracle = serve(backend=backend)
        report = serve(backend=backend, batch_policy=policy, batch_window=0.01)
        assert report.max_batch_occupancy > 1
        for reference, job in zip(oracle.jobs, report.jobs):
            assert job.request.request_id == reference.request.request_id
            assert [s.subnet for s in job.steps] == [s.subnet for s in reference.steps]
            for ref_step, step in zip(reference.steps, job.steps):
                assert np.array_equal(step.logits, ref_step.logits)
        # The former batched-backend names are aliases of the same class.
        assert BACKENDS[alias] is BACKENDS[backend]
        spelled = serve(backend=alias, batch_policy=policy, batch_window=0.01)
        assert spelled.to_dict() == report.to_dict()

    def test_none_policy_allowed_on_any_backend(self, stepping_network, sample_pool):
        images, _ = sample_pool
        requests = poisson_stream(images, rate=20.0, num_requests=4, seed=0)
        report = self._serve(stepping_network, requests, policy=None)
        assert report.batch_policy_name == "none"
        assert report.batch_sizes == [1] * report.num_dispatches

    def test_report_as_dict_has_batch_fields(self, stepping_network, sample_pool):
        images, _ = sample_pool
        requests = poisson_stream(images, rate=20.0, num_requests=4, batch_size=1, seed=0)
        report = self._serve(stepping_network, requests, policy=SameLevelBatching(4))
        payload = report.as_dict()
        assert payload["batch_policy"] == "same-level"
        for key in (
            "dispatches",
            "solo_steps",
            "batched_steps",
            "mean_batch_occupancy",
            "max_batch_occupancy",
        ):
            assert key in payload
        # Every executed step is either solo or part of a shared pass.
        total_steps = sum(len(job.steps) for job in report.jobs)
        assert report.solo_steps + report.batched_steps == total_steps

    def test_deadline_semantics_preserved_under_batching(
        self, stepping_network, sample_pool
    ):
        """drop_expired + enforce_deadline still hold with batching on."""
        images, _ = sample_pool
        trace = _calibrated_trace(stepping_network, seconds_for_largest=0.4)
        requests = poisson_stream(
            images,
            rate=40.0,
            num_requests=16,
            relative_deadline=0.3,
            batch_size=1,
            seed=0,
        )
        report = self._serve(
            stepping_network,
            requests,
            policy=SameLevelBatching(8),
            trace=trace,
            drop_expired=True,
        )
        assert report.num_jobs == 16
        for job in report.jobs:
            if job.status == "dropped":
                assert not job.steps
            for step in job.steps:
                assert math.isfinite(step.finish_time)


# ----------------------------------------------------------------------
# ServingRun: the resumable event loop behind serve()
# ----------------------------------------------------------------------
class TestServingRun:
    def test_incremental_pushes_match_closed_loop(self, stepping_network, sample_pool):
        images, labels = sample_pool
        requests = poisson_stream(
            images, labels, rate=30.0, num_requests=12, batch_size=1, seed=0
        )
        engine = ServingEngine(
            SteppingBackend(stepping_network),
            _calibrated_trace(stepping_network),
            "edf",
        )
        closed = engine.serve(requests)
        run = engine.open_run()
        for request in sorted(requests, key=lambda r: r.arrival_time):
            run.run_until(request.arrival_time)
            run.push(request)
        incremental = run.finish()
        assert incremental.as_dict() == closed.as_dict()
        for a, b in zip(closed.jobs, incremental.jobs):
            assert np.array_equal(a.final_logits, b.final_logits)
            assert [s.finish_time for s in a.steps] == [s.finish_time for s in b.steps]

    def test_queue_depth_published_at_step_boundaries(
        self, stepping_network, sample_pool
    ):
        images, _ = sample_pool
        engine = ServingEngine(
            SteppingBackend(stepping_network),
            _calibrated_trace(stepping_network, seconds_for_largest=1.0),
        )
        run = engine.open_run()
        assert run.queue_depth == 0
        for i in range(3):
            run.push(Request(request_id=i, arrival_time=0.0, inputs=images[i : i + 1]))
        # Nothing processed yet: the published signal lags the pushes.
        assert run.queue_depth == 0
        run.run_until(0.0)
        assert run.queue_depth > 0
        run.finish()
        assert run.queue_depth == 0

    def test_duplicate_push_rejected(self, stepping_network, sample_pool):
        images, _ = sample_pool
        run = ServingEngine(SteppingBackend(stepping_network), _fast_trace()).open_run()
        run.push(Request(request_id=1, arrival_time=0.0, inputs=images[:1]))
        with pytest.raises(ValueError, match="already pushed"):
            run.push(Request(request_id=1, arrival_time=0.1, inputs=images[:1]))

    def test_push_after_finish_rejected(self, stepping_network, sample_pool):
        images, _ = sample_pool
        run = ServingEngine(SteppingBackend(stepping_network), _fast_trace()).open_run()
        run.finish()
        with pytest.raises(RuntimeError, match="finished"):
            run.push(Request(request_id=0, arrival_time=0.0, inputs=images[:1]))
