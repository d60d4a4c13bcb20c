"""Tests for continuous batching and the cost-signal-aware schedulers.

Continuous batching's contract: an under-full *started* dispatch is
topped back up with ready jobs from lower subnet edges — each laggard
catches up inside the dispatch (its own policy consulted between
levels) and rides the shared pass — while per-request logits stay
bit-equal to unbatched serving.  ``batch_policy="none"`` remains the
correctness oracle, as for every other coalescing policy.

Also covered here: the batched recompute baseline (same shared-pass
mechanics, honest full-subnet charging), the three schedulers that read
serving cost signals (batch potential, pending recompute, utility per
MAC), and the per-edge ready index's purge guarantees under expiry.
"""

import numpy as np
import pytest

from repro.runtime.platform import ResourceTrace
from repro.runtime.policies import ConfidencePolicy, prediction_confidence
from repro.serving import (
    BATCH_POLICIES,
    BatchAwareScheduler,
    ContinuousBatching,
    LeastRecomputeScheduler,
    NoBatching,
    RecomputeBackend,
    Request,
    SameLevelBatching,
    ServingEngine,
    SteppingBackend,
    UtilityPerMacScheduler,
    WindowedBatching,
    get_batch_policy,
    get_scheduler,
    poisson_stream,
)
from repro.serving.backend import ServingJob
from repro.serving.observe import ObservabilitySpec


def _calibrated_trace(network, seconds_for_largest=0.4):
    largest = float(network.subnet_macs(network.num_subnets - 1))
    return ResourceTrace.constant(largest / seconds_for_largest, name="calibrated")


def _serve(network, requests, *, policy="continuous", scheduler="fifo",
           backend=None, trace=None, max_batch_size=16, **engine_kwargs):
    if backend is None:
        backend = SteppingBackend(network)
    batch_policy = (
        policy
        if policy in (None, "none")
        else get_batch_policy(policy, max_batch_size=max_batch_size)
    )
    engine = ServingEngine(
        backend,
        trace or _calibrated_trace(network),
        scheduler,
        batch_policy=batch_policy,
        **engine_kwargs,
    )
    return engine.serve(requests)


def _assert_bit_equal(reference, report):
    assert len(reference.jobs) == len(report.jobs)
    for a, b in zip(reference.jobs, report.jobs):
        assert b.request.request_id == a.request.request_id
        assert [s.subnet for s in b.steps] == [s.subnet for s in a.steps]
        assert np.array_equal(b.final_logits, a.final_logits)


# ----------------------------------------------------------------------
# Policy registry
# ----------------------------------------------------------------------
class TestContinuousPolicy:
    def test_registry(self):
        assert "continuous" in BATCH_POLICIES
        policy = get_batch_policy("continuous", max_batch_size=16)
        assert isinstance(policy, ContinuousBatching)
        assert policy.max_batch_size == 16
        assert policy.refills

    def test_only_continuous_refills(self):
        assert not NoBatching.refills
        assert not SameLevelBatching.refills
        assert not WindowedBatching.refills
        assert ContinuousBatching.refills


# ----------------------------------------------------------------------
# Mid-wave join: the tentpole mechanic, at every step boundary
# ----------------------------------------------------------------------
class TestMidWaveJoin:
    def _wave_requests(self, images, count=3):
        return [
            Request(request_id=i, arrival_time=0.0, inputs=images[i : i + 1])
            for i in range(count)
        ]

    def _wave_finish_times(self, network, images):
        """Dispatch finish times of the 3-job wave served alone."""
        report = _serve(network, self._wave_requests(images))
        assert report.batch_sizes == [3] * network.num_subnets
        return [step.finish_time for step in report.jobs[0].steps]

    @pytest.mark.parametrize("join_level", [1, 2, 3])
    def test_late_arrival_joins_at_every_boundary(
        self, stepping_network, sample_pool, join_level
    ):
        """A request arriving mid-wave catches up and joins the shared pass.

        Arriving during dispatch ``join_level`` means admission at that
        dispatch's finish boundary, where the wave sits at edge
        ``(join_level - 1, join_level)``: the laggard replays levels
        ``0..join_level-1`` inside the next dispatch and shares the
        ``join_level`` pass — all in one dispatch, one launch overhead.
        """
        images, _ = sample_pool
        finishes = self._wave_finish_times(stepping_network, images)
        arrival = (
            finishes[join_level - 1] / 2
            if join_level == 1
            else (finishes[join_level - 2] + finishes[join_level - 1]) / 2
        )
        late = Request(request_id=9, arrival_time=arrival, inputs=images[9:10])
        requests = self._wave_requests(images) + [late]
        report = _serve(stepping_network, requests)

        num_subnets = stepping_network.num_subnets
        # The join dispatch records the laggard's catch-up passes (one
        # per level, solo — there is only one laggard) and then the
        # topped-up shared pass (3 wave + 1 laggard).
        assert report.batch_sizes == (
            [3] * join_level
            + [1] * join_level
            + [4] * (num_subnets - join_level)
        )
        late_record = report.jobs[-1]
        assert late_record.request.request_id == 9
        assert len(late_record.steps) == num_subnets
        join_start = finishes[join_level - 1]
        for step in late_record.steps[: join_level + 1]:
            assert step.start_time == join_start
            assert step.finish_time == late_record.steps[0].finish_time
        # From the join on, the laggard rides the wave in lockstep.
        wave_record = report.jobs[0]
        for index in range(join_level, num_subnets):
            assert (
                late_record.steps[index].finish_time
                == wave_record.steps[index].finish_time
            )
        # And the results are still exactly the unbatched ones.
        _assert_bit_equal(_serve(stepping_network, requests, policy="none"), report)

    def test_join_amortises_overhead_and_lifts_occupancy(
        self, stepping_network, sample_pool
    ):
        """vs windowed: the laggard costs no extra dispatch at all."""
        images, _ = sample_pool
        finishes = self._wave_finish_times(stepping_network, images)
        late = Request(
            request_id=9,
            arrival_time=(finishes[0] + finishes[1]) / 2,
            inputs=images[9:10],
        )
        requests = self._wave_requests(images) + [late]
        windowed = _serve(stepping_network, requests, policy="windowed",
                          overhead_per_step=1e-3)
        continuous = _serve(stepping_network, requests, overhead_per_step=1e-3)
        assert continuous.num_dispatches < windowed.num_dispatches
        assert continuous.mean_batch_occupancy > windowed.mean_batch_occupancy
        assert continuous.makespan < windowed.makespan


# ----------------------------------------------------------------------
# Bit-equality against the unbatched oracle, under wave drain
# ----------------------------------------------------------------------
class TestContinuousBitEquality:
    """Whole oversubscribed streams, early-stopping policy → waves drain
    and refills actually fire; logits and level sequences must match
    ``batch_policy="none"`` exactly.

    The stopping policy reads only logits (``respect_deadline=False``,
    deadlines not enforced), so the per-request level sequence is
    timing-independent — which is precisely why batching policies can
    reorder work without changing any request's outcome.
    """

    def _stream(self, rng, count=24, mean_gap=0.18):
        requests = []
        arrival = 0.0
        for index in range(count):
            arrival += float(rng.exponential(mean_gap))
            requests.append(
                Request(
                    request_id=index,
                    arrival_time=round(arrival, 6),
                    inputs=rng.standard_normal((1, 3, 12, 12)),
                    deadline=round(arrival + float(rng.uniform(0.5, 3.0)), 6),
                    priority=int(rng.integers(0, 3)),
                )
            )
        return requests

    @pytest.mark.parametrize("scheduler", ["fifo", "edf", "priority"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stream_bit_equal_to_none(self, stepping_network, scheduler, dtype):
        requests = self._stream(np.random.default_rng(7))
        policy = ConfidencePolicy(threshold=0.35, respect_deadline=False)
        trace = _calibrated_trace(stepping_network)
        oracle = _serve(
            stepping_network, requests, policy="none", scheduler=scheduler,
            backend=SteppingBackend(stepping_network, policy=policy, dtype=dtype),
            trace=trace, enforce_deadline=False,
        )
        report = _serve(
            stepping_network, requests, scheduler=scheduler,
            backend=SteppingBackend(stepping_network, policy=policy, dtype=dtype),
            trace=trace, enforce_deadline=False,
        )
        _assert_bit_equal(oracle, report)
        # The workload genuinely drains waves (varied stop levels) ...
        stop_levels = {job.final_subnet for job in oracle.jobs}
        assert len(stop_levels) > 1
        # ... and refills genuinely fire: some job ran 2+ levels in one
        # dispatch (identical step span), which only mid-wave joins do.
        assert any(
            len(job.steps) >= 2
            and job.steps[0].finish_time == job.steps[1].finish_time
            for job in report.jobs
        )
        assert report.mean_batch_occupancy > 1.0

    def test_continuous_occupancy_beats_windowed(self, stepping_network):
        requests = self._stream(np.random.default_rng(11), count=32, mean_gap=0.04)
        policy = ConfidencePolicy(threshold=0.35, respect_deadline=False)
        trace = _calibrated_trace(stepping_network)

        def run(name):
            return _serve(
                stepping_network, requests,
                policy=name,
                backend=SteppingBackend(stepping_network, policy=policy),
                trace=trace, enforce_deadline=False, overhead_per_step=5e-4,
            )

        windowed = run("windowed")
        continuous = run("continuous")
        assert continuous.mean_batch_occupancy > windowed.mean_batch_occupancy
        assert continuous.num_dispatches < windowed.num_dispatches


# ----------------------------------------------------------------------
# Laggard semantics: policy stops mid catch-up, deadline guard
# ----------------------------------------------------------------------
class TestLaggardSemantics:
    def test_laggard_policy_stop_mid_catch_up(self, stepping_network, rng):
        """A laggard is never refined past its policy just to fill a batch.

        A large-magnitude input yields peaked logits — confident after
        level 0 — while near-zero inputs stay diffuse at every level.
        With the threshold between the two, the wave never stops but the
        late request is done the moment its mandatory first level runs:
        catching up at a ``(1, 2)``-edge boundary, it executes level 0
        inside the dispatch, its policy says stop, and it completes
        without ever joining the shared pass — and without a dispatch of
        its own.
        """
        loud = rng.standard_normal((1, 3, 12, 12)) * 50.0
        quiet = [rng.standard_normal((1, 3, 12, 12)) * 1e-3 for _ in range(3)]
        policy = ConfidencePolicy(threshold=0.9, respect_deadline=False)
        trace = _calibrated_trace(stepping_network)
        wave = [
            Request(request_id=i, arrival_time=0.0, inputs=inputs)
            for i, inputs in enumerate(quiet)
        ]
        probe = _serve(
            stepping_network, wave,
            backend=SteppingBackend(stepping_network, policy=policy),
            trace=trace,
        )
        finishes = [step.finish_time for step in probe.jobs[0].steps]
        assert len(finishes) == stepping_network.num_subnets  # wave never stops

        late = Request(
            request_id=9,
            arrival_time=(finishes[0] + finishes[1]) / 2,
            inputs=loud,
        )
        report = _serve(
            stepping_network, wave + [late],
            backend=SteppingBackend(stepping_network, policy=policy),
            trace=trace,
        )
        late_record = report.jobs[-1]
        assert late_record.status == "completed"
        assert len(late_record.steps) == 1
        assert late_record.final_subnet == 0
        # Its only level ran inside the wave's third dispatch: same start
        # boundary, one catch-up pass, and it never joined the shared
        # pass (the wave's passes stay at 3 members throughout).
        assert late_record.steps[0].start_time == finishes[1]
        assert report.batch_sizes == [3, 3, 1, 3, 3]
        _assert_bit_equal(
            _serve(
                stepping_network, wave + [late], policy="none",
                backend=SteppingBackend(stepping_network, policy=policy),
                trace=trace,
            ),
            report,
        )

    def test_refill_never_blows_a_member_deadline(
        self, stepping_network, sample_pool
    ):
        """Catch-up work rides the member's dispatch; the guard must
        reject a laggard whose extra MACs would push the dispatch past a
        member's deadline.

        The tight request's deadline sits just past its solo level-1
        finish: alone it reaches level 1 exactly, and a laggard joining
        that dispatch (its catch-up MACs stretch the very same dispatch)
        would overshoot it.  With the guard, the tight job's entire
        schedule is byte-identical to running alone — zero interference.
        """
        images, _ = sample_pool
        trace = _calibrated_trace(stepping_network)
        solo = _serve(
            stepping_network,
            [Request(request_id=0, arrival_time=0.0, inputs=images[:1])],
            trace=trace,
        )
        boundaries = [step.finish_time for step in solo.jobs[0].steps]
        tight = Request(
            request_id=0, arrival_time=0.0, inputs=images[:1],
            deadline=boundaries[1] * 1.0001,
        )
        late = Request(
            request_id=1, arrival_time=boundaries[0] / 2, inputs=images[1:2]
        )
        alone = _serve(stepping_network, [tight], trace=trace)
        report = _serve(stepping_network, [tight, late], trace=trace)
        tight_record, late_record = report.jobs
        # Feasible alone and kept feasible: the laggard was turned away,
        # and the tight job's steps are exactly its run-alone steps.
        assert tight_record.status == "completed"
        assert tight_record.deadline_met
        assert report.batch_sizes == [1] * report.num_dispatches
        reference = alone.jobs[0]
        assert [s.subnet for s in tight_record.steps] == [
            s.subnet for s in reference.steps
        ]
        assert [s.finish_time for s in tight_record.steps] == [
            s.finish_time for s in reference.steps
        ]
        # The rejected laggard still completes, strictly afterwards.
        assert late_record.status == "completed"
        assert late_record.steps[0].start_time >= tight_record.steps[-1].finish_time


# ----------------------------------------------------------------------
# Batched recompute baseline
# ----------------------------------------------------------------------
class TestBatchedRecompute:
    def test_registry(self):
        from repro.serving import BACKENDS

        assert BACKENDS["batched"] is SteppingBackend
        assert BACKENDS["batched-recompute"] is RecomputeBackend

    @pytest.mark.parametrize("group_size", [2, 4])
    def test_group_advance_bit_equal_and_fully_charged(
        self, stepping_network, rng, group_size
    ):
        inputs = [rng.standard_normal((1, 3, 12, 12)) for _ in range(group_size)]
        solo_backend = RecomputeBackend(stepping_network)
        group_backend = RecomputeBackend(stepping_network)
        assert not group_backend.reuses_activations
        solo = [solo_backend.open(batch) for batch in inputs]
        grouped = [group_backend.open(batch) for batch in inputs]
        for level in range(stepping_network.num_subnets):
            references = [session.advance() for session in solo]
            outcomes = group_backend.advance_group(grouped)
            full = float(stepping_network.subnet_macs(level))
            for reference, outcome in zip(references, outcomes):
                assert np.array_equal(outcome.logits, reference.logits)
                # Recompute semantics survive batching: every step pays
                # the full subnet, nothing is reused.
                assert outcome.macs_charged == reference.macs_charged
                assert outcome.macs_charged == pytest.approx(full)
                assert outcome.macs_reused == 0

    def test_continuous_serving_on_recompute_baseline(
        self, stepping_network, sample_pool
    ):
        images, _ = sample_pool
        requests = poisson_stream(
            images, rate=40.0, num_requests=16, batch_size=1, seed=3
        )
        trace = _calibrated_trace(stepping_network)
        oracle = _serve(
            stepping_network, requests, policy="none",
            backend=RecomputeBackend(stepping_network), trace=trace,
        )
        report = _serve(
            stepping_network, requests,
            backend=RecomputeBackend(stepping_network), trace=trace,
        )
        _assert_bit_equal(oracle, report)
        # The baseline gap batching must not hide: recompute charges
        # strictly more MACs than stepping for the same workload.
        stepping = _serve(stepping_network, requests, trace=trace)
        assert report.total_macs > stepping.total_macs


# ----------------------------------------------------------------------
# Cost-signal-aware schedulers
# ----------------------------------------------------------------------
class _StubSession:
    """Just enough session surface for scheduler-key unit tests."""

    def __init__(self, current=-1, next_subnet=0, recompute=0.0, step_macs=1.0):
        self.current_subnet = current
        self._next = next_subnet
        self._recompute = recompute
        self._macs = step_macs

    def next_subnet(self):
        return self._next

    @property
    def edge(self):
        return self.current_subnet, self._next

    def pending_recompute_macs(self):
        return self._recompute

    def next_step_macs(self):
        return self._macs


def _job(request_id, arrival, deadline=None, priority=0, session=None, steps=0):
    request = Request(
        request_id=request_id,
        arrival_time=arrival,
        inputs=np.zeros((1, 3, 12, 12)),
        deadline=deadline,
        priority=priority,
    )
    return ServingJob(request=request, session=session, steps_executed=steps)


def _started(request_id, arrival, level, **kwargs):
    session = _StubSession(current=level, next_subnet=level + 1)
    return _job(request_id, arrival, session=session, steps=level + 1, **kwargs)


class _Unread(list):
    """A member list that fails the test if anything iterates it."""

    def __iter__(self):
        raise AssertionError("the members were read")


class TestRefillEarlyReturn:
    """``_refill_laggards`` returns before it reads the members or fetches
    a candidate when no ready edge lies below the winner's level within
    ``max_catchup_levels``; with one such edge it admits the laggard."""

    @staticmethod
    def _run(network, cap, jobs):
        policy = ContinuousBatching(max_batch_size=4, max_catchup_levels=cap)
        engine = ServingEngine(
            SteppingBackend(network), _calibrated_trace(network), "fifo", batch_policy=policy
        )
        run = engine.open_run()
        for job in jobs:
            run.scheduler.add(job)
        return run

    @pytest.mark.parametrize("cap", [None, 1])
    def test_returns_before_reading_members(self, stepping_network, monkeypatch, cap):
        winner = _started(0, 0.0, level=1)
        entry = _job(1, 0.0)  # edge (-1, 0): two levels below the wave
        peer = _started(2, 0.0, level=1)  # the wave's own edge
        ahead = _started(3, 0.0, level=2)  # above the wave
        jobs = [winner, peer, ahead] + ([entry] if cap is not None else [])
        run = self._run(stepping_network, cap, jobs)

        def fetch(*args, **kwargs):
            raise AssertionError("a candidate was fetched")

        monkeypatch.setattr(run.scheduler, "jobs_at_edge", fetch)
        assert run._refill_laggards(winner, _Unread([winner]), 3) == []

    @pytest.mark.parametrize("cap", [None, 2])
    def test_admits_a_laggard_within_the_cap(self, stepping_network, cap):
        winner = _started(0, 0.0, level=1)
        entry = _job(1, 0.0)
        run = self._run(stepping_network, cap, [winner, entry, _started(2, 0.0, level=2)])
        assert run._refill_laggards(winner, [winner], 3) == [entry]


class TestBatchAwareScheduler:
    def test_serves_fullest_edge(self):
        scheduler = BatchAwareScheduler()
        lone = _job(0, 0.0)  # entry edge, earliest arrival
        wave = [_started(1, 1.0, level=1), _started(2, 2.0, level=1)]
        for job in [lone, *wave]:
            scheduler.add(job)
        picked = scheduler.pick(now=0.0)
        assert picked is wave[0]  # head of the 2-deep (1, 2) edge
        assert scheduler.select([lone, *wave], now=0.0) is picked

    def test_urgency_overrides_batch_potential(self):
        scheduler = BatchAwareScheduler(min_slack=1.0)
        urgent = _job(0, 0.0, deadline=5.0)  # slack 0.5 <= min_slack at now=4.5
        wave = [_started(1, 1.0, level=1), _started(2, 2.0, level=1)]
        for job in [urgent, *wave]:
            scheduler.add(job)
        assert scheduler.pick(now=4.5) is urgent
        assert scheduler.select([urgent, *wave], now=4.5) is urgent
        # With plenty of slack the wave wins again.
        assert scheduler.pick(now=0.0) is wave[0]

    def test_params_validated_and_cloned(self):
        scheduler = get_scheduler("batch-aware", min_slack=0.5)
        assert isinstance(scheduler, BatchAwareScheduler)
        assert scheduler.clone().min_slack == 0.5
        with pytest.raises(ValueError, match="min_slack"):
            BatchAwareScheduler(min_slack=-1.0)
        with pytest.raises(TypeError):
            get_scheduler("fifo", min_slack=0.5)

    def test_end_to_end_prefers_joinable_work(self, stepping_network, sample_pool):
        images, _ = sample_pool
        requests = poisson_stream(
            images, rate=60.0, num_requests=16, batch_size=1, seed=5
        )
        report = _serve(
            stepping_network, requests, scheduler=get_scheduler("batch-aware")
        )
        assert len(report.completed_jobs) == 16
        assert report.scheduler_name == "batch-aware"


class TestLeastRecomputeScheduler:
    def test_cold_job_waits_for_warm_work(self):
        scheduler = LeastRecomputeScheduler()
        cold = _job(
            0, 0.0, session=_StubSession(current=1, next_subnet=2, recompute=500.0),
            steps=2,
        )
        warm = _job(1, 5.0, session=_StubSession(current=1, next_subnet=2))
        scheduler.add(cold)
        scheduler.add(warm)
        assert scheduler.pick(now=0.0) is warm
        assert scheduler.select([cold, warm], now=0.0) is warm
        # Eviction hits the warm job too: FIFO (arrival) breaks the tie.
        warm.session._recompute = 500.0
        scheduler.reindex(warm)
        assert scheduler.pick(now=0.0) is cold

    def test_end_to_end_under_memory_pressure(self, stepping_network, sample_pool):
        images, _ = sample_pool
        requests = poisson_stream(
            images, rate=60.0, num_requests=16, batch_size=1, seed=5
        )
        report = _serve(
            stepping_network, requests, scheduler=get_scheduler("least-recompute"),
            memory_budget_bytes=60_000,
        )
        assert len(report.completed_jobs) == 16
        oracle = _serve(
            stepping_network, requests, policy="none",
            scheduler=get_scheduler("least-recompute"),
            memory_budget_bytes=60_000,
        )
        _assert_bit_equal(oracle, report)


class TestUtilityPerMacScheduler:
    def test_first_results_beat_refinements(self):
        scheduler = UtilityPerMacScheduler()
        fresh = _job(0, 5.0, session=_StubSession(step_macs=100.0))
        deep = _job(
            1, 0.0, session=_StubSession(current=2, next_subnet=3, step_macs=100.0),
            steps=3,
        )
        scheduler.add(fresh)
        scheduler.add(deep)
        # utility/MAC: fresh = 1/100 beats deep = (1/4)/100.
        assert scheduler.pick(now=0.0) is fresh
        assert scheduler.select([fresh, deep], now=0.0) is fresh

    def test_cheap_step_beats_expensive_step(self):
        scheduler = UtilityPerMacScheduler()
        cheap = _job(0, 5.0, session=_StubSession(step_macs=10.0))
        costly = _job(1, 0.0, session=_StubSession(step_macs=1000.0))
        scheduler.add(cheap)
        scheduler.add(costly)
        assert scheduler.pick(now=0.0) is cheap

    def test_end_to_end_completes_everything(self, stepping_network, sample_pool):
        images, _ = sample_pool
        requests = poisson_stream(
            images, rate=60.0, num_requests=16, batch_size=1, seed=5
        )
        report = _serve(
            stepping_network, requests, scheduler=get_scheduler("utility-per-mac")
        )
        assert len(report.completed_jobs) == 16


# ----------------------------------------------------------------------
# Per-edge index: purge guarantees under expiry and finalisation
# ----------------------------------------------------------------------
class TestEdgeIndexPurge:
    def test_discard_purges_counts_and_lookups(self):
        scheduler = get_scheduler("edf")
        jobs = [_job(i, float(i), deadline=10.0 + i) for i in range(3)]
        for job in jobs:
            scheduler.add(job)
        entry = (-1, 0)
        assert scheduler.count_at_edge(entry) == 3
        # Expiry-heap style discard: never picked, dropped directly.
        scheduler.discard(jobs[1])
        assert scheduler.count_at_edge(entry) == 2
        remaining = scheduler.jobs_at_edge(entry)
        assert [job.request.request_id for job in remaining] == [0, 2]
        assert remaining[0] is jobs[0] and remaining[1] is jobs[2]
        scheduler.discard(jobs[0])
        scheduler.discard(jobs[2])
        assert scheduler.edges() == []
        assert scheduler.count_at_edge(entry) == 0
        assert scheduler.jobs_at_edge(entry) == []

    def test_reindex_moves_job_between_edges(self):
        scheduler = get_scheduler("fifo")
        job = _job(0, 0.0, session=_StubSession())
        scheduler.add(job)
        assert scheduler.count_at_edge((-1, 0)) == 1
        # The job executes level 0: its edge moves to (0, 1).
        job.session.current_subnet = 0
        job.session._next = 1
        job.steps_executed = 1
        scheduler.reindex(job)
        assert scheduler.count_at_edge((-1, 0)) == 0
        assert (-1, 0) not in scheduler.edges()
        assert scheduler.count_at_edge((0, 1)) == 1
        assert scheduler.jobs_at_edge((0, 1)) == [job]
        assert scheduler.pick(now=0.0) is job

    def test_drop_expired_leaves_no_stale_index_state(
        self, stepping_network, sample_pool
    ):
        """After expiry drops, the dropped jobs are gone from every edge."""
        images, _ = sample_pool
        trace = _calibrated_trace(stepping_network)
        requests = [
            # One long-running head-of-line job ...
            Request(request_id=0, arrival_time=0.0, inputs=images[:1]),
            # ... and two that expire while queued behind it.
            Request(request_id=1, arrival_time=0.0, inputs=images[1:2], deadline=0.01),
            Request(request_id=2, arrival_time=0.0, inputs=images[2:3], deadline=0.01),
            Request(request_id=3, arrival_time=0.5, inputs=images[3:4]),
        ]
        engine = ServingEngine(
            SteppingBackend(stepping_network),
            trace,
            "fifo",
            batch_policy=get_batch_policy("continuous", max_batch_size=1),
            drop_expired=True,
        )
        run = engine.open_run()
        for request in requests:
            run.push(request)
        report = run.finish()
        assert {job.status for job in report.jobs if job.request.deadline} == {"dropped"}
        assert len(report.completed_jobs) == 2
        # The run's queue is fully drained: no edge still counts a job.
        assert len(run.scheduler) == 0
        assert run.scheduler.edges() == []
        assert run.scheduler.count_at_edge((-1, 0)) == 0

    def test_entry_edge_depth_tracks_unstarted_jobs(
        self, stepping_network, sample_pool
    ):
        images, _ = sample_pool
        engine = ServingEngine(
            SteppingBackend(stepping_network),
            _calibrated_trace(stepping_network, seconds_for_largest=1.0),
        )
        run = engine.open_run()
        assert run.entry_edge_depth == 0
        for i in range(3):
            run.push(Request(request_id=i, arrival_time=0.0, inputs=images[i : i + 1]))
        run.run_until(0.0)
        # One job started its first level; two still sit at the entry edge.
        assert run.entry_edge_depth == 2
        run.finish()
        assert run.entry_edge_depth == 0


# ----------------------------------------------------------------------
# Per-step confidence: one softmax per pass, identical to the solo value
# ----------------------------------------------------------------------
class TestStepConfidence:
    @staticmethod
    def _ragged_stream(images):
        """Batch-1 and batch-3 requests sharing the entry edge, in waves."""
        requests = []
        for i in range(12):
            rows = 3 if i % 3 == 1 else 1
            start = (2 * i) % (len(images) - rows)
            requests.append(
                Request(
                    request_id=i,
                    arrival_time=0.0 if i < 4 else 0.02 * (i // 2),
                    inputs=images[start : start + rows],
                )
            )
        return requests

    @pytest.mark.parametrize("policy", ["same-level", "continuous"])
    def test_confidence_bit_equal_to_solo_softmax(self, stepping_network, sample_pool, policy):
        images, _ = sample_pool
        requests = self._ragged_stream(images)
        confident = ConfidencePolicy(threshold=0.3, respect_deadline=False)
        oracle = _serve(
            stepping_network, requests, policy="none",
            backend=SteppingBackend(stepping_network, policy=confident),
        )
        recorder = ObservabilitySpec(enabled=True).build()
        engine = ServingEngine(
            SteppingBackend(stepping_network, policy=confident),
            _calibrated_trace(stepping_network),
            batch_policy=get_batch_policy(policy, max_batch_size=4),
        )
        report = engine.serve(requests, recorder=recorder)
        rows = {request.request_id: request.batch_size for request in requests}
        mixed = [
            event for event in recorder.events
            if event["type"] == "dispatch" and {rows[i] for i in event["members"]} == {1, 3}
        ]
        assert mixed, "no pass shared batch-1 and batch-3 members"
        if policy == "continuous":
            assert report.refilled_jobs > 0
        # Some jobs stop early, so the verdicts really read the confidence.
        assert {job.final_subnet for job in oracle.jobs} != {stepping_network.num_subnets - 1}
        _assert_bit_equal(oracle, report)
        for job, reference in zip(report.jobs, oracle.jobs):
            for step, solo in zip(job.steps, reference.steps):
                assert step.confidence == prediction_confidence(step.logits)
                assert step.confidence == solo.confidence

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e2, 1e4])
    def test_confidence_bit_equal_across_logit_scales(self, stepping_network, sample_pool, scale):
        """``1 / sum(exp(x - max))`` is the softmax's top probability, bit for bit."""
        images, _ = sample_pool
        requests = self._ragged_stream(images * scale)
        report = _serve(stepping_network, requests, policy="same-level", max_batch_size=4)
        steps = [step for job in report.jobs for step in job.steps]
        assert len(steps) == len(requests) * stepping_network.num_subnets
        for step in steps:
            assert step.confidence == prediction_confidence(step.logits)
