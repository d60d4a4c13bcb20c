"""Tests for the anytime executors (reuse vs recompute)."""

import math

import numpy as np
import pytest

from repro.runtime.executor import AnytimeExecutor, RecomputeExecutor
from repro.runtime.platform import ResourceTrace
from repro.runtime.policies import (
    ConfidencePolicy,
    DeadlineAwarePolicy,
    FixedSubnetPolicy,
    GreedyPolicy,
)
from repro.serving.engine import JobRecord, ServedStep
from repro.serving.request import Request


@pytest.fixture
def inputs(image_batch):
    images, _ = image_batch
    return images[:4]


@pytest.fixture
def fast_trace():
    return ResourceTrace.constant(1e12)


class TestAnytimeExecutor:
    def test_reaches_largest_subnet_with_generous_resources(self, stepping_network, inputs, fast_trace):
        executor = AnytimeExecutor(stepping_network, fast_trace, GreedyPolicy())
        record = executor.execute(inputs, deadline=100.0)
        assert record.final_subnet == stepping_network.num_subnets - 1
        assert len(record.steps) == stepping_network.num_subnets

    def test_total_macs_equal_largest_subnet(self, stepping_network, inputs, fast_trace):
        executor = AnytimeExecutor(stepping_network, fast_trace, GreedyPolicy())
        record = executor.execute(inputs, deadline=100.0)
        assert record.total_macs_charged == pytest.approx(
            stepping_network.subnet_macs(stepping_network.num_subnets - 1)
        )

    def test_logits_match_direct_forward(self, stepping_network, inputs, fast_trace):
        executor = AnytimeExecutor(stepping_network, fast_trace, GreedyPolicy())
        record = executor.execute(inputs, deadline=100.0)
        stepping_network.eval()
        direct = stepping_network.forward(inputs, subnet=stepping_network.num_subnets - 1)
        np.testing.assert_allclose(record.final_logits, direct.data, rtol=1e-8, atol=1e-8)

    def test_deadline_limits_stepping(self, stepping_network, inputs):
        macs_first = stepping_network.subnet_macs(0)
        # Rate such that the first subnet takes exactly 1s; deadline allows little more.
        trace = ResourceTrace.constant(float(macs_first))
        executor = AnytimeExecutor(stepping_network, trace, GreedyPolicy())
        record = executor.execute(inputs, deadline=1.5)
        assert record.final_subnet < stepping_network.num_subnets - 1
        assert record.deadline_met

    def test_deadline_aware_slack_follows_start_time(self, stepping_network, inputs):
        # The whole ladder takes 1 s; a 10 s budget with a 10% margin
        # leaves room for every level however late the budget starts.
        largest = float(stepping_network.subnet_macs(stepping_network.num_subnets - 1))
        executor = AnytimeExecutor(
            stepping_network, ResourceTrace.constant(largest), DeadlineAwarePolicy(margin=0.1)
        )
        for start in (0.0, 100.0):
            record = executor.execute(inputs, start_time=start, deadline=start + 10.0)
            assert record.final_subnet == stepping_network.num_subnets - 1
            assert record.deadline_met

    def test_zero_throughput_reports_infinite_finish(self, stepping_network, inputs):
        trace = ResourceTrace.constant(0.0)
        executor = AnytimeExecutor(stepping_network, trace, GreedyPolicy())
        record = executor.execute(inputs, deadline=1.0)
        assert math.isinf(record.completion_time)
        assert not record.deadline_met
        # Without a deadline a greedy policy would step up again, but the
        # first step never finishes: the job is starved after one step.
        record = executor.execute(inputs)
        assert len(record.steps) == 1
        assert math.isinf(record.completion_time)
        assert record.status == "starved"
        assert record.stop_reason == "trace provides no further throughput"

    def test_confidence_policy_may_stop_early(self, stepping_network, inputs, fast_trace):
        executor = AnytimeExecutor(
            stepping_network, fast_trace, ConfidencePolicy(threshold=1e-6)
        )
        record = executor.execute(inputs, deadline=100.0)
        assert record.final_subnet == 0
        assert "confident" in record.stop_reason

    def test_fixed_policy_stops_at_level(self, stepping_network, inputs, fast_trace):
        executor = AnytimeExecutor(stepping_network, fast_trace, FixedSubnetPolicy(subnet=1))
        record = executor.execute(inputs, deadline=100.0)
        assert record.final_subnet == 1

    def test_reuse_recorded_for_later_steps(self, stepping_network, inputs, fast_trace):
        executor = AnytimeExecutor(stepping_network, fast_trace, GreedyPolicy())
        record = executor.execute(inputs, deadline=100.0)
        assert record.steps[0].macs_reused == 0.0
        assert all(step.macs_reused > 0 for step in record.steps[1:])

    def test_overhead_charged_per_step(self, stepping_network, inputs, fast_trace):
        executor = AnytimeExecutor(
            stepping_network, fast_trace, GreedyPolicy(), overhead_per_step=0.25
        )
        record = executor.execute(inputs, deadline=100.0)
        assert record.completion_time >= 0.25 * len(record.steps)

    def test_negative_overhead_rejected(self, stepping_network, fast_trace):
        with pytest.raises(ValueError):
            AnytimeExecutor(stepping_network, fast_trace, overhead_per_step=-0.1)

    def test_subnet_at_deadline(self, stepping_network, inputs):
        macs_first = stepping_network.subnet_macs(0)
        trace = ResourceTrace.constant(float(macs_first))
        executor = AnytimeExecutor(stepping_network, trace, GreedyPolicy())
        record = executor.execute(inputs, deadline=50.0)
        assert record.subnet_at_deadline == record.final_subnet
        early = executor.execute(inputs, deadline=record.steps[0].finish_time)
        assert early.subnet_at_deadline == 0
        assert executor.execute(inputs, deadline=0.5).subnet_at_deadline == -1


    def test_deadline_not_enforced(self, stepping_network, inputs):
        # The policy alone decides when to stop: a deadline-blind policy
        # keeps refining past the deadline instead of being cut off there.
        trace = ResourceTrace.constant(float(stepping_network.subnet_macs(0)))
        policy = ConfidencePolicy(threshold=1.0, respect_deadline=False)
        executor = AnytimeExecutor(stepping_network, trace, policy)
        record = executor.execute(inputs, deadline=1.5)
        assert record.status == "completed"
        assert record.final_subnet == stepping_network.num_subnets - 1
        assert record.completion_time > 1.5
        assert record.deadline_met

    def test_repeated_execute_is_independent(self, stepping_network, inputs, fast_trace):
        executor = AnytimeExecutor(stepping_network, fast_trace, GreedyPolicy())
        first = executor.execute(inputs, start_time=2.0, deadline=100.0)
        second = executor.execute(inputs, start_time=2.0, deadline=100.0)
        assert first.steps[0].start_time == 2.0
        assert [s.finish_time for s in second.steps] == [s.finish_time for s in first.steps]
        np.testing.assert_array_equal(second.final_logits, first.final_logits)


class TestRecomputeExecutor:
    def test_charges_full_macs_per_step(self, stepping_network, inputs, fast_trace):
        executor = RecomputeExecutor(stepping_network, fast_trace, GreedyPolicy())
        record = executor.execute(inputs, deadline=100.0)
        expected = sum(
            stepping_network.subnet_macs(i) for i in range(stepping_network.num_subnets)
        )
        assert record.total_macs_charged == pytest.approx(expected)
        assert record.total_macs_reused == 0.0

    def test_more_expensive_than_reuse(self, stepping_network, inputs, fast_trace):
        reuse = AnytimeExecutor(stepping_network, fast_trace, GreedyPolicy()).execute(
            inputs, deadline=100.0
        )
        recompute = RecomputeExecutor(stepping_network, fast_trace, GreedyPolicy()).execute(
            inputs, deadline=100.0
        )
        assert recompute.total_macs_charged > reuse.total_macs_charged

    def test_same_final_logits_as_reuse(self, stepping_network, inputs, fast_trace):
        reuse = AnytimeExecutor(stepping_network, fast_trace, GreedyPolicy()).execute(
            inputs, deadline=100.0
        )
        recompute = RecomputeExecutor(stepping_network, fast_trace, GreedyPolicy()).execute(
            inputs, deadline=100.0
        )
        np.testing.assert_allclose(reuse.final_logits, recompute.final_logits, rtol=1e-8)

    def test_reaches_fewer_levels_under_tight_budget(self, stepping_network, inputs):
        # A budget that lets the reuse executor finish all levels but the
        # recompute executor pay for each level from scratch.
        largest = stepping_network.subnet_macs(stepping_network.num_subnets - 1)
        trace = ResourceTrace.constant(float(largest))
        deadline = 1.05  # just enough for ~1x the largest subnet's MACs
        reuse = AnytimeExecutor(stepping_network, trace, GreedyPolicy()).execute(
            inputs, deadline=deadline
        )
        recompute = RecomputeExecutor(stepping_network, trace, GreedyPolicy()).execute(
            inputs, deadline=deadline
        )
        assert reuse.final_subnet >= recompute.final_subnet


def _step(finish_time, subnet=0, start_time=0.0):
    return ServedStep(
        subnet=subnet,
        start_time=start_time,
        finish_time=finish_time,
        macs_charged=1.0,
        macs_reused=0.0,
        confidence=1.0,
    )


def _record(deadline=None, steps=()):
    request = Request(0, 0.0, np.zeros((1, 3, 4, 4)), deadline=deadline)
    return JobRecord(request=request, steps=list(steps))


class TestDeadlineMetSemantics:
    """Regression tests for the tightened ``JobRecord.deadline_met``.

    The mandatory first step must have *completed* (finite finish time)
    at or before the deadline; later optional refinements that overrun do
    not revoke it, and an empty or never-finishing execution never meets
    a deadline.
    """

    def test_empty_record_with_deadline(self):
        assert not _record(deadline=1.0).deadline_met

    def test_empty_record_without_deadline(self):
        assert not _record().deadline_met

    def test_exact_boundary_counts_as_met(self):
        record = _record(deadline=1.0, steps=[_step(finish_time=1.0)])
        assert record.deadline_met

    def test_just_past_boundary_misses(self):
        record = _record(deadline=1.0, steps=[_step(finish_time=1.0 + 1e-9)])
        assert not record.deadline_met

    def test_overrunning_refinement_does_not_revoke(self):
        record = _record(
            deadline=1.0,
            steps=[_step(finish_time=0.5), _step(finish_time=2.0, subnet=1, start_time=0.5)],
        )
        assert record.deadline_met

    def test_infinite_first_step_never_met_without_deadline(self):
        record = _record(steps=[_step(finish_time=math.inf)])
        assert not record.deadline_met

    def test_finite_first_step_met_without_deadline(self):
        record = _record(steps=[_step(finish_time=3.0)])
        assert record.deadline_met

    def test_executor_zero_throughput(self, stepping_network, inputs):
        trace = ResourceTrace.constant(0.0)
        record = AnytimeExecutor(stepping_network, trace, GreedyPolicy()).execute(
            inputs, deadline=1.0
        )
        assert not record.deadline_met


class TestBackendUnification:
    """The executors are one-request calls to the serving engine."""

    def test_executor_exposes_backend(self, stepping_network, fast_trace):
        from repro.serving.backend import RecomputeBackend, SteppingBackend

        assert isinstance(
            AnytimeExecutor(stepping_network, fast_trace).backend, SteppingBackend
        )
        assert isinstance(
            RecomputeExecutor(stepping_network, fast_trace).backend, RecomputeBackend
        )
