"""Tests for the step-up decision policies."""

import numpy as np
import pytest

from repro.runtime.policies import (
    ConfidencePolicy,
    DeadlineAwarePolicy,
    FixedSubnetPolicy,
    GreedyPolicy,
    PolicyState,
    prediction_confidence,
    prediction_entropy,
    softmax,
)


def make_state(
    current_subnet=0,
    num_subnets=4,
    logits=None,
    current_time=0.0,
    deadline=10.0,
    next_step_macs=100.0,
    estimated_finish_time=1.0,
    start_time=0.0,
):
    if logits is None:
        logits = np.array([[4.0, 0.0, 0.0], [3.0, 0.5, 0.5]])
    return PolicyState(
        current_subnet=current_subnet,
        num_subnets=num_subnets,
        logits=logits,
        current_time=current_time,
        deadline=deadline,
        next_step_macs=next_step_macs,
        estimated_finish_time=estimated_finish_time,
        start_time=start_time,
    )


class TestHelpers:
    def test_softmax_rows_sum_to_one(self):
        probs = softmax(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0)

    def test_softmax_handles_large_logits(self):
        probs = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(probs).all()

    def test_confidence_between_zero_and_one(self):
        assert 0.0 < prediction_confidence(np.array([[1.0, 0.5, 0.2]])) <= 1.0

    def test_uniform_logits_have_max_entropy(self):
        uniform = prediction_entropy(np.zeros((1, 4)))
        peaked = prediction_entropy(np.array([[10.0, 0.0, 0.0, 0.0]]))
        assert uniform > peaked
        assert uniform == pytest.approx(np.log(4), rel=1e-6)


class TestPolicyState:
    def test_has_larger_subnet(self):
        assert make_state(current_subnet=0).has_larger_subnet
        assert not make_state(current_subnet=3).has_larger_subnet

    def test_time_remaining(self):
        state = make_state(current_time=2.0, deadline=10.0)
        assert state.time_remaining == pytest.approx(8.0)

    def test_time_remaining_without_deadline(self):
        assert make_state(deadline=None).time_remaining == float("inf")


class TestGreedyPolicy:
    def test_steps_when_possible(self):
        assert GreedyPolicy().decide(make_state()).step_up

    def test_stops_at_largest(self):
        decision = GreedyPolicy().decide(make_state(current_subnet=3))
        assert not decision.step_up

    def test_stops_when_missing_deadline(self):
        state = make_state(estimated_finish_time=20.0, deadline=10.0)
        assert not GreedyPolicy().decide(state).step_up

    def test_no_deadline_always_steps(self):
        state = make_state(deadline=None, estimated_finish_time=1e9)
        assert GreedyPolicy().decide(state).step_up


class TestConfidencePolicy:
    def test_stops_when_confident(self):
        confident = np.array([[20.0, 0.0, 0.0]])
        state = make_state(logits=confident)
        assert not ConfidencePolicy(threshold=0.9).decide(state).step_up

    def test_steps_when_uncertain(self):
        uncertain = np.zeros((2, 3))
        state = make_state(logits=uncertain)
        assert ConfidencePolicy(threshold=0.9).decide(state).step_up

    def test_respects_deadline(self):
        uncertain = np.zeros((2, 3))
        state = make_state(logits=uncertain, estimated_finish_time=20.0, deadline=10.0)
        assert not ConfidencePolicy(threshold=0.9).decide(state).step_up

    def test_deadline_ignored_when_disabled(self):
        uncertain = np.zeros((2, 3))
        state = make_state(logits=uncertain, estimated_finish_time=20.0, deadline=10.0)
        policy = ConfidencePolicy(threshold=0.9, respect_deadline=False)
        assert policy.decide(state).step_up

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            ConfidencePolicy(threshold=0.0)


class TestDeadlineAwarePolicy:
    def test_steps_with_margin_available(self):
        state = make_state(estimated_finish_time=5.0, deadline=10.0)
        assert DeadlineAwarePolicy(margin=0.1).decide(state).step_up

    def test_stops_when_margin_violated(self):
        state = make_state(estimated_finish_time=9.5, deadline=10.0)
        assert not DeadlineAwarePolicy(margin=0.2).decide(state).step_up

    def test_no_deadline_keeps_refining(self):
        state = make_state(deadline=None)
        assert DeadlineAwarePolicy().decide(state).step_up

    def test_slack_is_a_share_of_the_request_budget(self):
        # A 10 s budget that starts at t=100: the 10% margin is 1 s of
        # slack, not 10% of the absolute deadline.
        state = make_state(
            current_time=100.0, start_time=100.0, deadline=110.0, estimated_finish_time=105.0
        )
        assert DeadlineAwarePolicy(margin=0.1).decide(state).step_up
        late = make_state(
            current_time=100.0, start_time=100.0, deadline=110.0, estimated_finish_time=109.5
        )
        assert not DeadlineAwarePolicy(margin=0.1).decide(late).step_up

    def test_invalid_margin(self):
        with pytest.raises(ValueError):
            DeadlineAwarePolicy(margin=1.0)


class TestFixedSubnetPolicy:
    def test_stops_at_fixed_level(self):
        assert not FixedSubnetPolicy(subnet=0).decide(make_state(current_subnet=0)).step_up

    def test_steps_below_fixed_level(self):
        assert FixedSubnetPolicy(subnet=2).decide(make_state(current_subnet=0)).step_up

    def test_respects_deadline(self):
        state = make_state(current_subnet=0, estimated_finish_time=20.0, deadline=10.0)
        assert not FixedSubnetPolicy(subnet=2).decide(state).step_up

    def test_invalid_subnet(self):
        with pytest.raises(ValueError):
            FixedSubnetPolicy(subnet=-1)
