"""Tests for requests and request-stream generators."""

import numpy as np
import pytest

from repro.serving.request import (
    Request,
    bursty_stream,
    periodic_stream,
    poisson_stream,
    trace_replay_stream,
)
from repro.utils.errors import ConfigError


@pytest.fixture
def images():
    return np.zeros((10, 3, 4, 4))


@pytest.fixture
def labels():
    return np.arange(10)


class TestRequest:
    def test_deadline_must_follow_arrival(self):
        with pytest.raises(ValueError):
            Request(request_id=0, arrival_time=1.0, inputs=np.zeros((1, 3, 4, 4)), deadline=1.0)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ConfigError):
            Request(request_id=0, arrival_time=-0.5, inputs=np.zeros((1, 3, 4, 4)))

    @pytest.mark.parametrize(
        "arrival, deadline",
        [(float("nan"), None), (float("inf"), None), (0.0, float("nan"))],
        ids=["nan-arrival", "inf-arrival", "nan-deadline"],
    )
    def test_non_finite_times_rejected(self, arrival, deadline):
        # Non-finite times would hang the event loop (NaN arrival) or
        # count a served request as a miss (NaN deadline).
        with pytest.raises(ConfigError):
            Request(request_id=0, arrival_time=arrival, inputs=np.zeros((1, 3, 4, 4)), deadline=deadline)

    def test_relative_deadline(self):
        request = Request(request_id=0, arrival_time=2.0, inputs=np.zeros((1, 3, 4, 4)), deadline=3.5)
        assert request.relative_deadline == pytest.approx(1.5)

    def test_best_effort_relative_deadline_is_inf(self):
        request = Request(request_id=0, arrival_time=2.0, inputs=np.zeros((1, 3, 4, 4)))
        assert np.isinf(request.relative_deadline)


class TestPoissonStream:
    def test_count_and_sorted_arrivals(self, images, labels):
        requests = poisson_stream(images, labels, rate=5.0, num_requests=40, seed=0)
        assert len(requests) == 40
        arrivals = [r.arrival_time for r in requests]
        assert arrivals == sorted(arrivals)

    def test_mean_rate_roughly_respected(self, images):
        requests = poisson_stream(images, rate=10.0, num_requests=500, seed=0)
        span = requests[-1].arrival_time - requests[0].arrival_time
        assert 500 / span == pytest.approx(10.0, rel=0.25)

    def test_seed_reproducible(self, images):
        a = poisson_stream(images, rate=2.0, num_requests=10, seed=3)
        b = poisson_stream(images, rate=2.0, num_requests=10, seed=3)
        assert [r.arrival_time for r in a] == [r.arrival_time for r in b]

    def test_deadlines_relative_to_arrival(self, images):
        requests = poisson_stream(images, rate=2.0, num_requests=10, relative_deadline=0.5, seed=0)
        for request in requests:
            assert request.deadline == pytest.approx(request.arrival_time + 0.5)

    def test_labels_cycled_with_inputs(self, images, labels):
        requests = poisson_stream(images, labels, rate=2.0, num_requests=12, batch_size=3, seed=0)
        for request in requests:
            assert request.labels is not None
            assert len(request.labels) == len(request.inputs) == 3

    def test_priority_levels(self, images):
        requests = poisson_stream(
            images, rate=2.0, num_requests=50, priority_levels=3, seed=0
        )
        priorities = {r.priority for r in requests}
        assert priorities <= {0, 1, 2}
        assert len(priorities) > 1

    @pytest.mark.parametrize(
        "kwargs",
        [{"rate": 0.0}, {"num_requests": 0}, {"batch_size": 0}, {"priority_levels": 0}],
    )
    def test_invalid_arguments(self, images, kwargs):
        defaults = {"rate": 1.0, "num_requests": 5, "batch_size": 1, "priority_levels": 1}
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            poisson_stream(images, **defaults)


class TestBurstyStream:
    def test_burst_structure(self, images):
        requests = bursty_stream(
            images, num_bursts=4, burst_size=5, mean_gap=10.0, seed=0
        )
        assert len(requests) == 20
        arrivals = np.array([r.arrival_time for r in requests])
        # Members of one burst arrive simultaneously by default.
        for burst in range(4):
            member_arrivals = arrivals[burst * 5 : (burst + 1) * 5]
            assert np.allclose(member_arrivals, member_arrivals[0])

    def test_intra_burst_gap(self, images):
        requests = bursty_stream(
            images, num_bursts=1, burst_size=3, mean_gap=1.0, intra_burst_gap=0.1, seed=0
        )
        arrivals = [r.arrival_time for r in requests]
        assert arrivals[1] - arrivals[0] == pytest.approx(0.1)
        assert arrivals[2] - arrivals[1] == pytest.approx(0.1)


class TestPeriodicStream:
    def test_fixed_period(self, images):
        requests = periodic_stream(images, period=0.25, num_requests=5)
        arrivals = [r.arrival_time for r in requests]
        assert arrivals == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


class TestTraceReplayStream:
    def test_replay_sorts_timestamps(self, images):
        requests = trace_replay_stream([0.5, 0.1, 0.9], images)
        assert [r.arrival_time for r in requests] == [0.1, 0.5, 0.9]
        assert [r.request_id for r in requests] == [0, 1, 2]

    def test_empty_rejected(self, images):
        with pytest.raises(ValueError):
            trace_replay_stream([], images)

    def test_negative_rejected(self, images):
        with pytest.raises(ValueError):
            trace_replay_stream([-1.0, 0.5], images)
