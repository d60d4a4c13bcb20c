"""Tests for the frame-stream simulation."""

import numpy as np
import pytest

from repro.runtime.executor import AnytimeExecutor, RecomputeExecutor
from repro.runtime.platform import ResourceTrace
from repro.runtime.policies import GreedyPolicy
from repro.runtime.simulation import periodic_requests, simulate_stream


@pytest.fixture
def images_and_labels(image_dataset):
    images = np.stack([image_dataset[i][0] for i in range(12)])
    labels = np.array([image_dataset[i][1] for i in range(12)])
    return images, labels


@pytest.fixture
def fast_trace():
    return ResourceTrace.constant(1e12)


class TestPeriodicRequests:
    def test_frame_count(self, images_and_labels):
        images, labels = images_and_labels
        requests = periodic_requests(images, labels, frame_period=0.1, relative_deadline=0.05, batch_size=4)
        assert len(requests) == 3
        assert [r.request_id for r in requests] == [0, 1, 2]

    def test_arrival_times_are_periodic(self, images_and_labels):
        images, labels = images_and_labels
        requests = periodic_requests(images, labels, frame_period=0.5, relative_deadline=0.1, batch_size=4)
        arrivals = [r.arrival_time for r in requests]
        assert arrivals == pytest.approx([0.0, 0.5, 1.0])

    def test_labels_partitioned_with_inputs(self, images_and_labels):
        images, labels = images_and_labels
        requests = periodic_requests(images, labels, frame_period=0.1, relative_deadline=0.05, batch_size=5)
        assert sum(len(r.labels) for r in requests) == len(labels)
        assert all(len(r.labels) == len(r.inputs) for r in requests)
        # Contiguous slices: the last frame takes the remainder.
        assert [len(r.inputs) for r in requests] == [5, 5, 2]
        np.testing.assert_array_equal(np.concatenate([r.labels for r in requests]), labels)

    def test_without_labels(self, images_and_labels):
        images, _ = images_and_labels
        requests = periodic_requests(images, None, frame_period=0.1, relative_deadline=0.05, batch_size=4)
        assert all(r.labels is None for r in requests)

    @pytest.mark.parametrize("kwargs", [
        {"frame_period": 0.0},
        {"relative_deadline": 0.0},
        {"batch_size": 0},
    ])
    def test_invalid_arguments(self, images_and_labels, kwargs):
        images, labels = images_and_labels
        defaults = {"frame_period": 0.1, "relative_deadline": 0.1, "batch_size": 4}
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            periodic_requests(images, labels, **defaults)


class TestSimulateStream:
    def test_all_frames_processed(self, stepping_network, images_and_labels, fast_trace):
        images, labels = images_and_labels
        requests = periodic_requests(images, labels, frame_period=1.0, relative_deadline=0.5, batch_size=4)
        executor = AnytimeExecutor(stepping_network, fast_trace, GreedyPolicy())
        summary = simulate_stream(executor, requests)
        assert summary.num_jobs == len(requests)

    def test_generous_resources_reach_largest_subnet(self, stepping_network, images_and_labels, fast_trace):
        images, labels = images_and_labels
        requests = periodic_requests(images, labels, frame_period=1.0, relative_deadline=0.5, batch_size=4)
        executor = AnytimeExecutor(stepping_network, fast_trace, GreedyPolicy())
        summary = simulate_stream(executor, requests)
        assert summary.deadline_miss_rate == 0.0
        assert summary.mean_subnet_at_deadline == pytest.approx(stepping_network.num_subnets - 1)

    def test_starved_platform_misses_deadlines(self, stepping_network, images_and_labels):
        images, labels = images_and_labels
        requests = periodic_requests(images, labels, frame_period=1.0, relative_deadline=0.5, batch_size=4)
        executor = AnytimeExecutor(stepping_network, ResourceTrace.constant(1.0), GreedyPolicy())
        summary = simulate_stream(executor, requests)
        assert summary.deadline_miss_rate == 1.0
        assert summary.mean_subnet_at_deadline == -1.0

    def test_accuracy_fields_populated_with_labels(self, stepping_network, images_and_labels, fast_trace):
        images, labels = images_and_labels
        requests = periodic_requests(images, labels, frame_period=1.0, relative_deadline=0.5, batch_size=4)
        executor = AnytimeExecutor(stepping_network, fast_trace, GreedyPolicy())
        summary = simulate_stream(executor, requests)
        final = [
            (job.final_logits.argmax(axis=-1) == job.request.labels).mean()
            for job in summary.jobs
        ]
        assert 0.0 <= np.mean(final) <= 1.0
        assert 0.0 <= summary.mean_accuracy_at_deadline <= 1.0

    def test_head_of_line_blocking(self, stepping_network, images_and_labels):
        """A slow frame delays the start of the next frame."""
        images, labels = images_and_labels
        macs_first = stepping_network.subnet_macs(0)
        trace = ResourceTrace.constant(float(macs_first))  # 1s per smallest subnet
        requests = periodic_requests(images, labels, frame_period=0.1, relative_deadline=5.0, batch_size=4)
        executor = AnytimeExecutor(stepping_network, trace, GreedyPolicy())
        summary = simulate_stream(executor, requests)
        starts = [job.steps[0].start_time for job in summary.jobs]
        assert starts == sorted(starts)
        assert starts[1] >= summary.jobs[0].completion_time - 1e-9

    def test_as_dict_keys(self, stepping_network, images_and_labels, fast_trace):
        images, labels = images_and_labels
        requests = periodic_requests(images, labels, frame_period=1.0, relative_deadline=0.5, batch_size=6)
        executor = AnytimeExecutor(stepping_network, fast_trace, GreedyPolicy())
        summary = simulate_stream(executor, requests)
        payload = summary.as_dict()
        assert {"num_jobs", "deadline_miss_rate", "mean_accuracy_at_deadline", "total_macs"} <= set(payload)
        assert payload["num_jobs"] == len(requests)
        assert payload["scheduler"] == "fifo"


class TestCompareExecutors:
    def test_reuse_saves_macs(self, stepping_network, images_and_labels, fast_trace):
        images, labels = images_and_labels
        requests = periodic_requests(images, labels, frame_period=1.0, relative_deadline=0.5, batch_size=4)
        reuse = simulate_stream(
            AnytimeExecutor(stepping_network, fast_trace, GreedyPolicy()), requests
        )
        recompute = simulate_stream(
            RecomputeExecutor(stepping_network, fast_trace, GreedyPolicy()), requests
        )
        assert reuse.total_macs < recompute.total_macs
        assert reuse.total_macs_reused > 0.0

    def test_empty_summary_defaults(self, stepping_network, fast_trace):
        summary = simulate_stream(AnytimeExecutor(stepping_network, fast_trace), [])
        assert summary.num_jobs == 0
        assert summary.deadline_miss_rate == 0.0
        assert summary.total_macs == 0.0
        assert np.isnan(summary.mean_accuracy_at_deadline)
