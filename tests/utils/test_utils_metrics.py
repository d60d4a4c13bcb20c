"""Edge-case tests for the metrics primitives (`repro.utils.metrics`).

The serving reports, SLO scorecards and sweep rows all route their
percentile math through this module, so the corner cases — empty data,
single samples, NaN observations, empty histograms — must be pinned
down here, once.
"""

import json
import math

import numpy as np
import pytest

from repro.utils.metrics import (
    DEFAULT_BUCKETS,
    LATENCY_QUANTILES,
    Histogram,
    MetricsRegistry,
    percentile,
    quantile_summary,
)


# ----------------------------------------------------------------------
# The canonical percentile helper
# ----------------------------------------------------------------------
class TestPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 95.0))

    def test_single_sample_is_that_sample_at_every_q(self):
        for q in (0.0, 50.0, 99.0, 100.0):
            assert percentile([3.5], q) == 3.5

    def test_matches_numpy_interpolation(self):
        values = [0.1, 0.5, 0.2, 0.9, 0.4]
        for q in (0.0, 25.0, 50.0, 95.0, 100.0):
            assert percentile(values, q) == pytest.approx(np.percentile(values, q))

    def test_q_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentile([1.0], 101.0)
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentile([1.0], -0.1)

    def test_quantile_summary_keys_and_empty(self):
        summary = quantile_summary([1.0, 2.0, 3.0])
        assert set(summary) == {f"p{q:g}" for q in LATENCY_QUANTILES}
        assert summary["p50"] == 2.0
        empty = quantile_summary([])
        assert all(math.isnan(value) for value in empty.values())


# ----------------------------------------------------------------------
# Histogram quantiles
# ----------------------------------------------------------------------
class TestHistogramQuantile:
    def test_empty_is_nan(self):
        histogram = Histogram("h")
        assert math.isnan(histogram.quantile(50.0))

    def test_single_sample_is_exact(self):
        histogram = Histogram("h")
        histogram.observe(3.7)
        for q in (0.0, 50.0, 100.0):
            assert histogram.quantile(q) == 3.7

    def test_identical_samples_are_exact(self):
        histogram = Histogram("h")
        for _ in range(10):
            histogram.observe(5.0)
        assert histogram.quantile(99.0) == 5.0

    def test_estimates_stay_inside_observed_envelope(self):
        histogram = Histogram("h")
        values = [0.5, 1.5, 3.0, 7.0, 20.0, 55.0]
        for value in values:
            histogram.observe(value)
        for q in (1.0, 25.0, 50.0, 75.0, 99.0):
            estimate = histogram.quantile(q)
            assert min(values) <= estimate <= max(values)

    def test_monotone_in_q(self):
        histogram = Histogram("h")
        rng = np.random.default_rng(0)
        for value in rng.uniform(0.0, 70.0, size=200):
            histogram.observe(float(value))
        estimates = [histogram.quantile(q) for q in (10, 25, 50, 75, 90, 99)]
        assert estimates == sorted(estimates)

    def test_overflow_bucket_clamps_to_max(self):
        histogram = Histogram("h", boundaries=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(100.0)  # overflow bucket
        assert histogram.quantile(100.0) == 100.0
        assert histogram.quantile(0.0) == 0.5

    def test_q_out_of_range_rejected(self):
        histogram = Histogram("h")
        histogram.observe(1.0)
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            histogram.quantile(150.0)

    def test_default_buckets_are_sorted_and_frozen(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        with pytest.raises(ValueError, match="sorted"):
            Histogram("h", boundaries=(2.0, 1.0))


# ----------------------------------------------------------------------
# Snapshots: NaN handling, empty histograms
# ----------------------------------------------------------------------
class TestSnapshots:
    def test_empty_histogram_snapshot_has_none_min_max(self):
        registry = MetricsRegistry()
        registry.histogram("latency")
        snap = registry.snapshot()
        assert snap["histograms"]["latency"]["min"] is None
        assert snap["histograms"]["latency"]["max"] is None
        assert snap["histograms"]["latency"]["count"] == 0
        json.dumps(snap)  # None, not NaN: strictly JSON-serialisable

    def test_nan_observation_lands_in_overflow_and_min_max_stay_finite_free(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", boundaries=(1.0,))
        histogram.observe(float("nan"))
        snap = registry.snapshot()["histograms"]["h"]
        # NaN fails every `value <= boundary` test -> overflow bucket.
        assert snap["counts"] == [0, 1]
        assert snap["count"] == 1
        # The sum is poisoned (NaN), which json.dumps refuses under
        # allow_nan=False — consumers sanitise, as SLOScorecard.to_dict
        # does.  Document the contract here.
        assert math.isnan(snap["sum"])

    def test_gauge_snapshot_tracks_last_and_max(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(5.0)
        gauge.set(2.0)
        assert registry.snapshot()["gauges"]["depth"] == {"last": 2.0, "max": 5.0}
