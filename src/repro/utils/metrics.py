"""Deterministic metrics primitives for the observability layer.

The serving stack records *what happened* in two complementary shapes:
events (see :mod:`repro.serving.observe`) and metrics — monotone
counters, last-value gauges and fixed-bucket histograms.  Everything
here is deliberately boring: plain python scalars, fixed bucket
boundaries chosen at construction time, and sorted snapshot output, so
two runs of the same simulated workload produce byte-identical
snapshots.  ``ServingReport``/``ClusterReport`` consume these values
instead of recomputing them, which is what keeps the reports bit-exact
whether observability is on or off.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "LATENCY_QUANTILES",
    "percentile",
    "quantile_summary",
]

#: Power-of-two boundaries: right choice for batch sizes / queue depths.
DEFAULT_BUCKETS: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: The latency quantiles every serving report (and SLO scorecard) quotes.
LATENCY_QUANTILES: Tuple[float, ...] = (50.0, 95.0, 99.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (NaN when empty).

    The single percentile convention for the whole stack:
    ``ServingReport``, ``ClusterReport``, the SLO scorecards and the
    sweep harness all route their p50/p95/p99 math through this helper
    so every artifact quotes the same interpolation.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        return float("nan")
    return float(np.percentile(array, q))


def quantile_summary(
    values: Sequence[float], quantiles: Sequence[float] = LATENCY_QUANTILES
) -> Dict[str, float]:
    """``{"p50": ..., "p95": ..., "p99": ...}`` over ``values``.

    NaN entries when ``values`` is empty, matching :func:`percentile`.
    """
    array = np.asarray(values, dtype=float)
    return {f"p{q:g}": percentile(array, q) for q in quantiles}


class Counter:
    """A monotone additive counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def as_dict(self):
        return self.value


class Gauge:
    """Latest-value gauge that also tracks its running maximum."""

    __slots__ = ("name", "value", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.max = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max:
            self.max = value

    def as_dict(self):
        return {"last": self.value, "max": self.max}


class Histogram:
    """Histogram over fixed bucket boundaries.

    ``boundaries`` are upper-inclusive edges; a value ``v`` lands in the
    first bucket with ``v <= boundary``, or the overflow bucket.  The
    boundaries are frozen at construction so snapshots are deterministic
    regardless of the values observed.
    """

    __slots__ = ("name", "boundaries", "counts", "total", "count", "min", "max")

    def __init__(self, name: str, boundaries: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.boundaries = tuple(float(b) for b in boundaries)
        if list(self.boundaries) != sorted(self.boundaries):
            raise ValueError(f"histogram boundaries must be sorted: {boundaries!r}")
        self.counts: List[int] = [0] * (len(self.boundaries) + 1)
        self.total = 0.0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.boundaries)
        for i, boundary in enumerate(self.boundaries):
            if value <= boundary:
                index = i
                break
        self.counts[index] += 1
        self.total += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate in ``[0, 100]``.

        The histogram only keeps per-bucket counts, so the answer is an
        estimate: the target rank is located in its bucket and linearly
        interpolated across the bucket's span, clamped to the exact
        observed ``[min, max]`` envelope (which makes empty → NaN and a
        single sample → that sample exact rather than a bucket edge).
        Non-finite observations land in the overflow bucket; the
        interpolation skips their contribution by clamping to ``max``
        when it is finite.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        if self.count == 0:
            return float("nan")
        if self.count == 1 or self.min == self.max:
            return float(self.min)
        target = q / 100.0 * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            lower = self.boundaries[index - 1] if index > 0 else self.min
            upper = (
                self.boundaries[index] if index < len(self.boundaries) else self.max
            )
            if cumulative + bucket_count >= target:
                fraction = (target - cumulative) / bucket_count
                value = lower + (upper - lower) * max(0.0, min(1.0, fraction))
                return float(min(max(value, self.min), self.max))
            cumulative += bucket_count
        return float(self.max)

    def as_dict(self):
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Named counters/gauges/histograms with a deterministic snapshot.

    Lookups create on first use, so instrumentation sites never have to
    pre-declare the metrics they touch.
    """

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str, boundaries: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name, boundaries)
        return metric

    def snapshot(self) -> dict:
        """All metrics as a plain, sorted, JSON-serialisable dict."""
        return {
            "counters": {k: self._counters[k].as_dict() for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k].as_dict() for k in sorted(self._gauges)},
            "histograms": {k: self._histograms[k].as_dict() for k in sorted(self._histograms)},
        }
