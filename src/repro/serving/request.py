"""Requests and request-stream generators for the serving engine.

A :class:`Request` is one unit of client work: an input batch that
arrives at a point in time, optionally carries an absolute deadline and a
priority, and is executed as an anytime (stepping) inference by the
:class:`~repro.serving.engine.ServingEngine`.

The generators turn a pool of samples into open-loop arrival processes
representative of production traffic:

* :func:`poisson_stream` — memoryless arrivals at a constant rate, the
  canonical serving workload;
* :func:`bursty_stream` — batched arrival bursts separated by
  exponential gaps (traffic spikes, sensor bursts);
* :func:`periodic_stream` — fixed-period arrivals (a camera pipeline);
* :func:`trace_replay_stream` — replay of explicit arrival timestamps
  recorded from a real system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..utils.errors import ConfigError
from ..utils.rng import new_generator


@dataclass(frozen=True)
class Request:
    """One client request: an input batch with arrival metadata.

    Attributes
    ----------
    request_id:
        Unique identifier; also used as the final tie-breaker by every
        scheduler so that scheduling is deterministic.
    arrival_time:
        Absolute time (seconds) the request enters the system.
    inputs:
        The input batch to run through the network.
    deadline:
        Absolute time by which a usable result is wanted; ``None`` means
        best effort.
    priority:
        Larger is more important (used by the priority scheduler).
    labels:
        Optional ground truth for accuracy accounting.
    max_subnet:
        Largest subnet level this request may refine to; ``None`` means
        uncapped.  Set by degrading admission control ("serve a smaller
        answer rather than reject") — the engine stops stepping once the
        cap is reached.
    """

    request_id: int
    arrival_time: float
    inputs: np.ndarray
    deadline: Optional[float] = None
    priority: int = 0
    labels: Optional[np.ndarray] = None
    max_subnet: Optional[int] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.arrival_time) and self.arrival_time >= 0):
            raise ConfigError("arrival_time must be finite and non-negative")
        if self.deadline is not None:
            if math.isnan(self.deadline):
                raise ConfigError("deadline must not be NaN")
            if self.deadline <= self.arrival_time:
                raise ConfigError("deadline must be after arrival_time")
        if self.max_subnet is not None and self.max_subnet < 0:
            raise ConfigError("max_subnet must be >= 0 when set")

    @property
    def relative_deadline(self) -> float:
        """Seconds between arrival and deadline (``inf`` when best effort)."""
        if self.deadline is None:
            return float("inf")
        return self.deadline - self.arrival_time

    @property
    def batch_size(self) -> int:
        return int(self.inputs.shape[0])


def _slice_samples(
    images: np.ndarray, labels: Optional[np.ndarray], index: int, batch_size: int
):
    """Cyclic batch extraction so any stream length works with any pool."""
    n = len(images)
    picks = [(index * batch_size + offset) % n for offset in range(batch_size)]
    batch = images[picks]
    batch_labels = None if labels is None else np.asarray(labels)[picks]
    return batch, batch_labels


def _build_requests(
    arrivals: Sequence[float],
    images: np.ndarray,
    labels: Optional[np.ndarray],
    relative_deadline: Optional[float],
    batch_size: int,
    priorities: Optional[Sequence[int]] = None,
) -> List[Request]:
    requests: List[Request] = []
    for index, arrival in enumerate(arrivals):
        inputs, batch_labels = _slice_samples(images, labels, index, batch_size)
        deadline = None if relative_deadline is None else arrival + relative_deadline
        requests.append(
            Request(
                request_id=index,
                arrival_time=float(arrival),
                inputs=inputs,
                deadline=deadline,
                priority=0 if priorities is None else int(priorities[index]),
                labels=batch_labels,
            )
        )
    return requests


def poisson_stream(
    images: np.ndarray,
    labels: Optional[np.ndarray] = None,
    *,
    rate: float,
    num_requests: int,
    relative_deadline: Optional[float] = None,
    batch_size: int = 1,
    priority_levels: int = 1,
    start_time: float = 0.0,
    seed: Optional[int] = None,
) -> List[Request]:
    """Open-loop Poisson arrivals: ``rate`` requests per second on average.

    Inter-arrival gaps are exponential, so instantaneous load fluctuates
    around the mean — the standard model of independent user traffic.
    With ``priority_levels > 1`` each request draws a uniform priority in
    ``[0, priority_levels)``.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if priority_levels < 1:
        raise ValueError("priority_levels must be at least 1")
    rng = new_generator(seed)
    gaps = rng.exponential(1.0 / rate, size=num_requests)
    arrivals = start_time + np.cumsum(gaps)
    priorities = (
        rng.integers(0, priority_levels, size=num_requests) if priority_levels > 1 else None
    )
    return _build_requests(arrivals, images, labels, relative_deadline, batch_size, priorities)


def bursty_stream(
    images: np.ndarray,
    labels: Optional[np.ndarray] = None,
    *,
    num_bursts: int,
    burst_size: int,
    mean_gap: float,
    intra_burst_gap: float = 0.0,
    relative_deadline: Optional[float] = None,
    batch_size: int = 1,
    start_time: float = 0.0,
    seed: Optional[int] = None,
) -> List[Request]:
    """Bursts of ``burst_size`` near-simultaneous requests.

    Bursts are separated by exponential gaps with mean ``mean_gap``;
    requests inside a burst are ``intra_burst_gap`` seconds apart (0
    means truly simultaneous arrivals, the hardest case for a scheduler).
    """
    if num_bursts <= 0 or burst_size <= 0:
        raise ValueError("num_bursts and burst_size must be positive")
    if mean_gap <= 0:
        raise ValueError("mean_gap must be positive")
    if intra_burst_gap < 0:
        raise ValueError("intra_burst_gap must be non-negative")
    rng = new_generator(seed)
    arrivals: List[float] = []
    time = start_time
    for _ in range(num_bursts):
        time += float(rng.exponential(mean_gap))
        for member in range(burst_size):
            arrivals.append(time + member * intra_burst_gap)
    return _build_requests(arrivals, images, labels, relative_deadline, batch_size)


def periodic_stream(
    images: np.ndarray,
    labels: Optional[np.ndarray] = None,
    *,
    period: float,
    num_requests: int,
    relative_deadline: Optional[float] = None,
    batch_size: int = 1,
    start_time: float = 0.0,
) -> List[Request]:
    """Fixed-period arrivals (a camera or sensor pipeline)."""
    if period <= 0:
        raise ValueError("period must be positive")
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    arrivals = [start_time + index * period for index in range(num_requests)]
    return _build_requests(arrivals, images, labels, relative_deadline, batch_size)


def trace_replay_stream(
    arrival_times: Sequence[float],
    images: np.ndarray,
    labels: Optional[np.ndarray] = None,
    *,
    relative_deadline: Optional[float] = None,
    batch_size: int = 1,
) -> List[Request]:
    """Replay recorded arrival timestamps against the sample pool.

    ``arrival_times`` need not be sorted; requests are emitted in
    timestamp order with ids assigned after sorting.
    """
    if len(arrival_times) == 0:
        raise ValueError("arrival_times must not be empty")
    arrivals = sorted(float(t) for t in arrival_times)
    if arrivals[0] < 0:
        raise ValueError("arrival times must be non-negative")
    return _build_requests(arrivals, images, labels, relative_deadline, batch_size)


def _replay_stream(
    images: np.ndarray,
    labels: Optional[np.ndarray] = None,
    *,
    arrival_times: Sequence[float],
    relative_deadline: Optional[float] = None,
    batch_size: int = 1,
) -> List[Request]:
    """Registry adapter: :func:`trace_replay_stream` with the uniform
    ``(images, labels, **params)`` generator signature."""
    return trace_replay_stream(
        arrival_times,
        images,
        labels,
        relative_deadline=relative_deadline,
        batch_size=batch_size,
    )


#: Name-based registry of request-stream generators, mirroring
#: ``SCHEDULERS``: every entry is a callable ``(images, labels, **params)``
#: so declarative configs (:class:`~repro.serving.spec.StreamSpec`) can
#: build any arrival process by name.
STREAMS: Dict[str, Callable[..., List[Request]]] = {
    "poisson": poisson_stream,
    "bursty": bursty_stream,
    "periodic": periodic_stream,
    "replay": _replay_stream,
}


def get_stream(name: str) -> Callable[..., List[Request]]:
    """Resolve a stream generator by registry name."""
    try:
        return STREAMS[name.lower()]
    except KeyError as exc:
        raise ConfigError(f"unknown stream '{name}'; available: {sorted(STREAMS)}") from exc


def merge_streams(*streams: Sequence[Request]) -> List[Request]:
    """Merge several request streams into one arrival-ordered stream.

    Every generator numbers its requests from zero, so merging raw
    streams would collide on ``request_id`` (the engine's identity key
    and every scheduler's tie-breaker).  The merged stream is re-numbered
    0..n-1 in arrival order — ties broken by the order the streams were
    passed in — guaranteeing globally unique, deterministic ids.
    """
    tagged = [
        (request.arrival_time, stream_index, position, request)
        for stream_index, stream in enumerate(streams)
        for position, request in enumerate(stream)
    ]
    tagged.sort(key=lambda item: item[:3])
    return [
        replace(request, request_id=index)
        for index, (_, _, _, request) in enumerate(tagged)
    ]
