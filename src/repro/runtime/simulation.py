"""Stream-level simulation: frames with deadlines on a varying platform.

The scenario from the paper's introduction: a perception stack receives a
stream of frames; each frame must produce *some* decision by its deadline
and refines that decision while resources remain.  :func:`simulate_stream`
serves the frame stream through the executor's
:class:`~repro.serving.engine.ServingEngine` — FIFO scheduling
(head-of-line blocking, run to completion), no admission control, the
frame's own policy deciding when to stop — and returns the engine's
:class:`~repro.serving.engine.ServingReport`, whose accuracy, deadline
and MAC aggregates summarise the stream.  For open-loop multi-request
workloads (Poisson arrivals, EDF/priority scheduling, preemption) use
the serving engine directly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..serving.engine import ServingReport
from ..serving.request import Request
from .executor import AnytimeExecutor


def periodic_requests(
    images: np.ndarray,
    labels: Optional[np.ndarray],
    frame_period: float,
    relative_deadline: float,
    batch_size: int = 1,
    start_time: float = 0.0,
) -> List[Request]:
    """Slice a dataset into a periodic stream of frames.

    Every ``frame_period`` seconds a batch of ``batch_size`` contiguous
    samples arrives and must be answered within ``relative_deadline``
    seconds; the last frame takes the remainder.  Frame ``i`` is the
    request with id ``i``.
    """
    if frame_period <= 0:
        raise ValueError("frame_period must be positive")
    if relative_deadline <= 0:
        raise ValueError("relative_deadline must be positive")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    requests: List[Request] = []
    num_frames = int(np.ceil(len(images) / batch_size))
    for frame in range(num_frames):
        lo, hi = frame * batch_size, min((frame + 1) * batch_size, len(images))
        arrival = start_time + frame * frame_period
        requests.append(
            Request(
                request_id=frame,
                arrival_time=arrival,
                inputs=images[lo:hi],
                deadline=arrival + relative_deadline,
                labels=None if labels is None else labels[lo:hi],
            )
        )
    return requests


def simulate_stream(executor: AnytimeExecutor, requests: Sequence[Request]) -> ServingReport:
    """Serve ``requests`` through ``executor``'s engine and report the stream.

    A frame whose predecessor is still executing starts as soon as the
    predecessor finishes (head-of-line blocking, single-accelerator
    platform); no frame is dropped or force-stopped at its deadline.
    """
    return executor.engine.serve(requests)
