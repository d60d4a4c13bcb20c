"""Anytime execution of one input batch under a resource trace.

:class:`AnytimeExecutor` runs a stepping network level by level.  After
each level it consults a :class:`~repro.runtime.policies.SteppingPolicy`
and the :class:`~repro.runtime.platform.ResourceTrace` to decide whether
to step up; the time spent on each step is determined by the trace (the
MACs of the step divided by whatever throughput the trace grants while it
runs) plus a fixed per-invocation overhead.

:class:`RecomputeExecutor` models the slimmable-network deployment: a
switch to a larger width cannot reuse intermediate results, so every
step-up re-executes the *full* MAC count of the target subnet.  Comparing
the two executors on the same trace quantifies the benefit of
SteppingNet's computational reuse (the runtime benchmark does exactly
that).

An executor is the single-tenant configuration of the
:class:`~repro.serving.engine.ServingEngine`: FIFO scheduling and no
deadline enforcement (the policy alone decides when to stop).
:meth:`AnytimeExecutor.execute` serves one request through it and
returns the engine's :class:`~repro.serving.engine.JobRecord`, so "one
batch on an idle device" and "hundreds of requests under contention"
run one anytime loop.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..serving.backend import ExecutionBackend, RecomputeBackend, SteppingBackend
from ..serving.engine import JobRecord, ServingEngine
from ..serving.request import Request
from .platform import ResourceTrace
from .policies import GreedyPolicy, SteppingPolicy


class AnytimeExecutor:
    """Step-by-step execution of a stepping network with activation reuse.

    ``dtype`` defaults to float64 so the anytime logits reproduce the
    training-time forward pass bit-for-bit; pass ``np.float32`` (the
    serving default) for deployment-style inference.
    """

    backend_factory = SteppingBackend

    def __init__(
        self,
        network,
        trace: ResourceTrace,
        policy: Optional[SteppingPolicy] = None,
        overhead_per_step: float = 0.0,
        apply_prune: bool = True,
        dtype=np.float64,
    ) -> None:
        self.backend: ExecutionBackend = self.backend_factory(
            network, policy=policy or GreedyPolicy(), apply_prune=apply_prune, dtype=dtype
        )
        self.engine = ServingEngine(
            self.backend,
            trace,
            scheduler="fifo",
            overhead_per_step=overhead_per_step,
            enforce_deadline=False,
        )

    def execute(
        self,
        inputs: np.ndarray,
        start_time: float = 0.0,
        deadline: Optional[float] = None,
    ) -> JobRecord:
        """Run the anytime loop for one input batch.

        The smallest subnet is always executed (a platform that invokes
        the network wants at least a preliminary answer); further levels
        are subject to the policy and the trace.
        """
        request = Request(0, start_time, inputs, deadline=deadline)
        return self.engine.serve([request]).jobs[0]


class RecomputeExecutor(AnytimeExecutor):
    """Slimmable-style execution: every step-up recomputes from scratch.

    The policy interface and the step accounting match
    :class:`AnytimeExecutor`, but the MACs charged for reaching subnet
    ``i`` after subnet ``i-1`` are the *full* ``subnet_macs(i)`` — nothing
    is reused.  Accuracy per level is identical (the same subnet is
    evaluated); only the time/MAC cost differs, which is exactly the
    deployment gap the paper attributes to the slimmable network.
    """

    backend_factory = RecomputeBackend
