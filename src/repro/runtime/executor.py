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

Both executors are thin single-request drivers over the
:class:`~repro.serving.backend.ExecutionBackend` sessions that the
multi-request :class:`~repro.serving.engine.ServingEngine` schedules
under load — the step cost model (delta MACs vs full recompute) lives in
exactly one place, the backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..serving.backend import (
    ExecutionBackend,
    ExecutionSession,
    RecomputeBackend,
    SteppingBackend,
    StepOutcome,
)
from .platform import ResourceTrace
from .policies import GreedyPolicy, PolicyState, SteppingPolicy, prediction_confidence


@dataclass
class StepRecord:
    """One executed subnet level within an anytime execution."""

    subnet: int
    start_time: float
    finish_time: float
    macs_executed: float
    macs_reused: float
    confidence: float
    met_deadline: bool
    logits: Optional[np.ndarray] = None

    @property
    def duration(self) -> float:
        return self.finish_time - self.start_time


@dataclass
class ExecutionRecord:
    """Complete outcome of executing one input batch under a trace."""

    steps: List[StepRecord] = field(default_factory=list)
    deadline: Optional[float] = None
    final_logits: Optional[np.ndarray] = None
    stop_reason: str = ""

    @property
    def final_subnet(self) -> int:
        return self.steps[-1].subnet if self.steps else -1

    @property
    def finish_time(self) -> float:
        return self.steps[-1].finish_time if self.steps else 0.0

    @property
    def total_macs_executed(self) -> float:
        return sum(step.macs_executed for step in self.steps)

    @property
    def total_macs_reused(self) -> float:
        return sum(step.macs_reused for step in self.steps)

    @property
    def deadline_met(self) -> bool:
        """True when a usable result existed at the deadline.

        The mandatory first step (the smallest requested subnet — the
        platform always wants at least a preliminary answer) must have
        *completed*, i.e. have a finite finish time, at or before the
        deadline; the exact boundary ``finish_time == deadline`` counts
        as met.  Later optional refinements that overrun the deadline do
        not revoke it — the earlier result is still delivered — but an
        execution with no completed step (empty record, or a starved
        trace whose first step never finishes) never meets a deadline,
        and without a deadline it still requires the mandatory step to
        have actually finished.
        """
        if not self.steps:
            return False
        first_finish = self.steps[0].finish_time
        if not math.isfinite(first_finish):
            return False
        if self.deadline is None:
            return True
        return first_finish <= self.deadline

    @property
    def predictions(self) -> Optional[np.ndarray]:
        if self.final_logits is None:
            return None
        return self.final_logits.argmax(axis=-1)

    def best_logits_by(self, deadline: Optional[float] = None) -> Optional[np.ndarray]:
        """Logits of the largest subnet that finished before ``deadline``."""
        deadline = deadline if deadline is not None else self.deadline
        best: Optional[np.ndarray] = None
        for step in self.steps:
            if (deadline is None or step.finish_time <= deadline) and step.logits is not None:
                best = step.logits
        return best

    def subnet_completed_by(self, time: float) -> int:
        """Largest subnet level whose execution finished by ``time`` (-1 if none)."""
        completed = -1
        for step in self.steps:
            if step.finish_time <= time:
                completed = step.subnet
        return completed


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
        if overhead_per_step < 0:
            raise ValueError("overhead_per_step must be non-negative")
        self.network = network
        self.trace = trace
        self.policy = policy or GreedyPolicy()
        self.overhead_per_step = overhead_per_step
        self.apply_prune = apply_prune
        self.backend: ExecutionBackend = self.backend_factory(
            network, policy=self.policy, apply_prune=apply_prune, dtype=dtype
        )

    @classmethod
    def from_backend(
        cls,
        backend: ExecutionBackend,
        trace: ResourceTrace,
        overhead_per_step: float = 0.0,
    ) -> "AnytimeExecutor":
        """Wrap an existing backend (shared with a serving engine)."""
        executor = cls.__new__(cls)
        if overhead_per_step < 0:
            raise ValueError("overhead_per_step must be non-negative")
        executor.network = backend.network
        executor.trace = trace
        executor.policy = backend.policy
        executor.overhead_per_step = overhead_per_step
        executor.apply_prune = backend.apply_prune
        executor.backend = backend
        return executor

    # ------------------------------------------------------------------
    def execute(
        self,
        inputs: np.ndarray,
        start_time: float = 0.0,
        deadline: Optional[float] = None,
        start_subnet: int = 0,
    ) -> ExecutionRecord:
        """Run the anytime loop for one input batch.

        The smallest requested subnet is always executed (a platform that
        invokes the network wants at least a preliminary answer); further
        levels are subject to the policy and the deadline.
        """
        session = self.backend.open(inputs, start_subnet=start_subnet)
        record = ExecutionRecord(deadline=deadline)

        cost = session.next_step_macs()
        outcome = session.advance()
        time = self._finish_time(cost, start_time)
        record.steps.append(self._record_step(outcome, start_time, time, deadline))
        record.final_logits = outcome.logits
        record.stop_reason = "initial subnet executed"

        while True:
            state = self._policy_state(session, time, deadline, start_time)
            if state is None:
                record.stop_reason = "largest subnet reached"
                break
            decision = self.policy.decide(state)
            if not decision.step_up:
                record.stop_reason = decision.reason
                break
            start = time
            cost = session.next_step_macs()
            outcome = session.advance()
            time = self._finish_time(cost, start)
            record.steps.append(self._record_step(outcome, start, time, deadline))
            record.final_logits = outcome.logits
            if math.isinf(time):
                record.stop_reason = "trace provides no further throughput"
                break
        session.suspend()
        return record

    # ------------------------------------------------------------------
    def _finish_time(self, macs: float, start_time: float) -> float:
        finish = self.trace.time_to_execute(float(macs), start_time)
        if math.isinf(finish):
            return finish
        return finish + self.overhead_per_step

    def _record_step(
        self, outcome: StepOutcome, start_time: float, finish_time: float, deadline
    ) -> StepRecord:
        met = finish_time <= deadline if deadline is not None else True
        return StepRecord(
            subnet=outcome.subnet,
            start_time=start_time,
            finish_time=finish_time,
            macs_executed=float(outcome.macs_charged),
            macs_reused=float(outcome.macs_reused),
            confidence=prediction_confidence(outcome.logits),
            met_deadline=met,
            logits=outcome.logits,
        )

    def _policy_state(
        self, session: ExecutionSession, time: float, deadline, start_time: float
    ) -> Optional[PolicyState]:
        next_macs = session.next_step_macs()
        if next_macs is None:
            return None
        estimated_finish = self._finish_time(next_macs, time)
        return PolicyState(
            current_subnet=session.current_subnet,
            num_subnets=self.backend.num_subnets,
            logits=session.logits,
            current_time=time,
            deadline=deadline,
            next_step_macs=float(next_macs),
            estimated_finish_time=estimated_finish,
            start_time=start_time,
        )


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
