"""Step-up decision policies for anytime inference.

After executing subnet ``i`` the platform must decide whether to spend
further resources stepping up to subnet ``i+1`` or to emit the current
prediction.  A :class:`SteppingPolicy` makes that call from a
:class:`PolicyState` snapshot (current predictions, confidence, elapsed
time, remaining deadline, cost of the next step).

Three concrete policies cover the scenarios of the paper's introduction:

* :class:`GreedyPolicy` — always step up while a larger subnet exists and
  its execution is expected to finish before the deadline;
* :class:`ConfidencePolicy` — stop as soon as the current prediction is
  confident enough (the "preliminary decision" use-case);
* :class:`DeadlineAwarePolicy` — like greedy, but keeps a safety margin
  so the result is available strictly before the deadline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def prediction_confidence(logits: np.ndarray) -> float:
    """Mean maximum class probability across the batch."""
    probs = softmax(np.asarray(logits, dtype=np.float64))
    return float(probs.max(axis=-1).mean())


def prediction_entropy(logits: np.ndarray) -> float:
    """Mean predictive entropy (nats) across the batch."""
    probs = softmax(np.asarray(logits, dtype=np.float64))
    entropy = -(probs * np.log(np.clip(probs, 1e-12, None))).sum(axis=-1)
    return float(entropy.mean())


@dataclass(frozen=True)
class PolicyState:
    """Everything a policy may inspect when deciding whether to step up.

    ``queue_depth`` is the number of *other* requests waiting for the
    same accelerator (0 when an executor serves one request); the
    serving engine fills it in so policies can yield under load.
    """

    current_subnet: int
    num_subnets: int
    logits: np.ndarray
    current_time: float
    deadline: Optional[float]
    next_step_macs: float
    estimated_finish_time: float
    queue_depth: int = 0
    #: Precomputed ``prediction_confidence(logits)`` when the caller
    #: already paid for the softmax (the serving engine shares it with
    #: the served-step record); None recomputes on demand.
    confidence_value: Optional[float] = None
    #: When the request's time budget started (its arrival); ``deadline``
    #: is absolute, so the budget is ``deadline - start_time``.
    start_time: float = 0.0

    @property
    def confidence(self) -> float:
        if self.confidence_value is not None:
            return self.confidence_value
        return prediction_confidence(self.logits)

    @property
    def entropy(self) -> float:
        return prediction_entropy(self.logits)

    @property
    def has_larger_subnet(self) -> bool:
        return self.current_subnet + 1 < self.num_subnets

    @property
    def time_remaining(self) -> float:
        if self.deadline is None:
            return float("inf")
        return self.deadline - self.current_time


@dataclass(frozen=True)
class PolicyDecision:
    """Outcome of a policy query."""

    step_up: bool
    reason: str = ""


class SteppingPolicy:
    """Base class: subclasses implement :meth:`decide`."""

    name = "policy"

    def decide(self, state: PolicyState) -> PolicyDecision:
        """The step-up verdict for ``state``.

        Contract: the verdict is a pure function of ``state`` — no
        counters, clocks or randomness of the policy's own.  The serving
        run relies on it to memoise verdicts, re-asking only when a field
        the verdict can read has changed.
        """
        raise NotImplementedError

    @property
    def time_sensitive(self) -> bool:
        """Whether :meth:`decide` can change between calls at one level.

        A time-sensitive verdict reads the clock, the deadline, the queue
        or the next step's cost, so callers key it on all of them.  A
        time-insensitive one depends only on the logits at the current
        level, so a caller may skip pricing the next step (the serving
        run passes no finish estimate) and memoise the verdict per level.
        Defaults to True: the level-only memo is an opt-in for policies
        that can prove their verdict is stable.
        """
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class GreedyPolicy(SteppingPolicy):
    """Step up whenever a larger subnet exists and fits before the deadline."""

    name = "greedy"

    def decide(self, state: PolicyState) -> PolicyDecision:
        if not state.has_larger_subnet:
            return PolicyDecision(False, "already at the largest subnet")
        if state.deadline is not None and state.estimated_finish_time > state.deadline:
            return PolicyDecision(False, "next step would miss the deadline")
        return PolicyDecision(True, "resources available before the deadline")


class ConfidencePolicy(SteppingPolicy):
    """Stop stepping once the prediction confidence reaches a threshold.

    Mirrors early-exit inference: the network commits to its preliminary
    decision as soon as it is confident, saving the remaining MACs.
    """

    name = "confidence"

    def __init__(self, threshold: float = 0.9, respect_deadline: bool = True) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self.threshold = threshold
        self.respect_deadline = respect_deadline

    def decide(self, state: PolicyState) -> PolicyDecision:
        if not state.has_larger_subnet:
            return PolicyDecision(False, "already at the largest subnet")
        confidence = state.confidence
        if confidence >= self.threshold:
            return PolicyDecision(False, f"confident enough ({confidence:.3f} >= {self.threshold})")
        if (
            self.respect_deadline
            and state.deadline is not None
            and state.estimated_finish_time > state.deadline
        ):
            return PolicyDecision(False, "next step would miss the deadline")
        return PolicyDecision(True, f"confidence {confidence:.3f} below threshold")

    @property
    def time_sensitive(self) -> bool:
        # With deadlines ignored the verdict is a pure function of the
        # logits, which only change when the session advances a level.
        return self.respect_deadline

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConfidencePolicy(threshold={self.threshold})"


class DeadlineAwarePolicy(SteppingPolicy):
    """Step up only if the next step finishes with a safety margin to spare.

    ``margin`` is the fraction of the total time budget reserved as slack
    (sensor jitter, post-processing, actuation latency).
    """

    name = "deadline-aware"

    def __init__(self, margin: float = 0.1) -> None:
        if not 0.0 <= margin < 1.0:
            raise ValueError("margin must be in [0, 1)")
        self.margin = margin

    def decide(self, state: PolicyState) -> PolicyDecision:
        if not state.has_larger_subnet:
            return PolicyDecision(False, "already at the largest subnet")
        if state.deadline is None:
            return PolicyDecision(True, "no deadline; keep refining")
        slack = self.margin * max(state.deadline - state.start_time, 0.0)
        if state.estimated_finish_time > state.deadline - slack:
            return PolicyDecision(False, "insufficient slack before the deadline")
        return PolicyDecision(True, "fits within the deadline with margin")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeadlineAwarePolicy(margin={self.margin})"


class LoadAdaptivePolicy(SteppingPolicy):
    """Refine while the system is idle, yield the accelerator under load.

    Steps up like :class:`GreedyPolicy` when at most ``max_queue_depth``
    other requests are waiting; beyond that it emits the current result
    so queued requests get their mandatory first level sooner.  This is
    the serving-engine counterpart of confidence-based early exit:
    latency SLOs are protected by spending refinement MACs only when
    nobody is waiting for them.
    """

    name = "load-adaptive"

    def __init__(self, max_queue_depth: int = 0) -> None:
        if max_queue_depth < 0:
            raise ValueError("max_queue_depth must be non-negative")
        self.max_queue_depth = max_queue_depth

    def decide(self, state: PolicyState) -> PolicyDecision:
        if not state.has_larger_subnet:
            return PolicyDecision(False, "already at the largest subnet")
        if state.queue_depth > self.max_queue_depth:
            return PolicyDecision(
                False, f"yielding: {state.queue_depth} requests waiting"
            )
        if state.deadline is not None and state.estimated_finish_time > state.deadline:
            return PolicyDecision(False, "next step would miss the deadline")
        return PolicyDecision(True, "queue shallow enough to keep refining")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LoadAdaptivePolicy(max_queue_depth={self.max_queue_depth})"


class FixedSubnetPolicy(SteppingPolicy):
    """Never step beyond a fixed subnet level (a static baseline policy)."""

    name = "fixed"

    def __init__(self, subnet: int) -> None:
        if subnet < 0:
            raise ValueError("subnet must be non-negative")
        self.subnet = subnet

    def decide(self, state: PolicyState) -> PolicyDecision:
        if state.current_subnet >= self.subnet:
            return PolicyDecision(False, f"fixed at subnet {self.subnet}")
        if not state.has_larger_subnet:
            return PolicyDecision(False, "already at the largest subnet")
        if state.deadline is not None and state.estimated_finish_time > state.deadline:
            return PolicyDecision(False, "next step would miss the deadline")
        return PolicyDecision(True, f"below the fixed target subnet {self.subnet}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FixedSubnetPolicy(subnet={self.subnet})"
