"""Batching policies: which ready jobs share one dispatch.

The serving engine's unit of work is one subnet step, and the compiled
plan runs the *same* edge program (the same packed slabs) for every
request at the same ``(current -> next)`` subnet edge.  A
:class:`BatchPolicy` decides, at each dispatch boundary, how many of the
scheduler's compatible ready jobs ride the winner's step as one
:meth:`~repro.core.plan.NetworkPlan.execute_batch` dispatch:

* :class:`NoBatching` (``"none"``) — one job per step, the pre-batching
  engine behaviour and the correctness oracle (per-request logits of any
  batched policy must match it bit-for-bit);
* :class:`SameLevelBatching` (``"same-level"``) — greedy: take every
  ready job at the winner's subnet edge, up to ``max_batch_size``, in
  scheduler preference order.  Under queue build-up this forms lockstep
  *waves*: a group of requests batch their first level together and then
  stay edge-compatible for every later step;
* :class:`WindowedBatching` (``"windowed"``) — greedy, plus a bounded
  coalescing wait: when the winner has not started yet and the batch is
  under-full, hold the dispatch for arrivals landing within
  ``window`` seconds of the winner's arrival (the classic serving-system
  trade of a little first-token latency for a fuller batch);
* :class:`ContinuousBatching` (``"continuous"``) — greedy, plus
  mid-wave refills: an under-full started dispatch is topped back up
  with ready jobs from lower subnet edges, which catch up inside the
  dispatch and ride the shared pass — batch occupancy no longer decays
  as waves drain.

The engine hands the policy a pre-validated candidate list (ready jobs
at the winner's edge that its continuation checks would actually
advance, winner first, companions in scheduler order); the policy only
chooses how many to take or how long to wait, so scheduling mechanics
stay in one place.  Mixed-edge jobs are never offered — a request at
another level can not join the pass, which is what lets one dispatch
run one edge program for every member.

Simulated-time semantics of a batch: the accelerator charges the *sum*
of the members' step MACs (the work is real) but only one
``overhead_per_step`` (the kernel launch is shared), and every member
finishes at the same instant.  On the host each member still runs its
own compiled edge program, so a batch shares no plan work; the
simulation gets faster wall-clock-wise because the engine schedules,
books and charges one dispatch instead of ``B`` — the engine-dispatch
amortisation :mod:`benchmarks.bench_batching` measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..utils.errors import ConfigError
from .backend import ServingJob


@dataclass
class BatchDecision:
    """What the engine should do with the winner's dispatch slot.

    Exactly one of the two fields is meaningful: a non-empty ``members``
    list (execute these jobs as one step now) or a ``wait_until`` time
    (execute nothing; let simulated time advance so more compatible
    requests can arrive).

    ``reason`` explains the decision for the observability layer (it is
    forwarded into ``coalesce_wait`` trace events) and never affects
    execution.
    """

    members: List[ServingJob] = field(default_factory=list)
    wait_until: Optional[float] = None
    reason: str = ""


class BatchPolicy:
    """Base class: pick the members of one batched dispatch.

    Subclasses override :meth:`form`.  ``candidates`` always holds the
    scheduler's winner first, followed by the other ready jobs at the
    same subnet edge in scheduler preference order; returning
    ``candidates[:1]`` reproduces unbatched serving exactly.
    """

    name = "batch-policy"
    #: Cap on the members of one dispatch (``None`` = unbounded); the
    #: engine fetches at most this many candidates and refills up to it.
    max_batch_size: Optional[int] = None
    #: Whether the engine may top an under-full in-flight dispatch back
    #: up with ready jobs from *lower* subnet edges (continuous
    #: batching's mid-wave join): laggards catch up inside the dispatch
    #: and ride the shared pass.  The policy itself still only sees
    #: same-edge candidates in :meth:`form`.
    refills = False

    def form(
        self,
        candidates: Sequence[ServingJob],
        now: float,
        next_arrival: Optional[float],
    ) -> BatchDecision:
        """Members of this dispatch (or a bounded wait for more arrivals).

        ``next_arrival`` is the arrival time of the earliest not-yet-
        admitted request (``None`` when the stream is exhausted); it is
        strictly greater than ``now``, so waiting until it always makes
        progress.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class NoBatching(BatchPolicy):
    """One request per step — the pre-batching engine, bit-for-bit."""

    name = "none"
    max_batch_size = 1

    def form(
        self,
        candidates: Sequence[ServingJob],
        now: float,
        next_arrival: Optional[float],
    ) -> BatchDecision:
        return BatchDecision(members=[candidates[0]])


class SameLevelBatching(BatchPolicy):
    """Greedy same-edge coalescing up to ``max_batch_size``, never waiting."""

    name = "same-level"

    def __init__(self, max_batch_size: int = 8) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        self.max_batch_size = int(max_batch_size)

    def form(
        self,
        candidates: Sequence[ServingJob],
        now: float,
        next_arrival: Optional[float],
    ) -> BatchDecision:
        return BatchDecision(members=list(candidates[: self.max_batch_size]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(max_batch_size={self.max_batch_size})"


class WindowedBatching(SameLevelBatching):
    """Greedy coalescing plus a bounded wait for imminent arrivals.

    When the winner's first step would dispatch under-full, the policy
    holds the accelerator for arrivals landing within ``window`` seconds
    of the winner's *arrival* — so a request is delayed at most
    ``window`` beyond its arrival before its mandatory first level runs,
    a client-facing latency bound rather than an open-ended idle wait.
    The wait never crosses a waiting member's deadline (a feasible
    request must not expire because the batcher idled past it), and
    started winners never wait: only new arrivals (at the initial edge)
    could fill the batch, and they can not join a mid-flight edge.
    """

    name = "windowed"

    def __init__(self, max_batch_size: int = 8, window: float = 0.0) -> None:
        super().__init__(max_batch_size)
        if window < 0:
            raise ValueError("window must be non-negative")
        self.window = float(window)

    def form(
        self,
        candidates: Sequence[ServingJob],
        now: float,
        next_arrival: Optional[float],
    ) -> BatchDecision:
        winner = candidates[0]
        deadlines = [
            job.request.deadline
            for job in candidates
            if job.request.deadline is not None
        ]
        if (
            self.window > 0.0
            and not winner.started
            and len(candidates) < self.max_batch_size
            and next_arrival is not None
            and next_arrival <= winner.request.arrival_time + self.window
            # Never idle to (or past) a waiting member's deadline: a
            # feasible request must not expire under the batcher's wait.
            and (not deadlines or next_arrival < min(deadlines))
        ):
            return BatchDecision(
                wait_until=next_arrival, reason="under-full first step; imminent arrival"
            )
        return BatchDecision(members=list(candidates[: self.max_batch_size]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(max_batch_size={self.max_batch_size}, "
            f"window={self.window})"
        )


class ContinuousBatching(SameLevelBatching):
    """Greedy coalescing plus mid-wave refills at every step boundary.

    Dispatch formation is :class:`SameLevelBatching`'s (greedy, never
    waiting — a request that misses this dispatch can join the *next*
    step boundary instead, so idling for arrivals buys nothing).  What
    changes is the :attr:`~BatchPolicy.refills` declaration: when a
    started wave dispatches under-full, the engine tops it up with ready
    jobs from lower subnet edges — each laggard catches up to the wave's
    edge inside the dispatch (solo replay levels, exactly the mechanic
    eviction-rejoin uses; its step-up policy is consulted between
    levels) and then rides the shared pass.  Per-request logits stay
    bit-equal to solo serving; occupancy no longer decays as waves
    drain, which is the throughput multiplier
    ``benchmarks/bench_continuous.py`` measures.

    ``max_catchup_levels`` bounds the admission cost: a laggard whose
    replay distance to the wave's edge exceeds the cap is not refilled —
    it keeps its queue position and enters a *fresh* wave instead, where
    its cohort batches wide.  Unbounded catch-up (the default, ``None``)
    maximises occupancy but lets a high-riding wave absorb entry jobs
    one or two at a time through long, skinny replay chains; a small cap
    trades a little occupancy for fat entry waves.
    """

    name = "continuous"
    refills = True

    def __init__(
        self, max_batch_size: int = 8, max_catchup_levels: Optional[int] = None
    ) -> None:
        super().__init__(max_batch_size)
        if max_catchup_levels is not None and max_catchup_levels < 0:
            raise ValueError("max_catchup_levels must be non-negative")
        self.max_catchup_levels = (
            None if max_catchup_levels is None else int(max_catchup_levels)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(max_batch_size={self.max_batch_size}, "
            f"max_catchup_levels={self.max_catchup_levels})"
        )


#: Name-based registry of batching policies, mirroring ``SCHEDULERS``:
#: declarative configs (:class:`~repro.serving.spec.ServingSpec`) refer
#: to policies by name plus the ``max_batch_size`` / ``batch_window``
#: knobs.
BATCH_POLICIES: Dict[str, Callable[..., BatchPolicy]] = {
    NoBatching.name: NoBatching,
    SameLevelBatching.name: SameLevelBatching,
    WindowedBatching.name: WindowedBatching,
    ContinuousBatching.name: ContinuousBatching,
}


def get_batch_policy(
    name: str,
    max_batch_size: Optional[int] = None,
    window: Optional[float] = None,
    max_catchup_levels: Optional[int] = None,
) -> BatchPolicy:
    """Instantiate a batching policy by registry name.

    ``max_batch_size``, ``window`` and ``max_catchup_levels`` are
    forwarded to the policies that take them; passing them with
    ``"none"`` is accepted (and ignored) so one config schema covers
    every policy.
    """
    try:
        factory = BATCH_POLICIES[name.lower()]
    except KeyError as exc:
        raise ConfigError(
            f"unknown batch policy '{name}'; available: {sorted(BATCH_POLICIES)}"
        ) from exc
    kwargs = {}
    if factory is not NoBatching:
        if max_batch_size is not None:
            kwargs["max_batch_size"] = int(max_batch_size)
        if factory is WindowedBatching and window is not None:
            kwargs["window"] = float(window)
        if factory is ContinuousBatching and max_catchup_levels is not None:
            kwargs["max_catchup_levels"] = int(max_catchup_levels)
    return factory(**kwargs)
