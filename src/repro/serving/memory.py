"""Bounded resident-context memory: the budget and its eviction policies.

The serving engine keeps every suspended request's activation caches
resident so that resuming is free — that is the whole point of stepping
inference.  On the platforms the ROADMAP targets (``MOBILE_SOC``,
``EMBEDDED_MCU``) memory, not MACs, is the binding constraint: dozens of
queued requests each pinning full-width caches plus the compiled plan's
incremental buffers will not fit.  :class:`MemoryBudget` bounds the total
bytes of resident inference contexts and evicts suspended jobs when the
bound is crossed, in two tiers of increasing cost:

* **tier 1 — drop ``aux`` buffers** (:meth:`ExecutionSession.drop_aux`):
  the compiled plan's im2col column buffers and pooled maps are pure
  caches rebuilt transparently from the activation cache on the next
  step.  Dropping them changes no logits and charges no MACs.
* **tier 2 — drop the activation caches**
  (:meth:`ExecutionSession.drop_state`): the whole
  :class:`~repro.core.incremental.InferenceState` is released and the
  job falls back to *recompute-from-level-0* on resume — the backend
  replays the exact subnet-level sequence the job had executed (which
  restores its state bit-for-bit) and charges the replayed MACs honestly
  on the resuming step (:meth:`ExecutionBackend.recompute_macs`).

The load-bearing invariant, property-tested in
``tests/serving/test_memory.py``: for any budget large enough to hold
one running context, every request's logits are **bit-identical** to the
unbounded run under every eviction policy — eviction trades only latency
and MAC counts for memory, never answers.

Which suspended job to evict first is pluggable via
:data:`EVICTION_POLICIES`, mirroring the scheduler/router registries:

* :class:`LRUEviction` (``"lru"``) — coldest context first (longest
  since its last executed step); the classic cache default;
* :class:`LargestFirstEviction` (``"largest-first"``) — most bytes
  freed per eviction, minimising the *number* of contexts disturbed;
* :class:`LowestProgressEviction` (``"lowest-progress"``) — least
  progressed job first: its replay is the cheapest, minimising the
  recompute MACs an eviction can cost.

All orderings break ties on the request id, so bounded serving stays
exactly reproducible.  The engine never evicts mid-step: enforcement
runs between events, and the jobs of the in-flight dispatch are
protected — considered only after every other context has been evicted
(they can still be evicted *after* their step when the budget is tighter
than the dispatch's own footprint, e.g. a wide batch under a one-context
budget).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from ..utils.errors import ConfigError
from .backend import ServingJob


@dataclass(frozen=True)
class EvictionEvent:
    """One eviction the budget performed, for reports and tests.

    ``tier`` is ``"aux"`` (transparent buffer drop) or ``"cache"`` (full
    context drop, recompute on resume); ``protected`` records whether the
    victim belonged to the dispatch that had just executed — last-resort
    evictions that only happen when every other context together does not
    cover the overshoot.
    """

    time: float
    request_id: int
    tier: str
    bytes_freed: int
    protected: bool = False


class EvictionPolicy:
    """Base class: a deterministic eviction order over suspended jobs."""

    name = "eviction-policy"

    def victims(
        self, jobs: Sequence[ServingJob], now: float, sizes: Mapping[int, int]
    ) -> List[ServingJob]:
        """Jobs in eviction order (first entry is evicted first).

        ``jobs`` holds only jobs with resident bytes, and ``sizes`` maps
        each one's request id to those bytes; the order must be total and
        deterministic (tie-break on the request id).
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class LRUEviction(EvictionPolicy):
    """Evict the context that executed least recently (coldest first)."""

    name = "lru"

    def victims(
        self, jobs: Sequence[ServingJob], now: float, sizes: Mapping[int, int]
    ) -> List[ServingJob]:
        return sorted(
            jobs,
            key=lambda job: (
                -math.inf if job.last_executed_at is None else job.last_executed_at,
                job.request.request_id,
            ),
        )


class LargestFirstEviction(EvictionPolicy):
    """Evict the biggest context first (most bytes per disturbed job)."""

    name = "largest-first"

    def victims(
        self, jobs: Sequence[ServingJob], now: float, sizes: Mapping[int, int]
    ) -> List[ServingJob]:
        return sorted(
            jobs,
            key=lambda job: (-sizes[job.request.request_id], job.request.request_id),
        )


class LowestProgressEviction(EvictionPolicy):
    """Evict the least-progressed job first (cheapest recompute on resume)."""

    name = "lowest-progress"

    def victims(
        self, jobs: Sequence[ServingJob], now: float, sizes: Mapping[int, int]
    ) -> List[ServingJob]:
        return sorted(
            jobs,
            key=lambda job: (job.session.current_subnet, job.request.request_id),
        )


#: Name-based registry of eviction policies, mirroring ``SCHEDULERS``:
#: declarative configs (:class:`~repro.serving.spec.ServingSpec`) refer to
#: policies by name via the ``eviction_policy`` knob.
EVICTION_POLICIES: Dict[str, Callable[[], EvictionPolicy]] = {
    LRUEviction.name: LRUEviction,
    LargestFirstEviction.name: LargestFirstEviction,
    LowestProgressEviction.name: LowestProgressEviction,
}


def get_eviction_policy(name: str) -> EvictionPolicy:
    """Instantiate an eviction policy by registry name."""
    try:
        return EVICTION_POLICIES[name.lower()]()
    except KeyError as exc:
        raise ConfigError(
            f"unknown eviction policy '{name}'; available: {sorted(EVICTION_POLICIES)}"
        ) from exc


class MemoryBudget:
    """A bounded byte budget over the resident inference contexts.

    One instance per :class:`~repro.serving.engine.ServingRun` (fresh
    counters per run, like the scheduler clone).  ``budget_bytes=None``
    means unbounded: nothing is ever evicted, but the run still records
    its high-water mark here, so benchmarks can size bounded sweeps from
    an unbounded baseline.
    """

    def __init__(
        self,
        budget_bytes: Optional[float] = None,
        policy: Union[EvictionPolicy, str] = "lru",
    ) -> None:
        if budget_bytes is not None:
            if not math.isfinite(budget_bytes):
                raise ValueError(
                    "budget_bytes must be finite (use None for unbounded)"
                )
            budget_bytes = int(budget_bytes)
            if budget_bytes <= 0:
                raise ValueError("budget_bytes must be positive (or None for unbounded)")
        self.budget_bytes = budget_bytes
        self.policy = get_eviction_policy(policy) if isinstance(policy, str) else policy
        #: Every eviction performed, in order.
        self.events: List[EvictionEvent] = []
        self.aux_evictions = 0
        self.cache_evictions = 0
        self.bytes_evicted = 0
        #: High-water mark of post-enforcement residency, recorded by the
        #: run from its ledger: the budget promise is that this never
        #: exceeds ``budget_bytes``.
        self.peak_resident_bytes = 0

    @property
    def bounded(self) -> bool:
        return self.budget_bytes is not None

    def clone(self) -> "MemoryBudget":
        """A fresh budget (zeroed counters) with the same bound and policy."""
        return MemoryBudget(self.budget_bytes, self.policy)

    # ------------------------------------------------------------------
    def enforce(
        self,
        jobs: Sequence[ServingJob],
        sizes: Mapping[int, int],
        protected: Sequence[ServingJob] = (),
        now: float = 0.0,
    ) -> int:
        """Evict until the budget holds again; returns the bytes freed.

        Called by the run loop after a dispatch only when the run's
        residency ledger exceeds the budget, with the dispatch's members
        ``protected``.  ``sizes`` is that ledger: the resident bytes of
        each live job by request id (a job without an entry holds none),
        so enforcement walks no context's buffers.  Suspended (unprotected) contexts are
        evicted first — tier 1 (aux buffers, free) exhausted before
        tier 2 (activation caches, recompute on resume) — and only when
        evicting *everything* suspended cannot cover the overshoot are
        the protected members themselves stripped, same two tiers.  So
        the just-executed job is never disturbed while any colder
        context remains, which is the "never evict the running job"
        property the memory tests pin down.
        """
        resident = sum(sizes.get(job.request.request_id, 0) for job in jobs)
        if self.budget_bytes is None or resident <= self.budget_bytes:
            return 0
        protected_ids = {id(job) for job in protected}
        candidates = [job for job in jobs if sizes.get(job.request.request_id, 0) > 0]
        ordered = self.policy.victims(candidates, now, sizes)
        groups = (
            [job for job in ordered if id(job) not in protected_ids],
            [job for job in ordered if id(job) in protected_ids],
        )
        freed_total = 0
        for group in groups:
            for tier in ("aux", "cache"):
                for job in group:
                    if resident <= self.budget_bytes:
                        break
                    if tier == "aux":
                        freed = job.session.drop_aux()
                    else:
                        freed = job.session.drop_state()
                    if not freed:
                        continue
                    resident -= freed
                    freed_total += freed
                    self.bytes_evicted += freed
                    if tier == "aux":
                        self.aux_evictions += 1
                    else:
                        self.cache_evictions += 1
                    self.events.append(
                        EvictionEvent(
                            time=now,
                            request_id=job.request.request_id,
                            tier=tier,
                            bytes_freed=freed,
                            protected=id(job) in protected_ids,
                        )
                    )
        return freed_total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bound = "unbounded" if self.budget_bytes is None else f"{self.budget_bytes}B"
        return f"MemoryBudget({bound}, policy={self.policy.name!r})"
