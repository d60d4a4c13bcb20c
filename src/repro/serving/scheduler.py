"""Pluggable scheduling policies for the serving engine.

The engine is event driven: whenever the accelerator finishes a subnet
step it asks the scheduler which of the currently ready jobs gets the
next step.  Because the unit of scheduling is a *subnet step* — not a
whole request — every policy here is preemptive at subnet granularity: a
job selected now can be suspended at its next step boundary in favour of
a later, more urgent arrival, and resumes with its activation cache
intact (SteppingNet's reuse makes the resume free).

Three classic policies are provided:

* :class:`FIFOScheduler` — earliest arrival first; fair, no starvation,
  but urgent requests queue behind long-running ones;
* :class:`EDFScheduler` — earliest deadline first; optimal for meeting
  deadlines on a single resource when the load is feasible;
* :class:`PriorityScheduler` — highest priority first (ties broken by
  deadline, then arrival).

Three further policies read the *serving cost signals* batching and
bounded memory expose:

* :class:`BatchAwareScheduler` — batch-potential-aware EDF: serve the
  head of the subnet edge with the most ready companions (the fullest
  possible shared pass), unless the most urgent job's deadline slack has
  shrunk to ``min_slack`` or less, in which case urgency wins;
* :class:`LeastRecomputeScheduler` — least-recompute-first: an evicted
  (cold) job is never picked as the winner while a warm job is ready, so
  instead of paying its replay solo it rejoins its original wave as a
  batch companion, amortising the rebuild inside a shared dispatch;
* :class:`UtilityPerMacScheduler` — anytime utility per MAC: a request's
  next level is worth ``1 / (1 + steps_executed)`` (first results are
  the anytime win; refinements have diminishing value), divided by the
  step's true MAC cost — cheap first steps beat expensive deep ones.

All tie-breaking chains end on the request id, so scheduling is fully
deterministic for reproducible experiments.

Each scheduler doubles as a *ready queue*: the engine pushes jobs as
they are admitted (:meth:`Scheduler.add`), discards them as they are
finalised (:meth:`Scheduler.discard`) and peeks the current winner
(:meth:`Scheduler.pick`) in ``O(log n)`` via a heap with lazy deletion.
On top of the winner heap the queue maintains a **per-edge ready
index** — one lazy-deletion heap per ``(current, next)`` subnet edge
plus eagerly maintained live counts — so the engine's batch-candidate
lookup (:meth:`Scheduler.jobs_at_edge`) costs ``O(B log n)`` for a
``B``-member batch instead of an ``O(n)`` ready-set scan.  Jobs whose
scheduling signals change while queued (a level executed, a context
evicted) are re-keyed via :meth:`Scheduler.reindex`; superseded heap
entries expire lazily, exactly like :meth:`discard`'s.  The stateless
:meth:`Scheduler.select` remains as the ordering oracle: for any ready
set it returns exactly the job :meth:`pick` would.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple, Type

from ..utils.errors import ConfigError
from .backend import ServingJob

#: A ``(current, next)`` subnet edge as exposed by ``ServingJob.edge``.
Edge = Tuple[int, Optional[int]]


class Scheduler:
    """Base class: an ordering key plus a heap-backed, edge-indexed queue."""

    name = "scheduler"

    def __init__(self) -> None:
        self._heap: List[Tuple] = []
        self._live: Dict[int, ServingJob] = {}
        #: Per-edge ready index: a lazy-deletion heap of ``(key, id)``
        #: entries per subnet edge, eager live counts, and the currently
        #: valid entry per job (entries not matching it are stale).
        self._by_edge: Dict[Edge, List[Tuple]] = {}
        self._edge_of: Dict[int, Edge] = {}
        self._edge_count: Dict[Edge, int] = {}
        self._entry_of: Dict[int, Tuple] = {}

    def key(self, job: ServingJob) -> Tuple:
        """Total ordering of ready jobs; smallest runs next.

        Must end on the request id so scheduling is deterministic, and
        may only change while the job is queued if the engine calls
        :meth:`reindex` afterwards (the engine does so whenever a job
        executes a level or loses its context to eviction).  Subclasses
        normally override only this (and must call ``super().__init__()``
        if they define a constructor).
        """
        raise NotImplementedError

    def clone(self) -> "Scheduler":
        """A fresh, empty scheduler implementing the same policy.

        The serving engine clones its scheduler at the start of every
        ``serve()`` call, so one scheduler instance can be shared between
        engines (e.g. a cluster's node specs) without their ready queues
        aliasing each other.  Subclasses whose constructor takes
        arguments must override this to reproduce them.
        """
        return type(self)()

    # ------------------------------------------------------------------
    # Ready-queue interface used by the serving engine
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Forget all queued jobs (start of a ``serve()`` run)."""
        self._heap.clear()
        self._live.clear()
        self._by_edge.clear()
        self._edge_of.clear()
        self._edge_count.clear()
        self._entry_of.clear()

    def _push_entry(self, job: ServingJob, edge: Edge) -> None:
        request_id = job.request.request_id
        entry = (self.key(job), request_id)
        self._entry_of[request_id] = entry
        heapq.heappush(self._heap, entry)
        heapq.heappush(self._by_edge.setdefault(edge, []), entry)

    def add(self, job: ServingJob) -> None:
        """Admit ``job`` to the ready queue (and the per-edge index)."""
        request_id = job.request.request_id
        self._live[request_id] = job
        edge = job.edge
        self._edge_of[request_id] = edge
        self._edge_count[edge] = self._edge_count.get(edge, 0) + 1
        self._push_entry(job, edge)

    def discard(self, job: ServingJob) -> None:
        """Remove a finalised job.

        The live map and the per-edge counts are updated eagerly — an
        expired or finalised job is never reported at any edge again —
        while its heap entries expire lazily on pop.
        """
        request_id = job.request.request_id
        if self._live.pop(request_id, None) is None:
            return
        self._entry_of.pop(request_id, None)
        edge = self._edge_of.pop(request_id)
        count = self._edge_count[edge] - 1
        if count:
            self._edge_count[edge] = count
        else:
            del self._edge_count[edge]
            # Nothing live at the edge: drop the heap, stale entries and all.
            self._by_edge.pop(edge, None)

    def reindex(self, job: ServingJob) -> None:
        """Re-key and re-bucket a queued job whose signals changed.

        The engine calls this after a job executes a level (its subnet
        edge moved) and after an eviction touches it (cost-aware keys
        read ``pending_recompute_macs``).  Old heap entries are
        superseded — they no longer match the job's valid entry — and
        expire lazily; counts move eagerly.  A no-op when neither the
        key nor the edge actually changed, or the job is not queued.
        """
        request_id = job.request.request_id
        if request_id not in self._live:
            return
        edge = job.edge
        old_edge = self._edge_of.get(request_id)
        if edge != old_edge:
            count = self._edge_count[old_edge] - 1
            if count:
                self._edge_count[old_edge] = count
            else:
                del self._edge_count[old_edge]
                self._by_edge.pop(old_edge, None)
            self._edge_of[request_id] = edge
            self._edge_count[edge] = self._edge_count.get(edge, 0) + 1
        entry = (self.key(job), request_id)
        if entry == self._entry_of.get(request_id):
            if edge != old_edge:
                # Key unchanged but the edge moved: the winner-heap entry
                # stays valid, only the edge bucket needs a fresh copy.
                heapq.heappush(self._by_edge.setdefault(edge, []), entry)
            return
        self._entry_of[request_id] = entry
        heapq.heappush(self._heap, entry)
        heapq.heappush(self._by_edge.setdefault(edge, []), entry)

    def get(self, request_id: int) -> Optional[ServingJob]:
        """The live queued job with this id, or ``None`` if not queued."""
        return self._live.get(request_id)

    def __len__(self) -> int:
        return len(self._live)

    def jobs(self) -> List[ServingJob]:
        """Live queued jobs in admission order (the engine's ready set)."""
        return list(self._live.values())

    # ------------------------------------------------------------------
    # Per-edge ready index (the engine's batch-candidate lookup)
    # ------------------------------------------------------------------
    def edges(self) -> List[Edge]:
        """Subnet edges with at least one live queued job."""
        return list(self._edge_count)

    def count_at_edge(self, edge: Edge) -> int:
        """Live queued jobs at ``edge`` (exact: counts move eagerly)."""
        return self._edge_count.get(edge, 0)

    def jobs_at_edge(self, edge: Edge, limit: Optional[int] = None) -> List[ServingJob]:
        """Up to ``limit`` live jobs at ``edge``, in preference (key) order.

        ``O(k log n)`` for ``k`` returned jobs: valid entries are popped
        off the edge heap, recorded, and pushed back; stale entries
        (finalised, re-keyed or re-edged jobs) are dropped permanently on
        the way.  Growing ``limit`` returns a superset prefix, so callers
        can fetch incrementally.  A key that drifted without a
        :meth:`reindex` falls back to an exact scan.
        """
        count = self._edge_count.get(edge, 0)
        if count == 0 or (limit is not None and limit <= 0):
            return []
        want = count if limit is None else min(limit, count)
        heap = self._by_edge.get(edge)
        result: List[ServingJob] = []
        if heap:
            popped: List[Tuple] = []
            seen: set = set()
            while heap and len(result) < want:
                entry = heap[0]
                request_id = entry[1]
                job = self._live.get(request_id)
                if (
                    job is None
                    or request_id in seen
                    or self._entry_of.get(request_id) != entry
                    or self._edge_of.get(request_id) != edge
                ):
                    heapq.heappop(heap)  # stale or duplicate entry
                    continue
                popped.append(heapq.heappop(heap))
                seen.add(request_id)
                result.append(job)
            for entry in popped:
                heapq.heappush(heap, entry)
        if len(result) < want:
            # A key that drifted without a reindex: fall back to the exact scan.
            result = [
                job
                for request_id, job in self._live.items()
                if self._edge_of.get(request_id) == edge
            ]
            result.sort(key=self.key)
            result = result[:want]
        return result

    # ------------------------------------------------------------------
    def pick(self, now: float) -> ServingJob:
        """The ready job that gets the accelerator for the next step.

        The job stays queued (it may win again at the next boundary)
        until the engine discards it.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            job = self._live.get(entry[1])
            if job is not None and self._entry_of.get(entry[1]) == entry:
                return job
            heapq.heappop(heap)  # stale entry (discarded or re-keyed job)
        raise LookupError("ready queue is empty")

    # ------------------------------------------------------------------
    def select(self, jobs: Sequence[ServingJob], now: float) -> ServingJob:
        """Stateless ordering oracle over an arbitrary ready set.

        ``jobs`` is never empty; every job in it has arrived
        (``arrival_time <= now``) and is not finished.  Equals what
        :meth:`pick` returns when the queue holds exactly ``jobs``.
        """
        return min(jobs, key=self.key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


def _deadline_key(job: ServingJob) -> float:
    deadline = job.request.deadline
    return math.inf if deadline is None else deadline


class FIFOScheduler(Scheduler):
    """First in, first out: earliest arrival wins every step.

    Because a job keeps winning until it is finalised, FIFO is effectively
    run-to-completion — head-of-line blocking included, which is exactly
    the single-accelerator baseline the other policies improve on.
    """

    name = "fifo"

    def key(self, job: ServingJob) -> Tuple:
        return (job.request.arrival_time, job.request.request_id)


class EDFScheduler(Scheduler):
    """Earliest deadline first; best-effort jobs run only when nothing is urgent."""

    name = "edf"

    def key(self, job: ServingJob) -> Tuple:
        return (
            _deadline_key(job),
            job.request.arrival_time,
            job.request.request_id,
        )


class PriorityScheduler(Scheduler):
    """Strict priority (larger wins); deadline then arrival break ties."""

    name = "priority"

    def key(self, job: ServingJob) -> Tuple:
        return (
            -job.request.priority,
            _deadline_key(job),
            job.request.arrival_time,
            job.request.request_id,
        )


class BatchAwareScheduler(Scheduler):
    """Batch-potential-aware EDF: serve the edge with the most companions.

    The ordering *key* is plain EDF; what changes is which job wins the
    accelerator.  Unless the most urgent ready job's deadline slack has
    shrunk to ``min_slack`` seconds or less (urgency then overrides
    everything), the scheduler serves the EDF head of the subnet edge
    holding the most ready jobs — the dispatch with the highest batch
    potential — so a coalescing batch policy always finds the fullest
    possible companion set.  Ties between equally populated edges break
    on the heads' EDF keys, ending on the request id: deterministic.
    """

    name = "batch-aware"

    def __init__(self, min_slack: float = 0.0) -> None:
        super().__init__()
        if min_slack < 0:
            raise ValueError("min_slack must be non-negative")
        self.min_slack = float(min_slack)

    def clone(self) -> "BatchAwareScheduler":
        return type(self)(self.min_slack)

    def key(self, job: ServingJob) -> Tuple:
        return (
            _deadline_key(job),
            job.request.arrival_time,
            job.request.request_id,
        )

    def pick(self, now: float) -> ServingJob:
        urgent = super().pick(now)
        deadline = urgent.request.deadline
        if deadline is not None and deadline - now <= self.min_slack:
            return urgent
        best: Optional[ServingJob] = None
        best_rank: Optional[Tuple] = None
        for edge in self.edges():
            head = self.jobs_at_edge(edge, 1)
            if not head:
                continue
            rank = (-self.count_at_edge(edge), self.key(head[0]))
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best = head[0]
        return best if best is not None else urgent

    def select(self, jobs: Sequence[ServingJob], now: float) -> ServingJob:
        urgent = min(jobs, key=self.key)
        deadline = urgent.request.deadline
        if deadline is not None and deadline - now <= self.min_slack:
            return urgent
        counts = Counter(job.edge for job in jobs)
        return min(jobs, key=lambda job: (-counts[job.edge], self.key(job)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(min_slack={self.min_slack})"


class LeastRecomputeScheduler(Scheduler):
    """FIFO with a least-recompute-first override: cold jobs wait for a wave.

    Orders on :attr:`ServingJob.pending_recompute_macs` first, so a job
    whose activation caches were evicted is never picked as the *winner*
    while any warm job is ready.  Instead of paying its replay on a solo
    dispatch, the cold job rejoins its original wave as a batch
    companion — the backend's group advance replays it inside the shared
    pass — which is exactly the eviction-rejoin mechanic the batched
    backends implement.  Warm jobs among themselves are FIFO.
    """

    name = "least-recompute"

    def key(self, job: ServingJob) -> Tuple:
        return (
            job.pending_recompute_macs,
            job.request.arrival_time,
            job.request.request_id,
        )


class UtilityPerMacScheduler(Scheduler):
    """Most anytime utility per MAC first.

    A request's next level is worth ``1 / (1 + steps_executed)`` — the
    mandatory first result is the anytime win, refinements have
    diminishing value — divided by the step's true MAC cost (delta MACs
    for stepping, full subnet for recompute, replay surcharge included).
    Cheap first steps therefore beat expensive deep refinements, which
    maximises delivered-results-per-MAC under overload.  Arrival then
    request id break ties.
    """

    name = "utility-per-mac"

    def key(self, job: ServingJob) -> Tuple:
        session = job.session
        macs = None if session is None else session.next_step_macs()
        macs = float(macs) if macs else 1.0
        utility = 1.0 / (1.0 + job.steps_executed)
        return (
            -(utility / macs),
            job.request.arrival_time,
            job.request.request_id,
        )


SCHEDULERS: Dict[str, Type[Scheduler]] = {
    FIFOScheduler.name: FIFOScheduler,
    EDFScheduler.name: EDFScheduler,
    PriorityScheduler.name: PriorityScheduler,
    BatchAwareScheduler.name: BatchAwareScheduler,
    LeastRecomputeScheduler.name: LeastRecomputeScheduler,
    UtilityPerMacScheduler.name: UtilityPerMacScheduler,
}


def get_scheduler(name: str, **params) -> Scheduler:
    """Instantiate a scheduler by registry name.

    ``params`` are forwarded to the scheduler's constructor (e.g.
    ``min_slack`` for ``"batch-aware"``); unknown names and bad
    parameters both fail here, at config load.
    """
    try:
        cls = SCHEDULERS[name.lower()]
    except KeyError as exc:
        raise ConfigError(
            f"unknown scheduler '{name}'; available: {sorted(SCHEDULERS)}"
        ) from exc
    return cls(**params)
