"""Fleet-level serving: request routers, the coordinator and :class:`ServingCluster`.

One :class:`~repro.serving.engine.ServingEngine` models one accelerator.
A :class:`ServingCluster` owns several of them — one per node
:class:`~repro.serving.spec.ServingSpec`, typically over heterogeneous
platforms (``mobile-soc``, ``vehicle-ecu``, ``embedded-mcu``) — and places
every arriving request on a node through a pluggable :class:`Router`
(:data:`ROUTERS`: round-robin, join-shortest-queue, and least-loaded over
four load signals).

Simulation model
----------------
Every ``serve()`` runs one :class:`Coordinator`: an event heap over
arrivals, reroutes, failover retries, rebalance ticks and injected
crash/recover transitions that drives one resumable
:class:`~repro.serving.engine.ServingRun` per node on a shared simulated
clock.  The router places each request at its arrival time from the
nodes' advertised load.  Each load signal has one source: the
jobs-in-system count and the completion estimate come from a
deterministic fluid model that charges each placed request its
largest-subnet service demand against the node's trace (exact for
run-to-completion FIFO service; an admission-time estimate, as in real
load balancers, when schedulers preempt or policies stop early); the
published depth, resident bytes and entry-edge occupancy come only from
the node's attached run, and reading them forces live delivery.

The coordinator delivers work to the nodes under one of two rules,
derived from the configuration rather than chosen:

* *Live delivery* — when faults, admission control, rebalancing or a
  router with :attr:`Router.needs_live_state` must read or change node
  state mid-run.  Every node is advanced to each event before the event
  is processed, so placements read measured scheduler depth, resident
  bytes and entry-edge occupancy as of each node's last step boundary —
  stale by at most one in-flight step, like the published queue lengths
  real load balancers act on.  A node learns of an arrival only once it
  is routed, so a node report need *not* equal a closed-loop ``serve()``
  over the same sub-stream: policies that look ahead (load-adaptive
  step-up, windowed batching's ``next_arrival``) decide with one-event
  staleness, and coalescing batch policies dispatch the first of several
  tied arrivals alone.
* *Closed-loop delivery* — otherwise.  Nodes then interact only through
  placement and placement reads only the fluid model, so each node
  receives its whole sub-stream before it runs: its report equals a
  closed-loop ``ServingEngine.serve()`` over its partition from
  :meth:`ServingCluster.route_requests`, bit for bit, and a single-node
  cluster reproduces the bare engine.

The per-node results are exact :class:`~repro.serving.engine.ServingReport`
runs; :class:`ClusterReport` aggregates them into fleet metrics
(throughput, p50/p95/p99 latency, per-node utilisation, load imbalance).
"""

from __future__ import annotations

import copy
import heapq
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ..utils.errors import ConfigError
from ..utils.logging import get_logger
from ..utils.metrics import MetricsRegistry
from .codec import check_field, coerce
from .engine import (
    CrashedNodeWork,
    InterruptedJob,
    JobAggregates,
    JobRecord,
    ServingEngine,
    ServingReport,
    ServingRun,
)
from .faults import FaultSpec, RetryPolicy
from .observe import ObservabilitySpec, TraceRecorder
from .request import Request

if TYPE_CHECKING:
    from .spec import ClusterSpec

_LOG = get_logger("repro.serving")

#: Scalar coordinator counters every :class:`ClusterReport` consumes
#: from the cluster metrics registry (all zero without faults,
#: admission control, rebalancing or batch sharding).
_COORDINATOR_COUNTERS = (
    "migrations",
    "failovers",
    "degraded_admissions",
    "rejected",
    "lost",
    "steals",
    "inflight_steals",
    "shards",
)


class NodeState:
    """Router-visible view of one fleet node.

    Wraps the node's engine together with the load signals a placement
    policy may inspect, each read from one source.  The fluid model
    serves predicted jobs in system (:meth:`queue_length`) and the
    MAC/latency-aware completion estimate for a further request
    (:meth:`predicted_finish`).  The live signals
    (:meth:`published_depth`, :meth:`resident_bytes`,
    :meth:`batch_potential`) read the node's
    :class:`~repro.serving.engine.ServingRun`, which the coordinator
    attaches to every node, as of the node's last step boundary.
    """

    def __init__(
        self,
        index: int,
        name: str,
        engine: ServingEngine,
        publish_interval: float = 0.0,
    ) -> None:
        self.index = index
        self.name = name
        self.engine = engine
        #: Publish granularity: how often (simulated seconds) the node
        #: refreshes the queue-depth snapshot it advertises to the
        #: router.  ``0`` publishes at every consult (the freshest
        #: signal the event loop can give); larger intervals let the
        #: advertised depth go stale between epochs — the knob the
        #: staleness-vs-placement-quality sweep turns.
        self.publish_interval = float(publish_interval)
        self._published_epoch = -1
        self._published_snapshot = 0
        num_subnets = engine.backend.num_subnets
        #: Advertised service demand per request: the full largest-subnet
        #: cost — what a run-to-completion job costs on this backend.
        self.expected_macs = float(engine.backend.subnet_macs(num_subnets - 1))
        self.assigned: List[Request] = []
        self._completions: List[float] = []  # predicted, non-decreasing
        self._busy_until = 0.0
        #: The node's event loop, the one source of the live signals.
        self.run: Optional[ServingRun] = None

    # ------------------------------------------------------------------
    # Load signals (what a router may inspect)
    # ------------------------------------------------------------------
    def queue_length(self, now: float) -> int:
        """Predicted number of assigned requests still in the system."""
        return len(self._completions) - bisect_right(self._completions, now)

    def predicted_finish(self, macs: float, now: float) -> float:
        """Completion estimate for ``macs`` of new work placed now.

        Charges the work against the node's trace *after* its current
        predicted backlog — heterogeneous throughput and queue state both
        count, which is what makes least-loaded placement latency-aware.
        """
        start = max(now, self._busy_until)
        return self.engine.trace.time_to_execute(macs, start)

    def published_depth(self, now: float) -> int:
        """The node's published ready-queue length.

        The run's *actual* scheduler depth as of the node's last step
        boundary — stale by at most the one step currently in flight,
        like a real load balancer's published queue length.  A positive
        :attr:`publish_interval` coarsens the signal: the depth is
        snapshotted once per interval epoch and the router reads the
        last snapshot between epochs, exactly like a load balancer
        polling node stats on a timer.
        """
        if self.publish_interval > 0.0:
            epoch = math.floor(now / self.publish_interval)
            if epoch > self._published_epoch:
                self._published_epoch = epoch
                self._published_snapshot = self.run.queue_depth
        return self.peek_published_depth(now)

    def peek_published_depth(self, now: float) -> int:
        """What :meth:`published_depth` would answer, without refreshing.

        Trace instrumentation (``publish`` events) records the signal a
        router *would* consult; reading through this peek keeps the
        snapshot epoch state byte-identical between traced and untraced
        runs even for routers that never consult the depth at all.
        """
        if (
            self.publish_interval > 0.0
            and math.floor(now / self.publish_interval) <= self._published_epoch
        ):
            return self._published_snapshot
        return self.run.queue_depth

    def resident_bytes(self, now: float) -> int:
        """Bytes of inference contexts resident on this node.

        The run's residency ledger as of the node's last step boundary
        (the same staleness as :meth:`published_depth`).  The signal a
        memory-aware router places on: heterogeneous nodes differ in both
        speed *and* memory headroom, and a node serving under a tight
        :attr:`~repro.serving.spec.ServingSpec.memory_budget_bytes` pays
        recompute MACs for every context beyond its budget.
        """
        return self.run.resident_bytes

    def batch_potential(self, now: float) -> int:
        """Ready jobs a newly placed request could share its first pass with.

        The run's count of queued jobs still at the entry subnet edge
        (the scheduler's per-edge index, same one-event staleness as
        :meth:`published_depth`) — the occupancy signal: routing a
        request to the node where the most first steps wait lets
        coalescing policies fill their shared passes instead of
        fragmenting waves across the fleet.
        """
        return self.run.entry_edge_depth

    # ------------------------------------------------------------------
    def attach_run(self, run: ServingRun) -> None:
        """Bind the node's event loop, the source of the live signals."""
        self.run = run

    def assign(self, request: Request) -> None:
        """Record a placement and roll the fluid load model forward.

        Only the routing view changes: the coordinator delivers the
        request to the node's run itself.
        """
        self.assigned.append(request)
        self._charge(request)

    def _charge(self, request: Request) -> None:
        """Roll the fluid model forward by one placed request."""
        finish = self.predicted_finish(self.expected_macs, request.arrival_time)
        self._busy_until = finish
        self._completions.append(finish)

    def retract(self, request_id: int) -> bool:
        """Forget a placement: the request left this node before finishing.

        Invoked by the coordinator whenever work departs a node early —
        crash-driven migration, checkpointed failover, or a load-
        triggered steal — so the fluid model stops charging the old node
        for jobs it no longer holds (without this, analytic routers keep
        avoiding a node that is actually idle).  Removes the *last*
        matching placement (a request re-placed after failover may have
        visited the same node twice).  Placements before it are
        unaffected, since each charge depends only on the ones before
        it, so the predicted completions are cut at the departed
        placement, the busy horizon is restored from the last surviving
        completion, and only the later placements are replayed in order
        — identical to a fresh model that never saw the departed
        request.  Returns whether a placement was found.
        """
        for position in range(len(self.assigned) - 1, -1, -1):
            if self.assigned[position].request_id == request_id:
                break
        else:
            return False
        later = self.assigned[position + 1 :]
        del self.assigned[position:]
        del self._completions[position:]
        self._busy_until = self._completions[-1] if self._completions else 0.0
        for request in later:
            self.assigned.append(request)
            self._charge(request)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeState({self.name!r}, assigned={len(self.assigned)})"


class Router:
    """Base class for request-placement policies.

    A router sees each request at its arrival time together with the
    candidate nodes' advertised load (:class:`NodeState`, in node order)
    and returns the candidate that takes it.  Tie-breaking must be
    deterministic (the first candidate wins) so fleet simulations are
    exactly reproducible.
    """

    name = "router"
    #: Whether placements read measured node state (published queue
    #: depth, resident bytes, entry-edge occupancy), which only the
    #: nodes' runs hold.  The one flag the coordinator reads: a router
    #: that sets it gets live delivery.
    needs_live_state = False

    def reset(self, nodes: Sequence[NodeState]) -> None:
        """Forget all routing state (start of a ``serve()`` run)."""

    def route(self, request: Request, nodes: Sequence[NodeState], now: float) -> NodeState:
        """The node of ``nodes`` that takes ``request``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class RoundRobinRouter(Router):
    """Cycle through the nodes regardless of load — the placement baseline."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def reset(self, nodes: Sequence[NodeState]) -> None:
        self._next = 0

    def route(self, request: Request, nodes: Sequence[NodeState], now: float) -> NodeState:
        node = nodes[self._next % len(nodes)]
        self._next += 1
        return node


class JoinShortestQueueRouter(Router):
    """Place on the node advertising the fewest requests in system.

    The classic supermarket policy: counts jobs, not work, so it is
    throughput-blind — on heterogeneous fleets a slow node with a short
    queue still attracts traffic (exactly the failure mode
    :class:`LeastLoadedRouter` fixes).
    """

    name = "join-shortest-queue"

    def route(self, request: Request, nodes: Sequence[NodeState], now: float) -> NodeState:
        return min(nodes, key=lambda node: node.queue_length(now))


class LeastLoadedRouter(Router):
    """Place where the request is predicted to *finish* first.

    MAC- and latency-aware: the estimate charges the request's full
    service demand against each node's trace behind its current backlog,
    so both a node's speed and its queue count — an 8 GMAC/s vehicle ECU
    with two queued jobs can still beat an idle 50 MMAC/s MCU.

    ``signal`` selects the primary load key, the analytic finish
    estimate then breaking ties; each signal is registered in
    :data:`ROUTERS` under the name :attr:`SIGNALS` gives it, which is
    also the instance's :attr:`name`:

    * ``"predicted-finish"`` (``least-loaded``) — the fluid-model
      completion estimate alone;
    * ``"queue-depth"`` (``least-loaded-depth``) — the node's *published*
      scheduler depth (real queue state at step boundaries, stale by one
      in-flight event);
    * ``"memory"`` (``least-loaded-memory``) — :meth:`NodeState.resident_bytes`:
      the node whose inference contexts pin the fewest bytes takes the
      request, which keeps memory-budgeted nodes
      (:attr:`~repro.serving.spec.ServingSpec.memory_budget_bytes`) out
      of eviction/recompute thrash;
    * ``"occupancy"`` (``least-loaded-occupancy``) — maximise
      :meth:`NodeState.batch_potential`: join the node where the most
      first steps wait, so coalescing batch policies (``"continuous"``
      in particular) form full shared passes instead of fragmenting a
      wave across half-idle nodes.

    Every signal but ``"predicted-finish"`` reads measured node state
    and so sets :attr:`needs_live_state`.
    """

    name = "least-loaded"
    #: Load signal -> (registered router name, primary placement key).
    SIGNALS: Dict[str, Tuple[str, Callable[[NodeState, float], float]]] = {
        "predicted-finish": ("least-loaded", lambda node, now: 0),
        "queue-depth": ("least-loaded-depth", lambda node, now: node.published_depth(now)),
        "memory": ("least-loaded-memory", lambda node, now: node.resident_bytes(now)),
        "occupancy": ("least-loaded-occupancy", lambda node, now: -node.batch_potential(now)),
    }

    def __init__(self, signal: str = "predicted-finish") -> None:
        if signal not in self.SIGNALS:
            raise ValueError(
                f"unknown load signal '{signal}'; available: {list(self.SIGNALS)}"
            )
        self.signal = signal
        self.name, self._primary = self.SIGNALS[signal]
        self.needs_live_state = signal != "predicted-finish"

    def route(self, request: Request, nodes: Sequence[NodeState], now: float) -> NodeState:
        return min(
            nodes,
            key=lambda node: (
                self._primary(node, now),
                node.predicted_finish(node.expected_macs, now),
            ),
        )


#: Name-based registry of router factories, mirroring ``SCHEDULERS``.
ROUTERS: Dict[str, Callable[[], Router]] = {
    RoundRobinRouter.name: RoundRobinRouter,
    JoinShortestQueueRouter.name: JoinShortestQueueRouter,
    "jsq": JoinShortestQueueRouter,
    LeastLoadedRouter.name: LeastLoadedRouter,
    **{
        name: partial(LeastLoadedRouter, signal=signal)
        for signal, (name, _) in LeastLoadedRouter.SIGNALS.items()
        if name != LeastLoadedRouter.name
    },
}


def get_router(name: str) -> Router:
    """Instantiate a router by registry name."""
    try:
        return ROUTERS[name.lower()]()
    except KeyError as exc:
        raise ConfigError(
            f"unknown router '{name}'; available: {sorted(ROUTERS)}"
        ) from exc


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
#: Fleet admission policies: admit everything, or degrade-before-reject.
ADMISSION_POLICIES: Tuple[str, ...] = ("none", "degrade")


class AdmissionController:
    """Degrade-before-reject admission on the routed node's signals.

    The anytime property gives admission control a middle ground real
    servers lack: instead of the binary admit/reject, an arrival whose
    full-quality service is predicted to miss its deadline is *capped*
    to the largest subnet level whose :meth:`NodeState.predicted_finish`
    still lands in time (``Request.max_subnet``), and an arrival whose
    context would blow a bounded node's memory budget — forcing
    eviction/recompute thrash for everyone resident — is capped to the
    mandatory minimum level.  Only when even the minimum subnet cannot
    meet the deadline on any reachable node is the request rejected.
    """

    def decide(
        self, request: Request, node: NodeState, now: float
    ) -> Tuple[str, Optional[Request]]:
        """``("accept", request)``, ``("degrade", capped)`` or ``("reject", None)``."""
        backend = node.engine.backend
        top = backend.num_subnets - 1
        limit = top if request.max_subnet is None else min(top, request.max_subnet)
        cap = limit
        deadline = request.deadline
        if deadline is not None:
            feasible = None
            for level in range(cap, -1, -1):
                finish = node.predicted_finish(float(backend.subnet_macs(level)), now)
                if finish <= deadline:
                    feasible = level
                    break
            if feasible is None:
                return "reject", None
            cap = feasible
        budget = node.engine.memory_budget.budget_bytes
        if budget is not None:
            if node.resident_bytes(now) + backend.context_nbytes(request.batch_size) > budget:
                # Predicted recompute thrash: take the mandatory level
                # and leave — degrading beats evicting everyone else.
                cap = 0
        if cap >= limit:
            return "accept", request
        return "degrade", replace(request, max_subnet=cap)


# ----------------------------------------------------------------------
# Fleet report
# ----------------------------------------------------------------------
@dataclass
class ClusterReport(JobAggregates):
    """Aggregate fleet metrics over the per-node serving reports.

    Node reports stay accessible verbatim (``node_reports``) — a
    single-node cluster's node report is bit-identical to what the bare
    engine would have produced.  Every job-level metric (counts,
    makespan, latency percentiles, deadline misses, MAC totals, batch
    occupancy) is the shared :class:`~repro.serving.engine.JobAggregates`
    reduction over ``jobs`` — every node's records in node order, then
    ``extra_jobs`` — so fleet percentiles are computed over the merged
    completed jobs, not averaged per node, and fleet MAC totals include
    the steps of best-effort records the coordinator finalised itself.

    Like :class:`~repro.serving.engine.ServingReport`, derived scans
    (job lists, per-node utilisation) are memoised on first access: the
    report is written once by ``serve()`` and read many times (every
    percentile, every ``as_dict``).
    """

    node_reports: List[ServingReport] = field(default_factory=list)
    node_names: List[str] = field(default_factory=list)
    router_name: str = ""
    cluster_name: str = "cluster"
    #: Records the coordinator finalised itself: rejected arrivals,
    #: requests lost because no node was ever reachable, and best-effort
    #: anytime completions delivered when a retry budget or deadline ran
    #: out mid-failover.  Empty without faults, admission or stealing.
    extra_jobs: List[JobRecord] = field(default_factory=list)
    #: Queued-but-unstarted requests moved off a crashed node.
    migrations: int = 0
    #: Started jobs resumed on a surviving node from their subnet-level
    #: checkpoint (bit-exact replay; recompute MACs charged honestly).
    failovers: int = 0
    #: Arrivals admitted with a capped target subnet instead of rejected.
    degraded_admissions: int = 0
    #: Arrivals refused because even the minimum subnet was predicted to
    #: miss the deadline on every reachable node.
    rejected: int = 0
    #: Requests that never reached any node and never will.
    lost: int = 0
    #: Jobs moved between *healthy* nodes by the load trigger (includes
    #: the in-flight steals below).
    steals: int = 0
    #: Started jobs stolen as subnet-level checkpoints and resumed on
    #: the destination through the bit-exact replay path.
    inflight_steals: int = 0
    #: Shard requests created by batch sharding (``0`` when no arriving
    #: batch exceeded ``rebalance.shard_max_batch``).
    shards: int = 0
    #: Batch sharding's parent map: original request id -> the shard ids
    #: that replaced it, in slice order.  Empty without sharding.
    shard_groups: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    #: Snapshot of the coordinator's metrics registry
    #: (:class:`~repro.utils.metrics.MetricsRegistry`): the scalar
    #: counters above are *consumed* from it, never recomputed.  Always
    #: populated by ``serve()`` regardless of observability, so enabling
    #: tracing cannot change the report.
    metrics: Dict[str, Any] = field(default_factory=dict)

    _MEMOS = JobAggregates._MEMOS + ("jobs", "batch_sizes", "_node_jobs", "_node_utilisation")

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.node_reports)

    @cached_property
    def jobs(self) -> List[JobRecord]:
        """Every record: each node's jobs in node order, then ``extra_jobs``."""
        jobs = [job for report in self.node_reports for job in report.jobs]
        jobs.extend(self.extra_jobs)
        return jobs

    @cached_property
    def batch_sizes(self) -> List[int]:
        """Every node's dispatch sizes, concatenated in node order."""
        return [size for report in self.node_reports for size in report.batch_sizes]

    @property
    def retries(self) -> int:
        """Fleet-wide retry attempts (transient step failures + failovers)."""
        return sum(job.retries for job in self.jobs)

    # ------------------------------------------------------------------
    # Fleet memory accounting
    # ------------------------------------------------------------------
    @property
    def peak_resident_bytes(self) -> int:
        """Largest post-event context residency any node reached."""
        return max(
            (report.peak_resident_bytes for report in self.node_reports), default=0
        )

    @property
    def aux_evictions(self) -> int:
        return sum(report.aux_evictions for report in self.node_reports)

    @property
    def cache_evictions(self) -> int:
        return sum(report.cache_evictions for report in self.node_reports)

    @cached_property
    def _node_jobs(self) -> List[int]:
        return [report.num_jobs for report in self.node_reports]

    @property
    def node_jobs(self) -> List[int]:
        """Requests placed per node (the routing decision, directly)."""
        # A fresh list per access, so callers cannot corrupt the memo.
        return list(self._node_jobs)

    @cached_property
    def _node_utilisation(self) -> List[float]:
        span = self.makespan
        if span <= 0:
            return [0.0] * self.num_nodes
        busy = [
            sum(
                step.duration
                for job in report.jobs
                for step in job.steps
                if math.isfinite(step.duration)
            )
            for report in self.node_reports
        ]
        return [min(b / span, 1.0) for b in busy]

    @property
    def node_utilisation(self) -> List[float]:
        """Fraction of the fleet horizon each node spent executing steps."""
        return list(self._node_utilisation)

    @property
    def load_imbalance(self) -> float:
        """Peak-to-mean ratio of per-node placements (1.0 = perfectly even)."""
        counts = self._node_jobs
        mean = float(np.mean(counts)) if counts else 0.0
        return float(max(counts) / mean) if mean > 0 else float("nan")

    def gathered_logits(self) -> Dict[int, Optional[np.ndarray]]:
        """Per-parent stacked logits for every sharded request.

        Concatenates each parent's shard logits in slice order (row ``i``
        answers sample ``i`` of the original batch); a parent whose
        shards did not all complete gathers to ``None``.  Empty without
        batch sharding.
        """
        if not self.shard_groups:
            return {}
        from .rebalance import gather_shard_logits

        jobs_by_id = {job.request.request_id: job for job in self.jobs}
        return gather_shard_logits(jobs_by_id, self.shard_groups)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "cluster": self.cluster_name,
            "router": self.router_name,
            "num_nodes": self.num_nodes,
            "num_jobs": self.num_jobs,
            "completed": self.completed,
            "dropped": self.dropped,
            "makespan": self.makespan,
            "throughput_rps": self.throughput,
            "p50_latency": self.p50_latency,
            "p95_latency": self.p95_latency,
            "p99_latency": self.p99_latency,
            "mean_latency": self.mean_latency,
            "deadline_miss_rate": self.deadline_miss_rate,
            "total_macs": self.total_macs,
            "solo_steps": self.solo_steps,
            "batched_steps": self.batched_steps,
            "mean_batch_occupancy": self.mean_batch_occupancy,
            "peak_resident_bytes": self.peak_resident_bytes,
            "aux_evictions": self.aux_evictions,
            "cache_evictions": self.cache_evictions,
            "total_macs_recomputed": self.total_macs_recomputed,
            "retries": self.retries,
            "timed_out": self.timed_out,
            "migrations": self.migrations,
            "failovers": self.failovers,
            "degraded_admissions": self.degraded_admissions,
            "rejected": self.rejected,
            "lost": self.lost,
            "steals": self.steals,
            "inflight_steals": self.inflight_steals,
            "shards": self.shards,
            "shard_groups": {
                str(parent): list(shards)
                for parent, shards in sorted(self.shard_groups.items())
            },
            "load_imbalance": self.load_imbalance,
            "metrics": self.metrics,
            "node_jobs": self.node_jobs,
            "node_utilisation": self.node_utilisation,
            "nodes": [
                dict(report.as_dict(), node=name, utilisation=utilisation, assigned=jobs)
                for name, report, utilisation, jobs in zip(
                    self.node_names, self.node_reports, self._node_utilisation, self._node_jobs
                )
            ],
        }


def _publish_signals(
    recorder: TraceRecorder,
    nodes: Sequence[NodeState],
    request: Request,
    now: float,
) -> None:
    """Record every candidate node's advertised load at one routing decision.

    One ``publish`` event per candidate node, carrying the fluid-model
    jobs-in-system estimate (``fluid_depth``), the node's actual live
    scheduler depth (``live_depth``) and the snapshot the router would
    consult under the node's publish granularity (``published_depth`` —
    equal to ``live_depth`` when :attr:`NodeState.publish_interval` is
    zero).  The per-sample gaps are the routing signal's staleness;
    :func:`~repro.serving.observe.staleness_curve` aggregates them.
    The published value is read through a mutation-free peek so tracing
    cannot perturb the snapshot epochs a depth router will refresh.

    Only emitted under live delivery, where every node's run advances on
    the shared clock: each event is stamped at the node's visible clock —
    a node cannot observe a routing consult before its own time, which
    keeps per-node timestamps monotone even when a consult lands
    mid-step.  Closed-loop delivery runs no node before routing is done,
    so its samples would have no node timeline to live on.
    """
    for node in nodes:
        recorder.emit(
            "publish",
            max(now, node.run.now),
            node=node.name,
            request_id=request.request_id,
            fluid_depth=int(node.queue_length(now)),
            live_depth=int(node.run.queue_depth),
            published_depth=int(node.peek_published_depth(now)),
        )


def _arrival_order(request: Request) -> Tuple[float, int]:
    return request.arrival_time, request.request_id


def _route(
    router: Router, request: Request, candidates: Sequence[NodeState], now: float
) -> NodeState:
    """The candidate node ``router`` places ``request`` on."""
    choice = router.route(request, candidates, now)
    if not any(choice is node for node in candidates):
        raise ValueError(
            f"router '{router.name}' returned {choice!r}, not one of the "
            f"{len(candidates)} candidate nodes"
        )
    return choice


def _departures(
    work: CrashedNodeWork,
) -> Iterator[Tuple[Request, Optional[InterruptedJob]]]:
    """``(request, checkpoint)`` per job leaving a node, unstarted ones first.

    Unstarted requests carry no checkpoint; started jobs travel as their
    subnet-level checkpoint.
    """
    for request in work.unstarted:
        yield request, None
    for checkpoint in work.interrupted:
        yield checkpoint.request, checkpoint


# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------
class Coordinator:
    """The fleet event loop behind one :meth:`ServingCluster.serve` call.

    One heap orders every coordinator event by simulated time, ties
    breaking on push order: injected crash/recover transitions are pushed
    first — so a node that recovers at the instant it receives work
    recovers first — then arrivals in ``(arrival, id)`` order, then the
    reroute, retry and rebalance events that handling generates.  Each
    event kind has one ``_on_<kind>`` handler, and :meth:`place` routes a
    request, or a failed-over checkpoint, onto a reachable node.

    :attr:`live` selects the delivery rule described in the module
    docstring.  It is derived from the cluster's configuration: under
    live delivery every node's run is advanced to each event before the
    event is handled, so placements read post-fault measured state;
    otherwise nodes only receive work until the heap drains, then run.

    Crash semantics: the dying run hands back its queued-but-unstarted
    requests (migrated immediately, charged nothing) and its in-flight
    jobs as subnet-level checkpoints.  A checkpoint re-enters a surviving
    node through the eviction replay path
    (:meth:`~repro.serving.engine.ServingRun.push_resumed`) after its
    capped exponential backoff — the replay restores the activation
    state bit-for-bit and charges the recompute MACs honestly.  When the
    retry budget or the deadline runs out, the checkpoint is finalised
    with its best-so-far anytime prediction instead of being lost:
    partial answers are the whole point of stepping inference.  A
    recovering node comes back in the same run
    (:meth:`~repro.serving.engine.ServingRun.recover`), so every node has
    exactly one run, and one report, per call.
    """

    def __init__(
        self, cluster: "ServingCluster", recorder: Optional[TraceRecorder] = None
    ) -> None:
        self.cluster = cluster
        self.router = cluster.router
        self.recorder = recorder
        faults = cluster.faults
        self.injector = faults.injector(cluster.node_names) if faults is not None else None
        self.retry = faults.retry if faults is not None else RetryPolicy()
        self.enforce = all(engine.enforce_deadline for engine in cluster.engines)
        self.admission = AdmissionController() if cluster.admission == "degrade" else None
        rebalance = cluster.rebalance
        self.rebalance = rebalance if rebalance is not None and rebalance.enabled else None
        self.tick = (
            self.rebalance.interval or cluster.publish_interval
            if self.rebalance is not None
            else 0.0
        )
        self.live = (
            faults is not None
            or self.admission is not None
            or self.rebalance is not None
            or self.router.needs_live_state
        )
        # The registry is always on and the report consumes its counters,
        # so enabling tracing cannot change a report.
        self.registry = MetricsRegistry()
        self.counters = {name: self.registry.counter(name) for name in _COORDINATOR_COUNTERS}
        #: Records no node serves: rejected, lost and best-effort jobs.
        self.extra: List[JobRecord] = []
        self.nodes = cluster._new_nodes()
        #: One run per node for the whole call, attached to the node under
        #: either delivery rule: a crash empties it and a recovery brings
        #: it back in place, so its report spans both.
        self.runs: List[ServingRun] = [
            node.engine.open_run(fault_injector=self.injector, node=node.name, recorder=recorder)
            for node in self.nodes
        ]
        for node, run in zip(self.nodes, self.runs):
            node.attach_run(run)
        self.router.reset(self.nodes)
        self._events: List[Tuple[float, int, str, Any]] = []
        self._sequence = itertools.count()

    # ------------------------------------------------------------------
    def serve(self, requests: Sequence[Request]) -> ClusterReport:
        """Shard, route and run the workload; the fleet report."""
        requests, shard_groups = self._shard(requests)
        if self.injector is not None:
            for node in self.nodes:
                for time, kind in self.injector.transitions(node.name):
                    self._push(time, kind, node)
        for request in sorted(requests, key=_arrival_order):
            self._push(request.arrival_time, "arrival", request)
        if self.rebalance is not None and requests:
            first_arrival = min(request.arrival_time for request in requests)
            self._push(first_arrival + self.tick, "rebalance", None)
        while self._events:
            time, _, kind, payload = heapq.heappop(self._events)
            if self.live:
                # A crashed run has no next event, so it stays put.
                for run in self.runs:
                    run.run_until(time)
            getattr(self, f"_on_{kind}")(payload, time)
        # With the event heap empty the runs no longer interact, so each
        # ``finish`` drains its own run.
        cluster = self.cluster
        return ClusterReport(
            node_reports=[run.finish() for run in self.runs],
            node_names=list(cluster.node_names),
            router_name=self.router.name,
            cluster_name=cluster.name,
            extra_jobs=self.extra,
            shard_groups=shard_groups,
            metrics=self.registry.snapshot(),
            **{name: counter.value for name, counter in self.counters.items()},
        )

    def _shard(
        self, requests: Sequence[Request]
    ) -> Tuple[Sequence[Request], Dict[int, Tuple[int, ...]]]:
        """Split oversized input batches into slice-view shard requests.

        Runs before any placement; the report keeps the parent map so
        per-shard logits gather back into one answer.
        """
        spec = self.cluster.rebalance
        if spec is None or spec.shard_max_batch is None:
            return requests, {}
        from .rebalance import shard_requests

        by_id = {request.request_id: request for request in requests}
        sharded, groups = shard_requests(requests, spec.shard_max_batch)
        for parent_id, shard_ids in sorted(
            groups.items(), key=lambda item: _arrival_order(by_id[item[0]])
        ):
            self.counters["shards"].add(len(shard_ids))
            if self.recorder is not None:
                parent = by_id[parent_id]
                self.recorder.emit(
                    "shard",
                    float(parent.arrival_time),
                    request_id=parent_id,
                    shards=list(shard_ids),
                    batch_size=parent.batch_size,
                )
        return sharded, groups

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _on_arrival(self, request: Request, now: float) -> None:
        self.place(request, now)

    _on_reroute = _on_arrival

    def _on_retry(self, checkpoint: InterruptedJob, now: float) -> None:
        self.place(checkpoint.request, now, checkpoint=checkpoint)

    def _on_rebalance(self, _: None, now: float) -> None:
        """Evaluate the steal trigger on published depths; re-arm the tick."""
        # Looked up per call, so instrumentation wrapping the module
        # function sees every evaluation.
        from .rebalance import steal_plan

        ready = self._reachable(now)
        # Reading a published depth refreshes its snapshot epoch, so only
        # read when there is a pair to compare.
        if len(ready) >= 2:
            plan = steal_plan([node.published_depth(now) for node in ready], self.rebalance)
            if plan is not None:
                victim = ready[plan[0]]
                work = victim.run.steal(
                    plan[1], now, include_started=self.rebalance.steal_in_flight
                )
                for request, checkpoint in _departures(work):
                    victim.retract(request.request_id)
                    self.counters["steals"].add()
                    if checkpoint is not None:
                        self.counters["inflight_steals"].add()
                    self._emit_at(
                        victim,
                        "steal",
                        now,
                        request_id=request.request_id,
                        inflight=checkpoint is not None,
                    )
                    self.place(request, now, checkpoint=checkpoint, exclude=victim)
        # Re-arm while any work remains anywhere; the last tick dies with
        # the fleet drained, ending the event loop.
        if self._events or any(run.next_event_time() is not None for run in self.runs):
            self._push(now + self.tick, "rebalance", None)

    def _on_crash(self, node: NodeState, now: float) -> None:
        run = node.run
        if run.crashed:
            return
        work = run.crash(now)
        for request, checkpoint in _departures(work):
            # The fluid model forgets departed work immediately: analytic
            # signals must not keep charging a dead node for jobs the
            # survivors are about to take.
            node.retract(request.request_id)
            if checkpoint is None:
                self.counters["migrations"].add()
                self._emit_at(node, "migrate", now, request_id=request.request_id)
                self.place(request, now)
            elif checkpoint.retries >= self.retry.budget:
                self._finalize(request, now, "retry budget exhausted at node failure", checkpoint)
            else:
                delay = self.retry.backoff(checkpoint.retries)
                checkpoint.retries += 1
                if self._retry_at(
                    checkpoint, now + delay, now, "deadline reached during failover backoff"
                ):
                    self.counters["failovers"].add()

    def _on_recover(self, node: NodeState, now: float) -> None:
        run = node.run
        if not run.crashed:
            return
        run.recover(now)
        _LOG.info("node '%s' recovered at t=%.6f", node.name, now)
        if self.recorder is not None:
            self.recorder.emit("recover", now, node=node.name)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def place(
        self,
        request: Request,
        now: float,
        checkpoint: Optional[InterruptedJob] = None,
        exclude: Optional[NodeState] = None,
    ) -> None:
        """Route ``request`` (resuming ``checkpoint``, if any) onto a node.

        ``exclude`` keeps stolen work off its victim — unless the victim
        is the only node that can serve it (a bounced steal beats losing
        the checkpoint).  With no candidate the request waits for the
        next reachable instant or is finalised (:meth:`_unplaceable`).
        """
        reachable = self._reachable(now)
        candidates = reachable
        if checkpoint is not None and checkpoint.history:
            # The replay must land on a node whose backend serves every
            # level the checkpoint already executed.
            top = checkpoint.history[-1]
            candidates = [node for node in reachable if node.engine.backend.num_subnets > top]
        if exclude is not None:
            others = [node for node in candidates if node is not exclude]
            if others:
                candidates = others
        if not candidates:
            self._unplaceable(request, now, checkpoint, bool(reachable))
            return
        if self.live and self.recorder is not None:
            _publish_signals(self.recorder, candidates, request, now)
        node = _route(self.router, request, candidates, now)
        if checkpoint is None and self.admission is not None:
            node, request = self._admit(request, node, candidates, now)
            if node is None:
                return
        node.assign(request)
        if checkpoint is None:
            node.run.push(request, not_before=now)
            return
        self._emit_at(
            node,
            "failover",
            now,
            request_id=request.request_id,
            resume_levels=len(checkpoint.history),
            attempt=checkpoint.retries,
        )
        node.run.push_resumed(checkpoint, resume_at=now)

    def _unplaceable(
        self,
        request: Request,
        now: float,
        checkpoint: Optional[InterruptedJob],
        any_reachable: bool,
    ) -> None:
        """No candidate node: wait for the fleet, or finalise the request."""
        if checkpoint is not None and any_reachable:
            self._finalize(
                request, now, "no surviving node serves the checkpoint's subnet levels", checkpoint
            )
            return
        horizon = self.injector.next_reachable(now) if self.injector is not None else math.inf
        if not math.isfinite(horizon):
            reason = (
                "no serving node ever reachable"
                if checkpoint is None
                else "fleet never reachable again"
            )
            self._finalize(request, now, reason, checkpoint)
        elif checkpoint is None:
            self._push(horizon, "reroute", request)
        else:
            self._retry_at(
                checkpoint, horizon, now, "deadline reached before any node is reachable"
            )

    def _admit(
        self,
        request: Request,
        node: NodeState,
        candidates: Sequence[NodeState],
        now: float,
    ) -> Tuple[Optional[NodeState], Optional[Request]]:
        """Degrade-before-reject admission of a fresh arrival.

        Returns the admitting node and the (possibly capped) request, or
        ``(None, None)`` when every candidate rejects it.
        """
        verdict, admitted = self.admission.decide(request, node, now)
        if verdict == "reject":
            # The routed node cannot land even the minimum subnet; scan
            # the rest before giving up.
            for other in candidates:
                if other is node:
                    continue
                verdict, admitted = self.admission.decide(request, other, now)
                if verdict != "reject":
                    node = other
                    break
        if verdict == "reject":
            self.counters["rejected"].add()
            _LOG.warning(
                "admission: rejected request %s at t=%.6f — minimum subnet "
                "predicted to miss the deadline on every reachable node",
                request.request_id,
                now,
            )
            self.extra.append(
                JobRecord(
                    request=request,
                    status="rejected",
                    stop_reason=(
                        "admission control: minimum subnet predicted to "
                        "miss the deadline on every reachable node"
                    ),
                )
            )
            if self.recorder is not None:
                self.recorder.emit(
                    "reject",
                    now,
                    request_id=request.request_id,
                    reason="minimum subnet misses deadline everywhere",
                )
            return None, None
        if verdict == "degrade":
            self.counters["degraded_admissions"].add()
            _LOG.warning(
                "admission: degraded request %s to max_subnet=%s on node '%s' at t=%.6f",
                request.request_id,
                admitted.max_subnet,
                node.name,
                now,
            )
            self._emit_at(
                node, "degrade", now, request_id=request.request_id, max_subnet=admitted.max_subnet
            )
        else:
            self._emit_at(node, "admit", now, request_id=request.request_id)
        return node, admitted

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _push(self, time: float, kind: str, payload: Any) -> None:
        heapq.heappush(self._events, (time, next(self._sequence), kind, payload))

    def _reachable(self, now: float) -> List[NodeState]:
        return [
            node
            for node in self.nodes
            if not node.run.crashed
            and (self.injector is None or self.injector.reachable(node.name, now))
        ]

    def _retry_at(
        self, checkpoint: InterruptedJob, when: float, now: float, reason: str
    ) -> bool:
        """Schedule ``checkpoint``'s retry at ``when``; whether it was.

        The retry heap is clamped to the hard deadline: a retry due at or
        past it could only be discovered dead at dispatch, so the
        best-so-far anytime answer is finalised now instead.
        """
        deadline = checkpoint.request.deadline
        if self.enforce and deadline is not None and when >= deadline:
            self._finalize(checkpoint.request, now, reason, checkpoint)
            return False
        self._push(when, "retry", checkpoint)
        return True

    def _finalize(
        self,
        request: Request,
        now: float,
        reason: str,
        checkpoint: Optional[InterruptedJob] = None,
    ) -> None:
        """Settle a request no node will serve.

        With a checkpoint the record carries its best-so-far anytime
        answer (``completed`` if any level ran, else ``dropped``);
        without one the request is lost.
        """
        if checkpoint is None:
            self.counters["lost"].add()
            record = JobRecord(request=request, status="lost", stop_reason=reason)
            flags: Dict[str, Any] = {}
        else:
            record = JobRecord(
                request=request,
                steps=list(checkpoint.steps),
                status="completed" if checkpoint.steps else "dropped",
                stop_reason=reason,
                final_logits=checkpoint.logits,
                retries=checkpoint.retries,
            )
            flags = {"best_effort": True}
        self.extra.append(record)
        if self.recorder is not None:
            self.recorder.emit(
                "finalize",
                now,
                request_id=request.request_id,
                status=record.status,
                reason=reason,
                **flags,
                arrival=float(request.arrival_time),
            )

    def _emit_at(self, node: NodeState, kind: str, now: float, **fields: Any) -> None:
        """Trace a node-attributed decision, clamped to the node's clock.

        A node learns of a coordinator decision no earlier than its own
        time, which keeps per-node timestamps monotone.
        """
        if self.recorder is not None:
            self.recorder.emit(kind, max(now, node.run.now), node=node.name, **fields)


# ----------------------------------------------------------------------
# The cluster facade
# ----------------------------------------------------------------------
def _resolve_network(network_or_result):
    """Accept a SteppingNetwork or anything exposing ``servable()``."""
    servable = getattr(network_or_result, "servable", None)
    return servable() if callable(servable) else network_or_result


class ServingCluster:
    """A fleet of serving engines behind one request router.

    Build it from engines directly, or declaratively through
    :meth:`from_spec` — one engine per node
    :class:`~repro.serving.spec.ServingSpec` over heterogeneous
    platforms.  :meth:`serve` routes the merged request stream and runs
    every node's event loop, returning a :class:`ClusterReport`.
    """

    def __init__(
        self,
        engines: Sequence[ServingEngine],
        router: Union[Router, str] = "round-robin",
        names: Optional[Sequence[str]] = None,
        name: str = "cluster",
        spec: Optional[ClusterSpec] = None,
        faults: Optional[Union[FaultSpec, Mapping[str, Any]]] = None,
        admission: str = "none",
        observe: Optional[Union[ObservabilitySpec, Mapping[str, Any]]] = None,
        publish_interval: float = 0.0,
        rebalance: Optional[Mapping[str, Any]] = None,
    ) -> None:
        if not engines:
            raise ValueError("a ServingCluster needs at least one engine")
        from .rebalance import RebalanceSpec  # rebalance.py imports this module
        from .spec import ClusterSpec  # spec.py imports this module

        check_field(ClusterSpec, "publish_interval", publish_interval)
        self.publish_interval = float(publish_interval)

        self.rebalance = coerce(RebalanceSpec, rebalance)
        if (
            self.rebalance is not None
            and self.rebalance.enabled
            and self.rebalance.interval <= 0.0
            and self.publish_interval <= 0.0
        ):
            raise ConfigError(
                "rebalance.enabled needs a positive rebalance.interval or a "
                "positive cluster publish_interval to evaluate its trigger at"
            )
        self.engines = list(engines)
        #: Fleet-wide observability: one shared recorder per ``serve()``
        #: call (single global event sequence across every node).
        self.observe = coerce(ObservabilitySpec, observe)
        self.router = get_router(router) if isinstance(router, str) else router
        if names is None:
            names = [f"node{index}" for index in range(len(self.engines))]
        if len(names) != len(self.engines):
            raise ValueError("names must match the number of engines")
        self.node_names = list(names)
        self.name = name
        self.spec = spec
        self.faults = coerce(FaultSpec, faults)
        admission = admission.lower()
        if admission not in ADMISSION_POLICIES:
            raise ConfigError(
                f"unknown admission policy '{admission}'; "
                f"available: {sorted(ADMISSION_POLICIES)}"
            )
        self.admission = admission
        if self.faults is not None:
            # Fail fast on fault events naming nodes this fleet lacks.
            self.faults.injector(self.node_names)
            # The fleet runs on its own shallow copies, so the caller's
            # engines (and any other fleet built over them) stay as given.
            self.engines = [copy.copy(engine) for engine in self.engines]
            for node_name, engine in zip(self.node_names, self.engines):
                # Slowdown windows derate the node's trace statically, so
                # the run's execution times and the fluid routing signals
                # read the same derated rates.
                engine.trace = self.faults.derate(engine.trace, node_name)
                # Transient step failures on every node back off under
                # the chaos schedule's retry policy.
                engine.retry_policy = self.faults.retry

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        spec: Union[ClusterSpec, Mapping[str, Any]],
        network_or_result=None,
    ) -> "ServingCluster":
        """Build the fleet a :class:`~repro.serving.spec.ClusterSpec` declares.

        Without an explicit network, the spec's declarative ``model`` is
        instantiated — so a complete fleet simulation can be launched
        from one JSON file.  All node backends share one compiled plan
        per ``(dtype, prune)`` via the plan cache; each node gets its own
        engine, trace and scheduler.
        """
        from .spec import ClusterSpec  # spec.py imports this module

        spec = coerce(ClusterSpec, spec)
        network = _resolve_network(network_or_result)
        if network is None:
            network = spec.build_network()
        engines = [node.build_engine(network) for node in spec.nodes]
        return cls(
            engines,
            router=spec.router,
            names=[node.node_name for node in spec.nodes],
            name=spec.name,
            spec=spec,
            faults=spec.faults,
            admission=spec.admission,
            observe=spec.observe,
            publish_interval=spec.publish_interval,
            rebalance=spec.rebalance,
        )

    @property
    def num_nodes(self) -> int:
        return len(self.engines)

    # ------------------------------------------------------------------
    def _new_nodes(self) -> List[NodeState]:
        """Fresh router-visible node views for one routing pass."""
        return [
            NodeState(index, name, engine, publish_interval=self.publish_interval)
            for index, (name, engine) in enumerate(zip(self.node_names, self.engines))
        ]

    def route_requests(self, requests: Sequence[Request]) -> List[List[Request]]:
        """Place every request on the fluid model; returns the per-node sub-streams.

        Requests are placed in arrival order on the shared clock, each
        placement seeing the load implied by all earlier ones.  This is
        exactly the partition closed-loop delivery serves: when
        :meth:`serve` delivers closed-loop (see the module docstring) and
        no batch is sharded, node ``i`` receives
        ``route_requests(requests)[i]``.  A router that reads live node
        state has no such partition — :meth:`serve` always delivers live
        under it — and raises :class:`~repro.utils.errors.ConfigError`.
        Request ids must be unique across the whole fleet workload
        (:func:`~repro.serving.request.merge_streams` guarantees this for
        merged streams).
        """
        if self.router.needs_live_state:
            raise ConfigError(
                f"router '{self.router.name}' reads live node state, so no "
                "closed-loop partition exists; serve() delivers live under it"
            )
        self._check_unique_ids(requests)
        nodes = self._new_nodes()
        self.router.reset(nodes)
        for request in sorted(requests, key=_arrival_order):
            _route(self.router, request, nodes, request.arrival_time).assign(request)
        return [node.assigned for node in nodes]

    def _check_unique_ids(self, requests: Sequence[Request]) -> None:
        ids = [request.request_id for request in requests]
        if len(set(ids)) != len(ids):
            raise ConfigError(
                "request_id values must be unique across the cluster workload; "
                "merge streams with repro.serving.merge_streams"
            )

    def serve(
        self,
        requests: Optional[Sequence[Request]] = None,
        *,
        recorder: Optional[TraceRecorder] = None,
    ) -> ClusterReport:
        """Route the workload and run every node's event loop.

        With no explicit ``requests`` the spec's declared streams are
        built and merged (requires :meth:`from_spec` construction).
        Request ids must be unique across the workload, or
        :class:`~repro.utils.errors.ConfigError` is raised before any
        batch sharding renumbers them.  One :class:`Coordinator` serves
        the call; whether it delivers live or closed-loop follows from
        the configuration (faults, admission, rebalancing,
        :attr:`Router.needs_live_state`), as the module docstring sets out.

        ``recorder`` attaches a caller-owned observability trace (the
        caller closes it and keeps the events); without one, an enabled
        ``observe`` spec builds a recorder owned — and closed — by this
        call.  Either way every node emits into the one globally
        sequenced stream: per-node ``ServingSpec.observe`` is superseded
        by the fleet-wide spec.
        """
        if requests is None:
            if self.spec is None:
                raise ValueError("no requests given and no ClusterSpec to build them from")
            input_shape = self.engines[0].backend.network.spec.input_shape
            requests = self.spec.build_requests(input_shape=input_shape)
        self._check_unique_ids(requests)
        owned = None
        if recorder is None and self.observe is not None and self.observe.enabled:
            owned = recorder = self.observe.build()
        try:
            return Coordinator(self, recorder).serve(requests)
        finally:
            if owned is not None:
                owned.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServingCluster({self.name!r}, nodes={self.node_names}, "
            f"router={self.router.name!r})"
        )


def serve(
    network_or_result,
    cluster_spec: Union[ClusterSpec, Mapping[str, Any]],
    requests: Optional[Sequence[Request]] = None,
) -> ClusterReport:
    """Serve a workload on a declaratively specified fleet — the front door.

    ``network_or_result`` is a trained
    :class:`~repro.core.network.SteppingNetwork` or the
    :class:`~repro.core.api.SteppingNetResult` of the design flow (or
    ``None`` to instantiate the spec's declarative model);
    ``cluster_spec`` a :class:`~repro.serving.spec.ClusterSpec` or its
    dict form.  When ``requests`` is omitted the spec's streams are
    built and merged.

    >>> report = serve(result, ClusterSpec.from_json("fleet.json"))
    >>> report.throughput, report.p95_latency
    """
    cluster = ServingCluster.from_spec(cluster_spec, network_or_result)
    return cluster.serve(requests)
