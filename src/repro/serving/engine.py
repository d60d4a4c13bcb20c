"""Event-driven multi-request serving engine.

:class:`ServingEngine` multiplexes many in-flight anytime inferences
over one shared :class:`~repro.runtime.platform.ResourceTrace` (a single
accelerator whose available throughput varies over time).  The engine is
a discrete-event simulator whose unit of work is one *subnet step*:

1. requests are admitted as simulated time passes their arrival;
2. at every step boundary the pluggable
   :class:`~repro.serving.scheduler.Scheduler` picks which ready job
   runs next — so any job can be preempted between subnet levels and
   resumed later, its activation cache waiting on the job's own
   execution session (the session owns its inference state);
3. the selected job executes exactly one subnet level — or, under a
   batching policy (:mod:`repro.serving.batching`), one *shared* subnet
   level together with every compatible ready job at the same subnet
   edge — charged at the backend's cost model (delta MACs for
   SteppingNet, full-subnet MACs for the recompute baseline) against
   the shared trace; a batch charges the sum of its members' MACs but
   a single per-step overhead (the kernel launch is shared);
4. a job leaves the system when it reaches the largest subnet, its
   policy declines further refinement, its deadline passes, or the trace
   is permanently starved.

The event loop itself lives in :class:`ServingRun`, a *resumable*
stepper (``push`` / ``run_until`` / ``finish``): ``serve()`` simply
pushes every request and runs to completion, while the fleet layer can
interleave several runs on one clock and read each node's actual
scheduler depth between events (real-queue-state routing).

The result is a :class:`ServingReport` with production-style metrics:
throughput, latency percentiles (p50/p95/p99), deadline-miss rate,
queueing delay, MAC/reuse accounting and batch-occupancy counters.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from ..analysis.metrics import deadline_miss_rate as _deadline_miss_rate
from ..utils.metrics import percentile
from ..runtime.platform import ResourceTrace
from ..runtime.policies import PolicyState
from ..utils.errors import ConfigError
from ..utils.logging import get_logger
from ..utils.metrics import MetricsRegistry
from .backend import ExecutionBackend, ServingJob, StepOutcome
from .batching import BatchPolicy, NoBatching, get_batch_policy
from .codec import coerce
from .faults import FaultInjector, RetryPolicy
from .memory import EvictionEvent, EvictionPolicy, MemoryBudget
from .observe import ObservabilitySpec, TraceRecorder
from .request import Request
from .scheduler import FIFOScheduler, Scheduler, get_scheduler

_TIME_EPS = 1e-12

_LOG = get_logger("repro.serving")

#: The ``(job, outcome)`` pairs one dispatch executed, in pass order,
#: and the laggards its catch-up stopped, with their stop reasons.
_Executed = List[Tuple[ServingJob, StepOutcome]]
_Stops = List[Tuple[ServingJob, str]]


@dataclass
class ServedStep:
    """One executed subnet level of one request.

    ``macs_recomputed`` (included in ``macs_charged``) is the replay
    surcharge paid when this step resumed an evicted context — zero in
    unbounded serving.
    """

    subnet: int
    start_time: float
    finish_time: float
    macs_charged: float
    macs_reused: float
    confidence: float
    logits: Optional[np.ndarray] = None
    macs_recomputed: float = 0.0

    @property
    def duration(self) -> float:
        return self.finish_time - self.start_time


@dataclass
class JobRecord:
    """Complete serving outcome of one request."""

    request: Request
    steps: List[ServedStep] = field(default_factory=list)
    status: str = "completed"  # completed | dropped | starved | rejected | lost
    stop_reason: str = ""
    final_logits: Optional[np.ndarray] = None
    #: True when the per-request watchdog (``max_service_time``) cut the
    #: job off with its best-so-far anytime prediction.
    timed_out: bool = False
    #: Retry attempts this request consumed (transient failures plus
    #: cross-node failovers) — cumulative across nodes.
    retries: int = 0

    @property
    def final_subnet(self) -> int:
        return self.steps[-1].subnet if self.steps else -1

    @property
    def completion_time(self) -> float:
        return self.steps[-1].finish_time if self.steps else float("nan")

    @property
    def first_result_time(self) -> float:
        return self.steps[0].finish_time if self.steps else float("nan")

    @property
    def latency(self) -> float:
        """Arrival to last refinement (the job's full residence time)."""
        return self.completion_time - self.request.arrival_time

    @property
    def first_result_latency(self) -> float:
        """Arrival to first usable result (what an anytime client waits for)."""
        return self.first_result_time - self.request.arrival_time

    @property
    def queueing_delay(self) -> float:
        """Arrival to first time on the accelerator."""
        return self.steps[0].start_time - self.request.arrival_time if self.steps else float("nan")

    @property
    def deadline_met(self) -> bool:
        """True when a usable result existed at the deadline.

        The mandatory first step must have *completed* (finite finish
        time) at or before the deadline, the exact boundary counting as
        met; later optional refinements that overrun do not revoke it.
        A job with no completed step (never served, or a starved trace
        whose first step never finishes) never meets a deadline, and
        without a deadline it still needs that first step finished.
        """
        if not self.steps:
            return False
        first = self.steps[0].finish_time
        if not math.isfinite(first):
            return False
        if self.request.deadline is None:
            return True
        return first <= self.request.deadline

    @property
    def subnet_at_deadline(self) -> int:
        deadline = self.request.deadline
        completed = -1
        for step in self.steps:
            if deadline is None or step.finish_time <= deadline:
                completed = step.subnet
        return completed

    def logits_at_deadline(self) -> Optional[np.ndarray]:
        deadline = self.request.deadline
        best = None
        for step in self.steps:
            if (deadline is None or step.finish_time <= deadline) and step.logits is not None:
                best = step.logits
        return best

    @property
    def total_macs_charged(self) -> float:
        return sum(step.macs_charged for step in self.steps)

    @property
    def total_macs_reused(self) -> float:
        return sum(step.macs_reused for step in self.steps)

    @property
    def total_macs_recomputed(self) -> float:
        """MACs this job spent replaying evicted state (part of charged)."""
        return sum(step.macs_recomputed for step in self.steps)


def _batch_accuracy(logits: Optional[np.ndarray], labels) -> Optional[float]:
    if logits is None or labels is None:
        return None
    predictions = np.asarray(logits).argmax(axis=-1)
    return float((predictions == np.asarray(labels)).mean())


class JobAggregates:
    """Every reduction over a run's :class:`JobRecord` list, implemented once.

    Subclasses provide ``jobs`` (the records, in a deterministic order)
    and ``batch_sizes`` (the member count of every executed forward
    pass); :class:`ServingReport` stores both as fields, and
    :class:`~repro.serving.cluster.ClusterReport` derives them from its
    node reports plus the records its coordinator finalised itself.

    The derived job lists and latency vectors are computed once on first
    access (``cached_property``), not re-scanned per metric — a report
    over thousands of jobs is read many times (every percentile, every
    ``as_dict``) but its ``jobs`` list is written exactly once, by
    ``serve()``.  If ``jobs`` is mutated afterwards, call
    :meth:`invalidate_caches`.
    """

    #: Memoised attributes :meth:`invalidate_caches` drops.
    _MEMOS: Tuple[str, ...] = (
        "_completed_jobs",
        "_dropped_jobs",
        "_latencies",
        "_first_result_latencies",
    )

    def invalidate_caches(self) -> None:
        """Drop memoised derived lists after mutating ``jobs``."""
        for name in self._MEMOS:
            self.__dict__.pop(name, None)

    # ------------------------------------------------------------------
    @property
    def num_jobs(self) -> int:
        return len(self.jobs)

    @cached_property
    def _completed_jobs(self) -> List[JobRecord]:
        return [job for job in self.jobs if job.steps and math.isfinite(job.completion_time)]

    @cached_property
    def _dropped_jobs(self) -> List[JobRecord]:
        return [job for job in self.jobs if job.status == "dropped"]

    @property
    def completed_jobs(self) -> List[JobRecord]:
        # A fresh list per access: callers may sort/filter it without
        # corrupting the memoised scan behind the aggregate metrics.
        return list(self._completed_jobs)

    @property
    def dropped_jobs(self) -> List[JobRecord]:
        return list(self._dropped_jobs)

    @property
    def completed(self) -> int:
        return len(self._completed_jobs)

    @property
    def dropped(self) -> int:
        return len(self._dropped_jobs)

    @property
    def makespan(self) -> float:
        """First arrival to last finite completion."""
        completed = self._completed_jobs
        if not completed:
            return 0.0
        start = min(job.request.arrival_time for job in self.jobs)
        end = max(job.completion_time for job in completed)
        return max(end - start, 0.0)

    @property
    def throughput(self) -> float:
        """Completed requests per second of makespan."""
        span = self.makespan
        return len(self._completed_jobs) / span if span > 0 else 0.0

    @cached_property
    def _latencies(self) -> np.ndarray:
        values = [job.latency for job in self._completed_jobs]
        return np.asarray([v for v in values if math.isfinite(v)], dtype=float)

    @cached_property
    def _first_result_latencies(self) -> np.ndarray:
        values = [job.first_result_latency for job in self._completed_jobs]
        return np.asarray([v for v in values if math.isfinite(v)], dtype=float)

    def latencies(self, first_result: bool = False) -> np.ndarray:
        # A copy, so callers mutating the result (sort, unit conversion)
        # cannot corrupt the memoised vector behind the percentiles.
        values = self._first_result_latencies if first_result else self._latencies
        return values.copy()

    def latency_percentile(self, q: float, first_result: bool = False) -> float:
        values = self._first_result_latencies if first_result else self._latencies
        return percentile(values, q)

    @property
    def p50_latency(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p95_latency(self) -> float:
        return self.latency_percentile(95.0)

    @property
    def p99_latency(self) -> float:
        return self.latency_percentile(99.0)

    @property
    def mean_latency(self) -> float:
        values = self._latencies
        return float(values.mean()) if values.size else float("nan")

    @property
    def mean_queueing_delay(self) -> float:
        values = [
            job.queueing_delay for job in self._completed_jobs if math.isfinite(job.queueing_delay)
        ]
        return float(np.mean(values)) if values else float("nan")

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of deadline-carrying requests without a result in time."""
        return _deadline_miss_rate(
            job.deadline_met for job in self.jobs if job.request.deadline is not None
        )

    @property
    def mean_subnet_at_deadline(self) -> float:
        if not self.jobs:
            return float("nan")
        return float(np.mean([job.subnet_at_deadline for job in self.jobs]))

    @property
    def mean_accuracy_at_deadline(self) -> float:
        values = [
            _batch_accuracy(job.logits_at_deadline(), job.request.labels) for job in self.jobs
        ]
        values = [v for v in values if v is not None]
        return float(np.mean(values)) if values else float("nan")

    @property
    def mean_delivered_levels(self) -> float:
        """Mean subnet count (depth + 1) delivered to completed requests."""
        completed = self._completed_jobs
        if not completed:
            return float("nan")
        return sum(job.final_subnet + 1 for job in completed) / len(completed)

    @property
    def total_macs(self) -> float:
        return float(sum(job.total_macs_charged for job in self.jobs))

    @property
    def total_macs_reused(self) -> float:
        return float(sum(job.total_macs_reused for job in self.jobs))

    @property
    def reuse_fraction(self) -> float:
        total = self.total_macs + self.total_macs_reused
        return self.total_macs_reused / total if total else 0.0

    @property
    def total_macs_recomputed(self) -> float:
        """MACs spent replaying evicted contexts (included in total_macs)."""
        return float(sum(job.total_macs_recomputed for job in self.jobs))

    @property
    def recompute_overhead(self) -> float:
        """Fraction of all charged MACs that were eviction replays."""
        total = self.total_macs
        return self.total_macs_recomputed / total if total else 0.0

    # ------------------------------------------------------------------
    # Batch-occupancy accounting
    # ------------------------------------------------------------------
    @property
    def num_dispatches(self) -> int:
        """Executed forward passes (a shared pass of any size counts once).

        The wall-clock unit batching amortises: each entry is one plan
        walk, whatever its member count.  Continuous batching's catch-up
        cohorts count as their own passes even though they ride their
        dispatch's single launch overhead.
        """
        return len(self.batch_sizes)

    @property
    def solo_steps(self) -> int:
        """Subnet steps executed alone (dispatches of size one)."""
        return sum(1 for size in self.batch_sizes if size == 1)

    @property
    def batched_steps(self) -> int:
        """Subnet steps executed inside a shared pass (size > 1)."""
        return sum(size for size in self.batch_sizes if size > 1)

    @property
    def mean_batch_occupancy(self) -> float:
        """Mean members per dispatch (1.0 means batching never engaged)."""
        if not self.batch_sizes:
            return float("nan")
        return float(np.mean(self.batch_sizes))

    @property
    def max_batch_occupancy(self) -> int:
        return max(self.batch_sizes) if self.batch_sizes else 0

    @property
    def timed_out(self) -> int:
        """Jobs the per-request watchdog finalised with best-so-far."""
        return sum(1 for job in self.jobs if job.timed_out)

    def to_dict(self) -> Dict[str, object]:
        """Strictly-JSON-safe ``as_dict()`` (numpy scalars unwrapped,
        non-finite floats mapped to None) for benchmark artifacts, so
        ``json.dumps(report.to_dict())`` always succeeds."""
        return _json_safe(self.as_dict())


@dataclass
class ServingReport(JobAggregates):
    """Aggregate serving metrics over one request stream.

    Every metric over ``jobs`` and ``batch_sizes`` comes from
    :class:`JobAggregates` (memoised; see :meth:`invalidate_caches`);
    the remaining fields are the run's names, memory ledger and
    counters, consumed from its metrics registry.
    """

    jobs: List[JobRecord] = field(default_factory=list)
    backend_name: str = ""
    scheduler_name: str = ""
    trace_name: str = ""
    batch_policy_name: str = "none"
    #: Member count of every executed forward pass, in execution order:
    #: ``[1, 1, ...]`` for unbatched serving, larger entries where ready
    #: jobs shared a pass.  A continuous-batching dispatch contributes
    #: one entry per catch-up cohort pass plus one for the shared pass
    #: it tops up, so every executed step belongs to exactly one entry.
    batch_sizes: List[int] = field(default_factory=list)
    #: Jobs a continuous-batching run topped into an in-flight wave
    #: (each one caught up mid-dispatch instead of opening a new wave);
    #: 0 for every policy without refills.
    refilled_jobs: int = 0
    #: Resident-context budget the run served under (None = unbounded)
    #: and the eviction policy that enforced it.
    memory_budget_bytes: Optional[float] = None
    eviction_policy_name: str = ""
    #: High-water mark of post-event residency — never exceeds the
    #: budget when one is set; the unbounded run's peak is what
    #: budget sweeps are sized from.
    peak_resident_bytes: int = 0
    aux_evictions: int = 0
    cache_evictions: int = 0
    bytes_evicted: int = 0
    #: Every eviction performed, in order (tier, victim, bytes).
    eviction_events: List[EvictionEvent] = field(default_factory=list)
    #: Step attempts this run lost to transient faults (each one consumed
    #: accelerator time, executed nothing, and re-queued its job under
    #: the retry policy's backoff).
    retries: int = 0
    #: Snapshot of the run's :class:`~repro.utils.metrics.MetricsRegistry`
    #: (counters/gauges/histograms); the scalar report fields above are
    #: *consumed* from these counters, not recomputed.
    metrics: dict = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        return {
            "backend": self.backend_name,
            "scheduler": self.scheduler_name,
            "trace": self.trace_name,
            "batch_policy": self.batch_policy_name,
            "num_jobs": self.num_jobs,
            "completed": self.completed,
            "dropped": self.dropped,
            "makespan": self.makespan,
            "throughput_rps": self.throughput,
            "p50_latency": self.p50_latency,
            "p95_latency": self.p95_latency,
            "p99_latency": self.p99_latency,
            "mean_latency": self.mean_latency,
            "mean_queueing_delay": self.mean_queueing_delay,
            "deadline_miss_rate": self.deadline_miss_rate,
            "mean_subnet_at_deadline": self.mean_subnet_at_deadline,
            "mean_accuracy_at_deadline": self.mean_accuracy_at_deadline,
            "total_macs": self.total_macs,
            "total_macs_reused": self.total_macs_reused,
            "reuse_fraction": self.reuse_fraction,
            "dispatches": self.num_dispatches,
            "solo_steps": self.solo_steps,
            "batched_steps": self.batched_steps,
            "mean_batch_occupancy": self.mean_batch_occupancy,
            "max_batch_occupancy": self.max_batch_occupancy,
            "refilled_jobs": self.refilled_jobs,
            "memory_budget_bytes": self.memory_budget_bytes,
            "eviction_policy": self.eviction_policy_name,
            "peak_resident_bytes": self.peak_resident_bytes,
            "aux_evictions": self.aux_evictions,
            "cache_evictions": self.cache_evictions,
            "bytes_evicted": self.bytes_evicted,
            "total_macs_recomputed": self.total_macs_recomputed,
            "recompute_overhead": self.recompute_overhead,
            "retries": self.retries,
            "timed_out": self.timed_out,
            "metrics": self.metrics,
        }


def _json_safe(value):
    """Recursively convert a report payload to strict-JSON types."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, np.ndarray):
        return _json_safe(value.tolist())
    return value


class ServingEngine:
    """Serve a stream of requests over a shared resource trace.

    Parameters
    ----------
    backend:
        The :class:`~repro.serving.backend.ExecutionBackend` executing
        each request (SteppingNet or recompute).
    trace:
        Shared accelerator throughput over time.
    scheduler:
        A :class:`~repro.serving.scheduler.Scheduler` registry name
        (``"fifo"``, ``"edf"``, ``"priority"``), class, or instance.
        Whatever is given is treated as a *factory*: every ``serve()``
        call runs against a fresh scheduler (instances are
        :meth:`~repro.serving.scheduler.Scheduler.clone`\\ d), so one
        scheduler object can be shared between engines — a cluster's
        node engines in particular — without their ready queues
        silently corrupting each other.
    batch_policy:
        A :class:`~repro.serving.batching.BatchPolicy` registry name
        (``"none"``, ``"same-level"``, ``"windowed"``, ``"continuous"``)
        or instance.  Anything but ``"none"`` groups compatible ready
        jobs at the scheduler winner's subnet edge into one shared
        forward pass (:meth:`~repro.serving.backend.ExecutionBackend.advance_group`,
        which every backend runs); ``"continuous"`` additionally refills
        under-full in-flight waves with catch-up laggards at every step
        boundary.
    overhead_per_step:
        Fixed seconds charged per executed subnet step (kernel launch,
        context switch).  A batched dispatch charges it once for the
        whole batch — amortising this overhead is the simulated-time
        benefit of batching.
    memory_budget_bytes:
        Bound on the total bytes of resident inference contexts
        (suspended requests' activation caches, plan aux buffers, input
        copies).  ``None`` (default) is unbounded; a bounded engine
        evicts suspended jobs between events — aux buffers first (they
        rebuild transparently), then whole contexts, whose resume
        replays their executed levels and charges the recompute MACs
        honestly.  Logits are bit-identical either way for any budget
        that holds one running context; see :mod:`repro.serving.memory`.
    eviction_policy:
        Which suspended context to evict first
        (:data:`~repro.serving.memory.EVICTION_POLICIES`: ``"lru"``,
        ``"largest-first"``, ``"lowest-progress"``) — a registry name or
        an :class:`~repro.serving.memory.EvictionPolicy` instance.
    drop_expired:
        When True, a request whose deadline passes before it ever runs
        is dropped without consuming accelerator time (admission
        control); when False the mandatory first level is still executed
        (every client gets *some* answer, the anytime contract).
    enforce_deadline:
        When True a job stops refining once simulated time reaches its
        deadline even if its policy would continue; turn off to let the
        policy alone decide (the single-shot executor semantics).
    max_service_time:
        Per-request watchdog in simulated seconds: a job still resident
        ``max_service_time`` after its arrival is finalised with its
        best-so-far anytime prediction and flagged ``timed_out`` instead
        of running unboundedly.  ``None`` (default) disables it.
    retry_policy:
        Backoff/budget policy for transiently-failed steps (see
        :class:`~repro.serving.faults.RetryPolicy`); only consulted when
        the run is driven with a fault injector.
    observe:
        An :class:`~repro.serving.observe.ObservabilitySpec` (or its
        mapping form).  When enabled, ``serve()`` builds a
        :class:`~repro.serving.observe.TraceRecorder` from it and every
        run event is traced; disabled (the default) leaves every hook a
        ``None`` check.  ``open_run`` callers pass a recorder explicitly
        instead (the fleet layer shares one across nodes).
    """

    def __init__(
        self,
        backend: ExecutionBackend,
        trace: ResourceTrace,
        scheduler: Union[Scheduler, Type[Scheduler], str, None] = None,
        *,
        batch_policy: Union[BatchPolicy, str, None] = None,
        memory_budget_bytes: Optional[float] = None,
        eviction_policy: Union[EvictionPolicy, str] = "lru",
        overhead_per_step: float = 0.0,
        drop_expired: bool = False,
        enforce_deadline: bool = True,
        max_service_time: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        observe: Optional[ObservabilitySpec] = None,
    ) -> None:
        if overhead_per_step < 0:
            raise ValueError("overhead_per_step must be non-negative")
        if max_service_time is not None and max_service_time <= 0:
            raise ValueError("max_service_time must be positive when set")
        self.backend = backend
        self.trace = trace
        self._scheduler_spec = scheduler if scheduler is not None else FIFOScheduler
        #: Prototype instance (name, policy introspection); ``serve()``
        #: never mutates it — each call runs on a fresh clone.
        self.scheduler = self._new_scheduler()
        if batch_policy is None:
            batch_policy = NoBatching()
        elif isinstance(batch_policy, str):
            batch_policy = get_batch_policy(batch_policy)
        self.batch_policy = batch_policy
        #: Prototype budget (bound + policy, zeroed counters); every run
        #: gets a fresh clone, like the scheduler.  Validates the policy
        #: name and bound eagerly.
        self.memory_budget = MemoryBudget(memory_budget_bytes, eviction_policy)
        self.overhead_per_step = overhead_per_step
        self.drop_expired = drop_expired
        self.enforce_deadline = enforce_deadline
        self.max_service_time = max_service_time
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.observe = coerce(ObservabilitySpec, observe)

    def _new_scheduler(self) -> Scheduler:
        """Instantiate a fresh ready queue from the configured factory."""
        spec = self._scheduler_spec
        if isinstance(spec, str):
            return get_scheduler(spec)
        if isinstance(spec, type):
            return spec()
        return spec.clone()

    # ------------------------------------------------------------------
    def open_run(
        self,
        *,
        fault_injector: Optional[FaultInjector] = None,
        node: Optional[str] = None,
        recorder: Optional[TraceRecorder] = None,
    ) -> "ServingRun":
        """Start a resumable event loop (push / run_until / finish).

        ``serve()`` is the closed-loop convenience over this; the fleet
        layer drives several open runs on one shared clock so routers
        can read each node's *actual* scheduler depth between events.

        ``fault_injector`` (with this node's ``node`` name) wires the
        run into a chaos schedule: transient faults fail dispatched
        steps, and the cluster coordinator drives crash/recover events.

        ``recorder`` attaches an observability trace explicitly — open
        runs never build one from the engine's spec because the caller
        (the fleet layer) typically shares a recorder across nodes and
        owns its lifecycle.
        """
        return ServingRun(self, fault_injector=fault_injector, node=node, recorder=recorder)

    def serve(
        self,
        requests: Sequence[Request],
        *,
        recorder: Optional[TraceRecorder] = None,
    ) -> ServingReport:
        """Run the event loop until every request has been finalised.

        Request ids must be unique within one call and every request's
        inputs must suit the network (``push`` raises on a duplicate id,
        and :class:`~repro.utils.errors.ConfigError` on bad inputs,
        before any serving work happens).  When the engine's
        ``observe`` spec is enabled and no ``recorder`` is passed, one is
        built for this call and closed with it.
        """
        owned = None
        if recorder is None and self.observe is not None and self.observe.enabled:
            owned = recorder = self.observe.build()
        run = self.open_run(recorder=recorder)
        try:
            for request in requests:
                run.push(request)
            return run.finish()
        finally:
            if owned is not None:
                owned.close()


@dataclass
class InterruptedJob:
    """Checkpoint of a started job that lost its node (crash/partition).

    Carries everything failover needs: the immutable request, the
    executed-level replay script, the steps already served (they stay on
    the final record), the best-so-far logits, and the retries consumed.
    No accelerator state crosses nodes — the receiving backend replays
    the history bit-for-bit and charges the recompute MACs honestly,
    exactly as eviction-resume does.
    """

    request: Request
    history: List[int]
    steps: List[ServedStep]
    logits: Optional[np.ndarray]
    retries: int


def _checkpoint(job: ServingJob, steps: Sequence[ServedStep]) -> InterruptedJob:
    """The failover checkpoint of a started job whose served steps are ``steps``."""
    return InterruptedJob(
        request=job.request,
        history=job.session.level_history,
        steps=list(steps),
        logits=job.session.logits,
        retries=job.retries,
    )


@dataclass
class CrashedNodeWork:
    """Everything a crashing node hands back to the cluster coordinator."""

    #: Requests that never executed a step — they migrate whole.
    unstarted: List[Request]
    #: Started jobs with progress to fail over via checkpointed replay.
    interrupted: List[InterruptedJob]


class ServingRun:
    """One resumable pass of an engine's event loop.

    ``serve()`` == push every request, then :meth:`finish`.  The fleet
    layer instead pushes requests *as it routes them* and calls
    :meth:`run_until` to advance the node's clock only up to each
    routing decision — between events it can read :attr:`queue_depth`,
    the node's actual scheduler depth as of the last step boundary (a
    stale-by-one-event signal, like a real load balancer sees).

    Event structure: one :meth:`_advance_once` call runs these phases
    in order; a phase that consumes the event ends it.

    1. *admit and timers* — admit arrivals, re-queue jobs whose retry
       backoff elapsed, run the watchdog; with nothing ready, jump the
       clock to :meth:`next_event_time`;
    2. *expire* (:meth:`_expire`) — drop jobs whose deadline passed
       before their first step;
    3. *pick* (:meth:`_pick`) — the scheduler's winner; a started one
       first gets a fresh verdict (:meth:`_stop_reason`);
    4. *fault* — a transient fault fails the step (:meth:`_fail_step`);
    5. *form cohort* (:meth:`_form_cohort`) — compatible ready jobs at
       the winner's subnet edge, or None during a coalescing wait;
    6. *catch-up* (:meth:`_catch_up`) — continuous batching's laggards
       walk up to the wave's edge;
    7. *group pass* (:meth:`_pass`) — one subnet level for the group;
    8. *record steps* (:meth:`_record_steps`) — the dispatch charges
       the sum of member MACs and one launch overhead;
    9. *settle* (:meth:`_settle`) — clock to the shared finish, then
       every member's verdict.

    The scheduler is a fresh clone per run, so any number of concurrent
    runs (one per cluster node) stay isolated.  :meth:`crash` empties a
    run and :meth:`recover` brings it back in place, so a node keeps one
    run, and one report, however often it fails.
    """

    def __init__(
        self,
        engine: ServingEngine,
        *,
        fault_injector: Optional[FaultInjector] = None,
        node: Optional[str] = None,
        recorder: Optional[TraceRecorder] = None,
    ) -> None:
        self.engine = engine
        self.now = 0.0
        #: Observability hooks: ``None`` (default) keeps every emit site
        #: a single attribute check — the zero-overhead-when-disabled
        #: contract.  All event timestamps are simulated seconds.
        self._obs = recorder
        self._plan_timer(attach=True)
        #: Always-on deterministic metrics; the report's scalar counters
        #: are read off this registry at :meth:`finish`, which also fills
        #: the per-pass ones (dispatches, occupancy) from the pass log.
        self.metrics = MetricsRegistry()
        self._m_retries = self.metrics.counter("retries")
        self._m_refills = self.metrics.counter("refilled_jobs")
        self._m_dispatches = self.metrics.counter("dispatches")
        self._m_steps = self.metrics.counter("steps_executed")
        self._m_admitted = self.metrics.counter("jobs_admitted")
        self._m_finalized = self.metrics.counter("jobs_finalized")
        self._m_evictions = self.metrics.counter("evictions")
        self._m_occupancy = self.metrics.histogram("batch_occupancy")
        self._wave = 0
        #: ``((macs, now), finish)`` of the last :meth:`_finish_time`.
        self._price: Tuple[tuple, float] = ((), math.nan)
        #: Chaos wiring: the shared injector answers "does this node's
        #: next dispatch fail?"; ``node`` is this run's name in it.
        self.fault_injector = fault_injector
        self.node = node if node is not None else "node"
        # The scheduler *is* the ready set: a heap-backed queue that jobs
        # enter on admission and leave (lazily) on finalisation, so
        # picking the next job is O(log n) instead of an O(n) scan.
        self.scheduler = engine._new_scheduler()
        #: Not-yet-admitted requests as a heap keyed (arrival, id).
        self._pending: List[Tuple[float, int, Request]] = []
        self._records: Dict[int, JobRecord] = {}
        self._ids: set = set()
        # Admission control runs off an expiry heap keyed on deadline:
        # only unstarted deadline-carrying jobs ever enter it, and a job
        # that started (or finalised) in the meantime is skipped lazily
        # on pop — dropping expired jobs is O(log n) per event, not an
        # O(n) ready-set scan.
        self._expiry: List[Tuple[float, int]] = []
        self._batch_sizes: List[int] = []
        #: Fresh per-run resident-context budget (counters start at zero);
        #: enforcement runs after every dispatch that overshoots it, so
        #: between events the residency never exceeds the configured bound.
        self.memory = engine.memory_budget.clone()
        # The residency ledger: bytes per live context, updated as jobs
        # execute, are evicted and leave, instead of re-summing every
        # queued context per dispatch — the peak stays exact and dispatch
        # cost stays independent of the queue length.
        self._resident_total: int = 0
        self._resident_sizes: Dict[Union[int, str], int] = {}
        self._footprint_by_level: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        self._report: Optional[ServingReport] = None
        #: Jobs waiting out a retry backoff: id -> job, plus a heap of
        #: (retry_at, id).  They hold their contexts (and count against
        #: the memory budget) but are invisible to the scheduler.
        self._delayed_jobs: Dict[int, ServingJob] = {}
        self._delayed_heap: List[Tuple[float, int]] = []
        #: Watchdog deadlines (arrival + max_service_time, id); entries
        #: for finalised jobs are skipped lazily on pop.
        self._watchdog: List[Tuple[float, int]] = []
        #: Failover hand-offs awaiting admission: id -> restored job and
        #: the steps it already served elsewhere.
        self._resumed: Dict[int, Tuple[ServingJob, List[ServedStep]]] = {}
        self._crashed = False

    # ------------------------------------------------------------------
    # Feeding and observing the run
    # ------------------------------------------------------------------
    def push(self, request: Request, not_before: Optional[float] = None) -> None:
        """Queue a request for admission at its arrival time.

        ``not_before`` floors the admission instant: a request rerouted
        to this node at coordinator time ``t`` (its first target was
        partitioned or crashed) must not start earlier than ``t`` even
        when this node's clock still lags behind.
        """
        when = request.arrival_time
        if not_before is not None:
            when = max(when, not_before)
        self._enqueue(request, when)

    def push_resumed(
        self, checkpoint: InterruptedJob, resume_at: Optional[float] = None
    ) -> None:
        """Queue a failed-over job with its checkpoint for admission.

        The job enters this run's queue at ``resume_at`` (not before its
        arrival time) holding a freshly opened session restored from the
        checkpoint: its first dispatch here replays the executed-level
        history — bit-equal to the original steps — and charges the
        recompute MACs, exactly like an eviction resume.
        """
        request = checkpoint.request
        when = request.arrival_time
        if resume_at is not None:
            when = max(resume_at, when)
        self._enqueue(request, when, checkpoint)

    def _enqueue(
        self, request: Request, when: float, checkpoint: Optional[InterruptedJob] = None
    ) -> None:
        """The one way into the run: validate, register the id, queue, trace ``arrive``."""
        self._check_up()
        request_id = request.request_id
        if request_id in self._ids:
            raise ValueError(f"request_id {request_id} already pushed into this run")
        self._check_inputs(request)
        flags = {}
        if checkpoint is not None:
            session = self.engine.backend.open(request.inputs, checked=True)
            session.restore(checkpoint.history, checkpoint.logits)
            job = ServingJob(
                request=request,
                session=session,
                steps_executed=len(session.level_history),
                retries=int(checkpoint.retries),
                confidence=checkpoint.steps[-1].confidence if checkpoint.steps else None,
            )
            self._resumed[request_id] = (job, list(checkpoint.steps))
            flags = {"resumed": True, "resume_levels": len(session.level_history)}
        self._ids.add(request_id)
        heapq.heappush(self._pending, (when, request_id, request))
        if self._obs is not None:
            # The node's perspective: it cannot learn of an arrival
            # earlier than its own clock, which keeps per-node
            # timestamps monotone under interleaved fleet driving.
            self._obs.emit(
                "arrive",
                max(when, self.now),
                node=self.node,
                request_id=request_id,
                arrival=float(request.arrival_time),
                deadline=float(request.deadline) if request.deadline is not None else None,
                **flags,
            )

    def _check_inputs(self, request: Request) -> None:
        """Raise :class:`ConfigError` unless the inputs are a finite batch the network takes.

        A network without convolutions also takes flattened samples.  The
        request's session is opened ``checked``: this is its one check.
        """
        inputs = np.asarray(request.inputs)
        problem = self.engine.backend.network.spec.input_shape_problem(inputs.shape)
        if problem is None and (inputs.dtype.kind not in "biuf" or not np.isfinite(inputs).all()):
            problem = "must be finite numbers"
        if problem is not None:
            raise ConfigError(f"request {request.request_id}: inputs {problem}")

    @property
    def queue_depth(self) -> int:
        """Live scheduler depth as of the last processed event.

        Requests pushed but not yet admitted (their arrival lies beyond
        the run's clock, or the node is mid-step) are *not* counted —
        exactly the staleness a real load balancer's published queue
        length exhibits.
        """
        return len(self.scheduler)

    @property
    def resident_bytes(self) -> int:
        """Bytes the node's live inference contexts pin right now.

        Like :attr:`queue_depth`, a stale-by-one-event signal: the
        residency ledger as of the last processed event — what a
        memory-aware fleet router reads between arrivals.
        """
        return self._resident_total

    @property
    def entry_edge_depth(self) -> int:
        """Queued jobs still at the entry subnet edge ``(-1, 0)``.

        The batch companions a newly routed request would share its
        mandatory first pass with — the occupancy-aware routing signal,
        read straight off the scheduler's per-edge index with the same
        one-event staleness as :attr:`queue_depth`.
        """
        return self.scheduler.count_at_edge((-1, 0))

    @property
    def crashed(self) -> bool:
        """Whether the node is down: between :meth:`crash` and :meth:`recover`."""
        return self._crashed

    def next_event_time(self) -> Optional[float]:
        """When the next event would run (None when the run is drained)."""
        if self._crashed:
            return None
        if len(self.scheduler):
            return self.now
        candidates = []
        if self._pending:
            candidates.append(self._pending[0][0])
        if self._delayed_heap:
            candidates.append(self._delayed_heap[0][0])
            # Watchdog deadlines only matter while jobs are live; with an
            # empty scheduler that means backoff-delayed ones.
            if self._watchdog:
                candidates.append(self._watchdog[0][0])
        if not candidates:
            return None
        return max(self.now, min(candidates))

    # ------------------------------------------------------------------
    # Driving the run
    # ------------------------------------------------------------------
    def run_until(self, until: float) -> None:
        """Process every event that starts at or before ``until``.

        The clock may end beyond ``until``: a step that *starts* in time
        is executed to completion (steps are non-preemptible), exactly as
        in the closed-loop serve.
        """
        while True:
            when = self.next_event_time()
            if when is None or when > until:
                return
            self._advance_once()

    def finish(self) -> ServingReport:
        """Drain the run and build its :class:`ServingReport` (idempotent)."""
        if self._report is not None:
            return self._report
        self.run_until(math.inf)
        report = ServingReport(
            backend_name=self.engine.backend.name,
            scheduler_name=self.scheduler.name,
            trace_name=self.engine.trace.name,
            batch_policy_name=self.engine.batch_policy.name,
        )
        report.jobs = [self._records[request_id] for request_id in sorted(self._records)]
        report.batch_sizes = list(self._batch_sizes)
        self._m_dispatches.add(len(self._batch_sizes))
        for size in self._batch_sizes:
            self._m_occupancy.observe(size)
        # Scalar counters are *consumed* from the metrics registry — the
        # registry is the single writer, the report a snapshot reader.
        report.refilled_jobs = self._m_refills.value
        report.retries = self._m_retries.value
        report.memory_budget_bytes = self.memory.budget_bytes
        report.eviction_policy_name = self.memory.policy.name
        report.peak_resident_bytes = self.memory.peak_resident_bytes
        report.aux_evictions = self.memory.aux_evictions
        report.cache_evictions = self.memory.cache_evictions
        report.bytes_evicted = self.memory.bytes_evicted
        report.eviction_events = list(self.memory.events)
        report.metrics = self.metrics.snapshot()
        self._report = report
        self._plan_timer(attach=False)
        return report

    # ------------------------------------------------------------------
    # Event-loop internals
    # ------------------------------------------------------------------
    def _admit(self, until: float) -> None:
        engine = self.engine
        while self._pending and self._pending[0][0] <= until + _TIME_EPS:
            _, _, request = heapq.heappop(self._pending)
            request_id = request.request_id
            resumed = self._resumed.pop(request_id, None)
            if resumed is None:
                job = ServingJob(
                    request=request, session=engine.backend.open(request.inputs, checked=True)
                )
                steps: List[ServedStep] = []
            else:
                job, steps = resumed
            record = JobRecord(request=request, steps=steps)
            if record.steps:
                record.final_logits = job.session.logits
            record.retries = job.retries
            self._records[request_id] = record
            self.scheduler.add(job)
            self._m_admitted.add()
            if self._obs is not None:
                self._obs.emit(
                    "enqueue",
                    until,
                    node=self.node,
                    request_id=request_id,
                    queue_depth=len(self.scheduler),
                )
            if engine.drop_expired and request.deadline is not None and not job.started:
                heapq.heappush(self._expiry, (request.deadline, request_id))
            if engine.max_service_time is not None:
                heapq.heappush(
                    self._watchdog,
                    (request.arrival_time + engine.max_service_time, request_id),
                )

    def _finalize(
        self, job: ServingJob, status: str, reason: str, timed_out: bool = False
    ) -> None:
        request_id = job.request.request_id
        record = self._records[request_id]
        record.status = status
        record.stop_reason = reason
        if timed_out:
            record.timed_out = True
        record.retries = job.retries
        if job.session.logits is not None:
            record.final_logits = job.session.logits
        self._release(job)
        self._m_finalized.add()
        if self._obs is not None:
            self._obs.emit(
                "finalize",
                self.now,
                node=self.node,
                request_id=request_id,
                status=status,
                reason=reason,
                timed_out=timed_out,
                queue_depth=len(self.scheduler),
            )

    def _check_up(self) -> None:
        """Raise unless the run is still open and its node is up."""
        if self._report is not None:
            raise RuntimeError("run already finished")
        if self._crashed:
            raise RuntimeError(f"node '{self.node}' already crashed")

    def _release(self, job: ServingJob) -> None:
        """The one way out of the run for a live job.

        The job leaves the scheduler and the delay queue, its residency
        entry is dropped and its session closed, so the memory
        accounting (and any bounded budget) sees its context gone.
        """
        request_id = job.request.request_id
        self.scheduler.discard(job)
        self._delayed_jobs.pop(request_id, None)
        self._resident_total -= self._resident_sizes.pop(request_id, 0)
        job.session.close()

    def _live_jobs(self) -> List[ServingJob]:
        """Every job holding a context here: ready ones, then backoff-delayed ones."""
        return list(self.scheduler.jobs()) + list(self._delayed_jobs.values())

    def _due(self, heap: List[Tuple[float, int]]) -> Iterator[int]:
        """Pop the request ids of lazy timer ``heap`` entries due by the clock."""
        while heap and heap[0][0] <= self.now + _TIME_EPS:
            yield heapq.heappop(heap)[1]

    def _plan_timer(self, attach: bool) -> None:
        """Point the backend's plan timer at the recorder's, or detach it."""
        if self._obs is not None and self._obs.plan_timer is not None:
            if attach:
                self.engine.backend.attach_plan_timer(self._obs.plan_timer)
            else:
                self.engine.backend.detach_plan_timer()

    def _release_delayed(self) -> None:
        """Re-queue delayed jobs whose retry backoff has elapsed."""
        for request_id in self._due(self._delayed_heap):
            job = self._delayed_jobs.pop(request_id, None)
            if job is None:
                continue  # stale entry: finalised during the backoff
            self.scheduler.add(job)

    def _run_watchdog(self) -> None:
        """Finalise jobs whose per-request service-time budget elapsed."""
        for request_id in self._due(self._watchdog):
            job = self.scheduler.get(request_id)
            if job is None:
                job = self._delayed_jobs.get(request_id)
            if job is None:
                continue  # stale entry: already finalised
            _LOG.warning(
                "watchdog: request %s exceeded max_service_time on node '%s' at t=%.6f",
                request_id,
                self.node,
                self.now,
            )
            status = "completed" if job.started else "dropped"
            self._finalize(job, status, "max service time exceeded", timed_out=True)

    def _finish_time(self, macs: float) -> float:
        """When ``macs`` started now would finish, launch overhead included.

        ``inf`` when the trace never grants enough throughput again.  A
        run's trace is fixed, so the last price is kept: a dispatch that
        charges exactly the MACs its verdict priced, at the same clock,
        reuses it.
        """
        key = (macs, self.now)
        if key == self._price[0]:
            return self._price[1]
        finish = self.engine.trace.time_to_execute(float(macs), self.now)
        if math.isfinite(finish):
            finish += self.engine.overhead_per_step
        self._price = (key, finish)
        return finish

    def _stop_reason(self, job: ServingJob) -> Optional[str]:
        """Why ``job`` should be finalised now, or None to keep refining.

        Judged at the run's clock and queue depth, from the confidence
        the job's last pass computed.  The policy's verdict is memoised
        on the job (:attr:`ServingJob.stop_memo`) under a key holding
        everything the verdict reads that can change while the job waits
        at one level: the level, the clock, the scheduler depth and the
        next step's MACs (an eviction adds its replay).  A time-insensitive
        policy's key is the level alone, and its next step is not priced.
        """
        engine = self.engine
        backend = engine.backend
        session = job.session
        level = session.current_subnet
        if level + 1 >= backend.num_subnets:
            return "largest subnet reached"
        cap = job.request.max_subnet
        if cap is not None and level >= cap:
            return "admission-capped subnet reached"
        deadline = job.request.deadline
        if engine.enforce_deadline and deadline is not None and self.now >= deadline - _TIME_EPS:
            return "deadline reached"
        timed = backend.policy.time_sensitive
        next_macs = session.next_step_macs() if timed else math.nan
        key = (level, self.now, len(self.scheduler), next_macs) if timed else level
        memo = job.stop_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        decision = backend.policy.decide(
            PolicyState(
                current_subnet=level,
                num_subnets=backend.num_subnets,
                logits=session.logits,
                current_time=self.now,
                deadline=deadline,
                next_step_macs=next_macs,
                estimated_finish_time=self._finish_time(next_macs) if timed else math.inf,
                queue_depth=max(len(self.scheduler) - 1, 0),
                confidence_value=job.confidence,
                start_time=job.request.arrival_time,
            )
        )
        reason = None if decision.step_up else decision.reason
        job.stop_memo = (key, reason)
        return reason

    def _fail_step(self, job: ServingJob) -> None:
        """One transient fault: the attempt's time is spent, nothing ran.

        The wasted attempt consumes exactly the step's execution time on
        the trace (the work launched and was lost) but the session never
        advances, so logits and the job's MAC ledger are untouched.  The
        job then retries under the engine's :class:`RetryPolicy`: backoff
        in simulated time while holding its context, or — when the
        budget or its deadline is exhausted — finalisation with its
        best-so-far anytime prediction.
        """
        engine = self.engine
        finish = self._finish_time(job.session.next_step_macs())
        if not math.isfinite(finish):
            self._finalize(job, "starved", "trace provides no further throughput")
            return
        self.now = finish
        job.retries += 1
        self._m_retries.add()
        policy = engine.retry_policy
        status = "completed" if job.started else "dropped"
        if job.retries > policy.budget:
            self._finalize(
                job, status, "retry budget exhausted after transient failures"
            )
            return
        retry_at = self.now + policy.backoff(job.retries - 1)
        deadline = job.request.deadline
        if (
            engine.enforce_deadline
            and deadline is not None
            and retry_at >= deadline - _TIME_EPS
        ):
            self._finalize(job, status, "deadline reached during retry backoff")
            return
        request_id = job.request.request_id
        self.scheduler.discard(job)
        self._delayed_jobs[request_id] = job
        heapq.heappush(self._delayed_heap, (retry_at, request_id))
        if self._obs is not None:
            self._obs.emit(
                "retry",
                self.now,
                node=self.node,
                request_id=request_id,
                attempt=job.retries,
                retry_at=retry_at,
            )

    def crash(self, now: float) -> CrashedNodeWork:
        """Kill this run: drop every resident context, hand back the work.

        Finalised records, counters and the memory ledger stay; every
        live job is checkpointed (started) or returned whole (unstarted)
        for the cluster coordinator to re-place, and the ready queue and
        every timer heap are emptied.  A crashed run accepts no work and
        reports no events until :meth:`recover` brings it back.
        """
        self._check_up()
        self.now = max(self.now, now)
        self._crashed = True
        work = self._hand_back(self._live_jobs())
        self.scheduler.clear()
        self._expiry.clear()
        self._delayed_heap.clear()
        self._watchdog.clear()
        # Pushed-but-unadmitted work re-routes whole; failover hand-offs
        # that never landed keep their original checkpoints.
        while self._pending:
            _, request_id, request = heapq.heappop(self._pending)
            resumed = self._resumed.pop(request_id, None)
            if resumed is None:
                work.unstarted.append(request)
            else:
                job, steps = resumed
                work.interrupted.append(_checkpoint(job, steps))
                job.session.close()
            self._ids.discard(request_id)
        _LOG.warning(
            "node '%s' crashed at t=%.6f (%d unstarted migrate, %d in-flight fail over)",
            self.node,
            self.now,
            len(work.unstarted),
            len(work.interrupted),
        )
        if self._obs is not None:
            self._obs.emit(
                "crash",
                self.now,
                node=self.node,
                unstarted=len(work.unstarted),
                interrupted=len(work.interrupted),
            )
        self._plan_timer(attach=False)
        return work

    def recover(self, now: float) -> None:
        """Bring a crashed run back up, empty, at ``now``.

        The run is left as a fresh run opened at ``now`` would be — clock
        at ``now``, wave count at zero, plan timer re-attached — while its
        finalised records, counters and memory peak carry on, so the
        node's one report spans every crash.  The crash released every
        context, so the residency ledger is already empty.
        """
        if self._report is not None:
            raise RuntimeError("run already finished")
        if not self._crashed:
            raise RuntimeError(f"node '{self.node}' is not crashed")
        self._crashed = False
        self.now = now
        self._wave = 0
        self._plan_timer(attach=True)

    def steal(
        self, count: int, now: float, include_started: bool = False
    ) -> CrashedNodeWork:
        """Hand back up to ``count`` live jobs without killing the run.

        The victim-side half of coordinator work-stealing: queued-but-
        unstarted jobs leave wholesale, newest arrival first (the
        classic steal-from-the-tail order — they have accrued the least
        queue position), and with ``include_started`` the least-
        progressed in-flight jobs are checkpointed through the same
        interrupted-job shape the crash path uses, so the destination
        replays them bit-exactly.  Unlike :meth:`crash` the run stays
        healthy: its clock, pending arrivals, finalised records and
        remaining queue are untouched, and stale delayed/watchdog heap
        entries are skipped lazily like any finalised job's.
        """
        self._check_up()
        if count <= 0:
            return CrashedNodeWork(unstarted=[], interrupted=[])
        live = self._live_jobs()
        waiting = [job for job in live if not job.started]
        waiting.sort(
            key=lambda job: (job.request.arrival_time, job.request.request_id),
            reverse=True,
        )
        victims = waiting[:count]
        if include_started and len(victims) < count:
            inflight = [job for job in live if job.started]
            inflight.sort(
                key=lambda job: (
                    len(job.session.level_history),
                    job.request.arrival_time,
                    job.request.request_id,
                )
            )
            victims.extend(inflight[: count - len(victims)])
        work = self._hand_back(victims)
        if victims:
            _LOG.debug(
                "node '%s' yielded %d unstarted + %d in-flight jobs to steal at t=%.6f",
                self.node,
                len(work.unstarted),
                len(work.interrupted),
                now,
            )
        return work

    def _hand_back(self, jobs: Sequence[ServingJob]) -> CrashedNodeWork:
        """Release live jobs from this run to the coordinator.

        Each job's record leaves the run; a started job comes back as its
        subnet-level checkpoint, an unstarted one as its bare request.
        Each job goes through :meth:`_release` and its id is forgotten,
        so the coordinator may re-place it on any run — this one included.
        """
        work = CrashedNodeWork(unstarted=[], interrupted=[])
        for job in jobs:
            request_id = job.request.request_id
            record = self._records.pop(request_id)
            if job.started:
                work.interrupted.append(_checkpoint(job, record.steps))
            else:
                work.unstarted.append(job.request)
            self._release(job)
            self._ids.discard(request_id)
        return work

    def _batch_candidates(self, winner: ServingJob) -> List[ServingJob]:
        """Ready jobs that could share the winner's step, winner first.

        Only jobs at the winner's exact ``(current -> next)`` subnet edge
        qualify — mixed start levels never reach the batch policy — and
        started companions whose continuation checks say "stop" are left
        for their own pick instead of being advanced past their policy.
        Companions come from the scheduler's per-edge ready index in
        preference order: ``O(B log n)`` for a ``B``-member batch instead
        of a scan-and-sort over the whole ready set.  Stop-reason checks
        (policy.decide + a trace query) stay lazy — run in preference
        order only until the policy's batch is full — with the fetch size
        doubled only when filtered companions leave the batch under-full.
        """
        scheduler = self.scheduler
        edge = winner.edge
        limit = self.engine.batch_policy.max_batch_size
        members = [winner]
        if limit is not None and limit <= 1:
            return members
        total = scheduler.count_at_edge(edge)
        if total <= 1:
            return members
        fetch = total if limit is None else min(total, limit)
        offset = 0
        while limit is None or len(members) < limit:
            candidates = scheduler.jobs_at_edge(edge, fetch)
            for job in candidates[offset:]:
                if limit is not None and len(members) >= limit:
                    break
                if job is winner:
                    continue
                if job.started and self._stop_reason(job) is not None:
                    continue
                members.append(job)
            if fetch >= total:
                break
            offset = len(candidates)
            fetch = min(total, fetch * 2)
        return members

    def _catch_up_macs(self, job: ServingJob, target: int) -> float:
        """Upper bound on the MACs ``job`` adds to a dispatch joined at ``target``.

        The full catch-up path: the pending eviction replay, every level
        from the job's next up to the wave's edge, plus the job's share
        of the shared ``(edge -> target)`` step itself.  An upper bound —
        the job's policy may stop it mid catch-up — which is the safe
        direction for the deadline guard.
        """
        session = job.session
        step_macs = self.engine.backend._step_macs
        macs = session.pending_recompute_macs()
        for index in range(session.current_subnet + 1, target + 1):
            macs += step_macs[index]
        return macs

    def _refill_laggards(
        self,
        winner: ServingJob,
        members: List[ServingJob],
        slots: int,
    ) -> List[ServingJob]:
        """Ready jobs below the wave's edge that can catch up and join it.

        Continuous batching's mid-wave join: candidates come from the
        per-edge index (every edge strictly below the winner's current
        level, the entry edge included), merged in scheduler preference
        order.  A candidate is skipped when its own policy already says
        stop, or when its catch-up work — which rides the same dispatch
        and therefore delays everyone — would push the projected finish
        past any accepted member's (or its own) deadline.  Most calls
        find no ready edge below the wave within the catch-up cap and
        return before reading the members or fetching a candidate.
        """
        engine = self.engine
        scheduler = self.scheduler
        from_level = winner.session.current_subnet
        catchup_cap = getattr(engine.batch_policy, "max_catchup_levels", None)
        # Past the cap the replay distance is too long: let the job keep
        # its queue position and open a fresh, wide wave later instead of
        # trickling in through a skinny replay.
        lowest = -math.inf if catchup_cap is None else from_level - catchup_cap
        edges = [
            edge
            for edge in scheduler.edges()
            if edge[1] is not None and lowest <= edge[0] < from_level
        ]
        if not edges:
            return []
        target = winner.session.next_subnet()
        taken = {member.request.request_id for member in members}
        pool: List[ServingJob] = []
        for edge in edges:
            pool.extend(scheduler.jobs_at_edge(edge, slots + len(taken)))
        if not pool:
            return pool
        pool.sort(key=scheduler.key)
        bound = math.inf
        if engine.enforce_deadline:
            for member in members:
                deadline = member.request.deadline
                if deadline is not None:
                    bound = min(bound, deadline)
        # The dispatch's MAC total is only needed to project a finish
        # time against a *finite* deadline bound; deadline-free serving
        # never prices catch-up work, so build it lazily (including the
        # laggards admitted before the first deadline appeared).
        base_macs: Optional[float] = None
        laggards: List[ServingJob] = []
        for job in pool:
            if len(laggards) >= slots:
                break
            if job.request.request_id in taken:
                continue
            if job.started and self._stop_reason(job) is not None:
                continue
            cand_bound = bound
            if engine.enforce_deadline and job.request.deadline is not None:
                cand_bound = min(cand_bound, job.request.deadline)
            if cand_bound < math.inf:
                if base_macs is None:
                    base_macs = sum(
                        member.session.next_step_macs() for member in members
                    )
                    for admitted in laggards:
                        base_macs += self._catch_up_macs(admitted, target)
                extra = self._catch_up_macs(job, target)
                projected = self._finish_time(base_macs + extra)
                if not projected <= cand_bound - _TIME_EPS:
                    continue  # joining would blow a deadline; try the next
                base_macs += extra
            bound = cand_bound
            laggards.append(job)
        return laggards

    def _advance_once(self) -> None:
        """Process exactly one event: an idle jump, a coalescing wait or a dispatch.

        The phases run in order, each a method of its own; any phase
        that consumes the event (a drop, a stale verdict, a fault, a
        coalescing wait) ends it.
        """
        self._admit(self.now)
        if self._delayed_heap:
            self._release_delayed()
        if self._watchdog:
            self._run_watchdog()
        if not len(self.scheduler):
            when = self.next_event_time()
            if when is not None:
                self.now = when
            return
        if self._expiry:
            self._expire()
            if not len(self.scheduler):
                return
        job = self._pick()
        if job is None:
            return
        if self.fault_injector is not None and self.fault_injector.consume_transient(
            self.node, self.now
        ):
            self._fail_step(job)
            return
        members = self._form_cohort(job)
        if members is None:
            return
        # Execute first, then clock the dispatch: laggards catch up level
        # by level and their policies may stop them short of the join, so
        # the MACs the dispatch actually charges are only known after the
        # passes ran.  Execution consumes no *simulated* time (the trace
        # query is pure), so the reorder changes no timing.
        self._wave += 1
        from_level = job.session.current_subnet
        executed, joined, early_stops = self._catch_up(job, members)
        group = members + joined
        executed.extend(zip(group, self._pass(group)))
        finish = self._record_steps(executed, group, from_level)
        self._settle(finish, group, early_stops)

    def _expire(self) -> None:
        """Drop jobs whose deadline passed before their first step (``drop_expired`` runs)."""
        while self._expiry and self.now >= self._expiry[0][0] - _TIME_EPS:
            _, request_id = heapq.heappop(self._expiry)
            job = self.scheduler.get(request_id)
            if job is None or job.started:
                continue  # stale entry: finalised or already running
            self._finalize(job, "dropped", "deadline passed before first execution")

    def _pick(self) -> Optional[ServingJob]:
        """The scheduler's winner, or None when its stale verdict finalised it."""
        job = self.scheduler.pick(self.now)
        if job.started:
            # A job may have waited, preempted, since its last step;
            # re-check its deadline and policy against the *current*
            # time and queue before spending accelerator time on it.
            reason = self._stop_reason(job)
            if reason is not None:
                self._finalize(job, "completed", reason)
                return None
        return job

    def _form_cohort(self, job: ServingJob) -> Optional[List[ServingJob]]:
        """The jobs sharing ``job``'s step, or None while the batch policy waits."""
        policy = self.engine.batch_policy
        next_arrival = self._pending[0][0] if self._pending else None
        decision = policy.form(self._batch_candidates(job), self.now, next_arrival)
        if decision.wait_until is not None:
            # Bounded coalescing wait: let the next arrival land and
            # re-enter the dispatch with a fuller candidate set.  The
            # arrival is strictly in the future, so time always moves.
            if self._obs is not None:
                self._obs.emit(
                    "coalesce_wait",
                    self.now,
                    node=self.node,
                    wait_until=decision.wait_until,
                    pending=len(self.scheduler),
                    reason=decision.reason,
                )
            self.now = max(self.now, decision.wait_until)
            return None
        return list(decision.members) or [job]

    def _catch_up(
        self, winner: ServingJob, members: List[ServingJob]
    ) -> Tuple[_Executed, List[ServingJob], _Stops]:
        """Refill an under-full wave and walk its laggards up to the wave's edge.

        Returns the executed pairs, the laggards that reached the edge
        (they join the group pass) and those their policy stopped on the
        way, with the reason.  Each round, laggards at one subnet edge
        advance in one shared pass, and each laggard's policy rules
        between every caught-up level, as at a solo step boundary.
        """
        executed: _Executed = []
        joined: List[ServingJob] = []
        stops: _Stops = []
        policy = self.engine.batch_policy
        limit = policy.max_batch_size
        if not (policy.refills and winner.started and limit is not None and len(members) < limit):
            return executed, joined, stops
        # One refill round per dispatch: re-refilling after catch-up
        # stop-outs free slots again would consume the entry backlog
        # through many skinny level-0 cohorts instead of few wide entry
        # waves — measurably more passes, not fewer.
        laggards = self._refill_laggards(winner, members, limit - len(members))
        self._m_refills.add(len(laggards))
        edge_level = winner.session.current_subnet
        active = [job for job in laggards if job.session.current_subnet < edge_level]
        while active:
            cohorts: Dict[Tuple, List[ServingJob]] = {}
            for job in active:
                cohorts.setdefault(job.edge, []).append(job)
            active = []
            for cohort in cohorts.values():
                for job, outcome in zip(cohort, self._pass(cohort, catch_up=True)):
                    executed.append((job, outcome))
                    reason = self._stop_reason(job)
                    if reason is not None:
                        stops.append((job, reason))
                    elif job.session.current_subnet == edge_level:
                        joined.append(job)
                    else:
                        active.append(job)
        return executed, joined, stops

    def _pass(self, jobs: List[ServingJob], catch_up: bool = False) -> List[StepOutcome]:
        """One forward pass of ``jobs`` (all at one subnet edge), logged as one batch.

        Each member's confidence comes from one pass over the stacked
        float64 logits, split by row count.  A row's top softmax
        probability is ``1 / sum(exp(x - max(x)))``: its largest shifted
        entry is exactly 0, whose exp is exactly 1, and exp and division
        are monotone, so the value is bit-identical to the member's own
        :func:`prediction_confidence`.  It lands on the outcome and the
        job, where every later continuation verdict reads it.
        """
        outcomes = self.engine.backend.advance_group([job.session for job in jobs])
        logits = [outcome.logits for outcome in outcomes]
        shifted = (logits[0] if len(logits) == 1 else np.concatenate(logits)).astype(np.float64)
        shifted -= np.maximum.reduce(shifted, axis=-1, keepdims=True)
        sums = np.add.reduce(np.exp(shifted, out=shifted), axis=-1)
        values = sums.tolist()
        row = 0
        for job, outcome, rows in zip(jobs, outcomes, logits):
            count = rows.shape[0]
            value = 1.0 / values[row]
            if count > 1:  # a one-row mean is exactly its row's value
                value = float((1.0 / sums[row : row + count]).mean())
            outcome.confidence = job.confidence = value
            row += count
            job.steps_executed += 1
        self._batch_sizes.append(len(jobs))
        if self._obs is not None:
            flags = {"catch_up": True} if catch_up else {}
            self._obs.emit(
                "batch_pass", self.now, node=self.node, wave=self._wave, size=len(jobs), **flags
            )
        return outcomes

    def _record_steps(self, executed: _Executed, group: List[ServingJob], from_level: int) -> float:
        """Clock the dispatch and append each executed step to its record.

        The finish time returned charges all the dispatch's MACs under
        one launch overhead — the simulated-time benefit of coalescing.
        """
        self._m_steps.add(len(executed))
        self._sync_resident([job for job, _ in executed])
        if self._obs is not None:
            self._obs.emit(
                "dispatch",
                self.now,
                node=self.node,
                wave=self._wave,
                edge=from_level,
                members=[member.request.request_id for member in group],
                queue_depth=len(self.scheduler),
                resident_bytes=self._resident_total,
            )
        finish = self._finish_time(sum(outcome.macs_charged for _, outcome in executed))
        for member, outcome in executed:
            member.last_executed_at = finish
            request_id = member.request.request_id
            record = self._records[request_id]
            record.steps.append(
                ServedStep(
                    subnet=outcome.subnet,
                    start_time=self.now,
                    finish_time=finish,
                    macs_charged=outcome.macs_charged,
                    macs_reused=outcome.macs_reused,
                    confidence=outcome.confidence,
                    logits=outcome.logits,
                    macs_recomputed=outcome.macs_recomputed,
                )
            )
            record.final_logits = outcome.logits
            if self._obs is not None:
                self._obs.emit(
                    "step",
                    self.now,
                    node=self.node,
                    request_id=request_id,
                    wave=self._wave,
                    subnet=outcome.subnet,
                    finish=float(finish) if math.isfinite(finish) else None,
                    macs_charged=float(outcome.macs_charged),
                    macs_reused=float(outcome.macs_reused),
                    macs_recomputed=float(outcome.macs_recomputed),
                )
                if outcome.macs_recomputed:
                    self._obs.emit(
                        "replay",
                        self.now,
                        node=self.node,
                        request_id=request_id,
                        macs_recomputed=float(outcome.macs_recomputed),
                    )
        return finish

    def _settle(self, finish: float, group: List[ServingJob], early_stops: _Stops) -> None:
        """Advance the clock to ``finish`` and give every member its verdict.

        A starved dispatch finalises the whole group; otherwise a member
        that continues has its ready-index bucket refreshed (its edge
        moved).  Memory only grows during a dispatch, so the budget is
        enforced last, with the group protected.
        """
        starved = not math.isfinite(finish)
        if not starved:
            self.now = finish
            self._admit(self.now)
        for job, reason in early_stops:
            self._finalize(job, "completed", reason)
        for member in group:
            if starved:
                self._finalize(member, "starved", "trace provides no further throughput")
                continue
            reason = self._stop_reason(member)
            if reason is not None:
                self._finalize(member, "completed", reason)
            else:
                self.scheduler.reindex(member)
        self._enforce_memory(protected=group)

    def _sync_resident(self, executed: Sequence[ServingJob]) -> None:
        """Refresh the residency ledger for just-executed jobs.

        Only the dispatch's executed members can have grown their
        contexts, so updating their ledger entries keeps
        ``_resident_total`` equal to the full queue sum at a cost
        proportional to the batch, not the queue.
        """
        sizes = self._resident_sizes
        footprints = self._footprint_by_level
        for job in executed:
            # A just-executed context's footprint is a pure function of
            # its level and input shape: a step rebuilds whatever an
            # eviction dropped (the replay restores the activation caches,
            # a cold step every aux buffer), and the plan materialises the
            # same buffers for the same edge walk.  Scan each
            # (level, shape) once and serve the rest of the run from the
            # memo.
            key = (job.session.current_subnet, job.request.inputs.shape)
            new = footprints.get(key)
            if new is None:
                new = job.session.resident_nbytes()
                footprints[key] = new
            request_id = job.request.request_id
            self._resident_total += new - sizes.get(request_id, 0)
            sizes[request_id] = new

    def _enforce_memory(self, protected: Sequence[ServingJob] = ()) -> None:
        """Enforce the resident budget, then record the peak.

        The budget is consulted only when the ledger overshoots it.
        Each eviction's freed bytes leave the victim's ledger entry, and
        a tier-2 eviction changes the victim's ``pending_recompute_macs``
        — a signal cost-aware schedulers key on — so every job an
        eviction event names is reindexed while still queued.
        """
        memory = self.memory
        if memory.bounded and self._resident_total > memory.budget_bytes:
            before = len(memory.events)
            # Backoff-delayed jobs hold contexts too: they are evictable
            # (their resume replays like any other) and must count against
            # the budget even though the scheduler cannot see them.
            memory.enforce(
                self._live_jobs(), self._resident_sizes, protected=protected, now=self.now
            )
            new_events = memory.events[before:]
            self._m_evictions.add(len(new_events))
            for event in new_events:
                self._resident_sizes[event.request_id] -= event.bytes_freed
                self._resident_total -= event.bytes_freed
                evicted = self.scheduler.get(event.request_id)
                if evicted is not None:
                    self.scheduler.reindex(evicted)
                if self._obs is not None:
                    self._obs.emit(
                        "evict",
                        event.time,
                        node=self.node,
                        request_id=event.request_id,
                        tier=event.tier,
                        bytes_freed=int(event.bytes_freed),
                        protected=event.protected,
                    )
        if self._resident_total > memory.peak_resident_bytes:
            memory.peak_resident_bytes = self._resident_total
