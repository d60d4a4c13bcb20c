"""Event-driven multi-request serving of stepping networks.

The runtime package simulates *one* anytime inference on a varying
platform; this package scales that to a production-style serving system:
many concurrent requests, an arrival process, a pluggable scheduler and
a shared accelerator, with preemption and resumption of in-flight
stepping networks at subnet granularity — and, one level up, a fleet of
heterogeneous nodes behind a request router, all describable as JSON
configs.

* :mod:`repro.serving.request` — the :class:`Request` abstraction,
  request-stream generators (Poisson, bursty, periodic, trace replay)
  behind the :data:`STREAMS` registry, and :func:`merge_streams` for
  combining streams with globally unique ids;
* :mod:`repro.serving.backend` — the :class:`ExecutionBackend` protocol
  with the SteppingNet (reuse), recompute (slimmable) and batched
  shared-plan backends behind the :data:`BACKENDS` registry;
* :mod:`repro.serving.scheduler` — FIFO / EDF / priority plus the
  cost-signal-aware batch-aware / least-recompute / utility-per-mac
  scheduling of subnet steps behind the :data:`SCHEDULERS` registry,
  every queue carrying a per-edge ready index for sub-linear batch
  dispatch;
* :mod:`repro.serving.batching` — batching policies
  (:data:`BATCH_POLICIES`: none / same-level / windowed / continuous)
  that coalesce ready requests at one subnet edge into a single
  shared-plan forward pass, bit-equal per request to unbatched serving;
* :mod:`repro.serving.memory` — the bounded resident-context budget:
  :class:`MemoryBudget` plus pluggable eviction policies
  (:data:`EVICTION_POLICIES`: lru / largest-first / lowest-progress)
  that drop suspended contexts in two tiers (aux buffers, then
  activation caches with honest recompute-on-resume), bit-identical
  logits to unbounded serving;
* :mod:`repro.serving.engine` — the discrete-event
  :class:`ServingEngine`, its resumable :class:`ServingRun` event loop
  and the :class:`ServingReport` metrics (throughput, p50/p95/p99
  latency, deadline-miss rate, batch occupancy, eviction/recompute
  accounting);
* :mod:`repro.serving.faults` — fault injection for chaos testing:
  seeded, JSON-round-trippable :class:`FaultSpec` schedules of node
  crashes (with optional recovery), transient step failures, slowdown
  windows and router↔node partitions (:data:`FAULT_KINDS`), plus the
  capped-exponential-backoff :class:`RetryPolicy` — the cluster layer
  survives them with checkpointed failover (bit-exact replay on a
  surviving node) and degrade-before-reject admission control;
* :mod:`repro.serving.observe` — zero-overhead-when-disabled
  observability: the :class:`TraceRecorder` of typed, timestamped
  events (:data:`EVENT_TYPES`) behind pluggable sinks
  (:class:`MemorySink` ring buffer, :class:`JSONLSink` file), the
  :class:`ObservabilitySpec` switch carried on both spec levels,
  exporters (:func:`to_chrome_trace` for ``chrome://tracing``,
  :func:`timeline_frames`) and trace replay
  (:func:`replay_queue_depth`, :func:`staleness_curve` — the routing
  signal-staleness study's data source);
* :mod:`repro.serving.analyze` — trace analytics: exact per-request
  latency decompositions (:func:`decompose_latency` — queue wait,
  coalesce wait, compute, replay recompute, retry backoff, partition
  hold, summing to each request's residence time), fleet
  :func:`utilization_timeline`, :func:`critical_path` of the p99
  request, and JSON-round-trippable :class:`SLOSpec` objectives scored
  into :class:`SLOScorecard`\\ s against any report;
* :mod:`repro.serving.sweep` — the grid-sweep harness:
  :class:`SweepSpec` expands a base :class:`ClusterSpec` times a grid
  of dotted-path overrides into one traced run per cell, each reduced
  to a scorecard row (:func:`run_sweep`) — the engine behind the
  staleness-vs-placement-quality study;
* :mod:`repro.serving.rebalance` — proactive fleet rebalancing:
  load-triggered work-stealing between healthy nodes (declared by
  :class:`RebalanceSpec`, moving queued jobs wholesale and in-flight
  jobs as bit-exact checkpoints over the failover path), the seeded
  :class:`PowerOfTwoChoicesRouter`, and batch sharding
  (:func:`shard_requests` / :func:`gather_shard_logits`) that splits
  one oversized input batch into slice-view shard requests and
  gathers their logits back at the coordinator;
* :mod:`repro.serving.spec` — declarative configs:
  :class:`ServingSpec` (one node), :class:`ClusterSpec` (a fleet) and
  :class:`StreamSpec`, each JSON-round-trippable via
  ``to_dict``/``from_dict``;
* :mod:`repro.serving.cluster` — the fleet layer: request routers
  (round-robin, join-shortest-queue, least-loaded over four load
  signals) behind the :data:`ROUTERS` registry, the
  :class:`ServingCluster` facade whose every ``serve()`` runs one
  event-heap coordinator, and its aggregated :class:`ClusterReport`.

The documented front door is :func:`serve`::

    report = serve(result, ClusterSpec.from_json("fleet.json"))
"""

from .analyze import (
    PHASES,
    RequestDecomposition,
    SLOScorecard,
    SLOSpec,
    critical_path,
    decompose_latency,
    decomposition_summary,
    evaluate_slo,
    utilization_timeline,
)
from .backend import (
    BACKENDS,
    DEFAULT_SERVING_DTYPE,
    BatchedRecomputeBackend,
    BatchedSteppingBackend,
    ExecutionBackend,
    ExecutionSession,
    RecomputeBackend,
    ServingJob,
    SteppingBackend,
    StepOutcome,
    get_backend,
)
from .batching import (
    BATCH_POLICIES,
    BatchDecision,
    BatchPolicy,
    ContinuousBatching,
    NoBatching,
    SameLevelBatching,
    WindowedBatching,
    get_batch_policy,
)
from .cluster import (
    ADMISSION_POLICIES,
    ROUTERS,
    AdmissionController,
    ClusterReport,
    JoinShortestQueueRouter,
    LeastLoadedRouter,
    NodeState,
    RoundRobinRouter,
    Router,
    ServingCluster,
    get_router,
    serve,
)
from .engine import JobRecord, ServedStep, ServingEngine, ServingReport, ServingRun
from .faults import (
    FAULT_KINDS,
    RETRY_KINDS,
    CrashFault,
    FaultInjector,
    FaultSpec,
    PartitionFault,
    RetryPolicy,
    SlowdownFault,
    TransientFault,
    fault_from_dict,
)
from .memory import (
    EVICTION_POLICIES,
    EvictionEvent,
    EvictionPolicy,
    LargestFirstEviction,
    LowestProgressEviction,
    LRUEviction,
    MemoryBudget,
    get_eviction_policy,
)
from .observe import (
    EVENT_TYPES,
    JSONLSink,
    MemorySink,
    ObservabilitySpec,
    TraceRecorder,
    TraceSink,
    coerce_events,
    events_by_request,
    events_by_type,
    load_jsonl,
    replay_queue_depth,
    staleness_curve,
    timeline_frames,
    to_chrome_trace,
)
from .request import (
    STREAMS,
    Request,
    bursty_stream,
    get_stream,
    merge_streams,
    periodic_stream,
    poisson_stream,
    trace_replay_stream,
)
from .scheduler import (
    SCHEDULERS,
    BatchAwareScheduler,
    EDFScheduler,
    FIFOScheduler,
    LeastRecomputeScheduler,
    PriorityScheduler,
    Scheduler,
    UtilityPerMacScheduler,
    get_scheduler,
)
from .rebalance import (
    PowerOfTwoChoicesRouter,
    RebalanceSpec,
    gather_shard_logits,
    shard_requests,
    steal_plan,
)
from .spec import POLICIES, ClusterSpec, ServingSpec, StreamSpec, get_policy
from .sweep import SweepResult, SweepSpec, run_sweep

__all__ = [
    "DEFAULT_SERVING_DTYPE",
    "ExecutionBackend",
    "ExecutionSession",
    "StepOutcome",
    "SteppingBackend",
    "RecomputeBackend",
    "BatchedSteppingBackend",
    "BatchedRecomputeBackend",
    "ServingJob",
    "BACKENDS",
    "get_backend",
    "BatchPolicy",
    "BatchDecision",
    "NoBatching",
    "SameLevelBatching",
    "WindowedBatching",
    "ContinuousBatching",
    "BATCH_POLICIES",
    "get_batch_policy",
    "ServingEngine",
    "ServingRun",
    "ServingReport",
    "JobRecord",
    "ServedStep",
    "Request",
    "poisson_stream",
    "bursty_stream",
    "periodic_stream",
    "trace_replay_stream",
    "STREAMS",
    "get_stream",
    "merge_streams",
    "Scheduler",
    "FIFOScheduler",
    "EDFScheduler",
    "PriorityScheduler",
    "BatchAwareScheduler",
    "LeastRecomputeScheduler",
    "UtilityPerMacScheduler",
    "SCHEDULERS",
    "get_scheduler",
    "ServingSpec",
    "ClusterSpec",
    "StreamSpec",
    "POLICIES",
    "get_policy",
    "Router",
    "RoundRobinRouter",
    "JoinShortestQueueRouter",
    "LeastLoadedRouter",
    "ROUTERS",
    "get_router",
    "MemoryBudget",
    "EvictionPolicy",
    "EvictionEvent",
    "LRUEviction",
    "LargestFirstEviction",
    "LowestProgressEviction",
    "EVICTION_POLICIES",
    "get_eviction_policy",
    "NodeState",
    "ServingCluster",
    "ClusterReport",
    "serve",
    "FaultSpec",
    "FaultInjector",
    "RetryPolicy",
    "CrashFault",
    "TransientFault",
    "SlowdownFault",
    "PartitionFault",
    "FAULT_KINDS",
    "RETRY_KINDS",
    "fault_from_dict",
    "AdmissionController",
    "ADMISSION_POLICIES",
    "ObservabilitySpec",
    "TraceRecorder",
    "TraceSink",
    "MemorySink",
    "JSONLSink",
    "EVENT_TYPES",
    "to_chrome_trace",
    "timeline_frames",
    "load_jsonl",
    "coerce_events",
    "events_by_request",
    "events_by_type",
    "replay_queue_depth",
    "staleness_curve",
    "PHASES",
    "RequestDecomposition",
    "decompose_latency",
    "decomposition_summary",
    "utilization_timeline",
    "critical_path",
    "SLOSpec",
    "SLOScorecard",
    "evaluate_slo",
    "SweepSpec",
    "SweepResult",
    "run_sweep",
    "RebalanceSpec",
    "PowerOfTwoChoicesRouter",
    "steal_plan",
    "shard_requests",
    "gather_shard_logits",
]
