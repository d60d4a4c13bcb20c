"""Declarative serving configs: :class:`ServingSpec` and :class:`ClusterSpec`.

Before this module, every experiment hand-wired network → trace →
backend → scheduler → engine in imperative code.  The specs here capture
that wiring as frozen, JSON-round-trippable values, the way serving
systems describe deployments in config files rather than builder calls:

* :class:`StreamSpec` — an arrival process by registry name
  (:data:`~repro.serving.request.STREAMS`) plus its parameters;
* :class:`ServingSpec` — one serving *node*: execution backend kind
  (:data:`~repro.serving.backend.BACKENDS`), scheduler name
  (:data:`~repro.serving.scheduler.SCHEDULERS`), platform and trace
  names (:data:`~repro.runtime.platform.PLATFORMS` and the platform's
  trace library), step-up policy, and the engine knobs;
* :class:`ClusterSpec` — a fleet: N node specs, a router policy name
  (:data:`~repro.serving.cluster.ROUTERS`), the request streams and
  optionally a declarative model so a whole simulation can be launched
  from one JSON file.

Every spec validates its registry names eagerly (a typo fails at config
load, not mid-simulation).  Serialisation lives in one place, the codec
of :mod:`repro.serving.codec` that every spec subclasses: ``to_dict``
output is plain-JSON serialisable, ``from_dict`` / ``from_json`` (text
or path) rebuild the spec, and nested specs accept an instance or its
dict form — so benchmarks and CI can check cluster definitions into the
repository and replay them bit-for-bit.  A bad config — an unknown key
at any depth, an unknown registry name, a missing node, a knob of the
wrong type or out of its declared bound — raises
:class:`~repro.utils.errors.ConfigError` at load.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..models.registry import get_model_spec
from ..runtime.platform import PlatformSpec, ResourceTrace, get_platform
from ..runtime.policies import (
    ConfidencePolicy,
    DeadlineAwarePolicy,
    FixedSubnetPolicy,
    GreedyPolicy,
    LoadAdaptivePolicy,
    SteppingPolicy,
)
from ..runtime.traces import trace_library
from ..utils.errors import ConfigError
from ..utils.rng import new_generator
from .analyze import SLOSpec
from .backend import ExecutionBackend, get_backend
from .batching import get_batch_policy
from .cluster import ADMISSION_POLICIES, ROUTERS
from .codec import Spec, coerce, flag, integer, nested, number, text
from .faults import FaultSpec
from .memory import get_eviction_policy
from .observe import ObservabilitySpec
from .rebalance import RebalanceSpec
from .request import Request, get_stream
from .scheduler import SCHEDULERS, Scheduler, get_scheduler


def _full_quality_policy(**params) -> ConfidencePolicy:
    """Never confident, never deadline-limited: refine to the largest subnet."""
    params.setdefault("threshold", 1.0)
    params.setdefault("respect_deadline", False)
    return ConfidencePolicy(**params)


#: Name-based registry of step-up policies used by :class:`ServingSpec`.
POLICIES: Dict[str, Callable[..., SteppingPolicy]] = {
    "greedy": GreedyPolicy,
    "confidence": ConfidencePolicy,
    "deadline-aware": DeadlineAwarePolicy,
    "load-adaptive": LoadAdaptivePolicy,
    "fixed": FixedSubnetPolicy,
    "full-quality": _full_quality_policy,
}


def get_policy(name: str, **params) -> SteppingPolicy:
    """Instantiate a step-up policy by registry name."""
    try:
        factory = POLICIES[name.lower()]
    except KeyError as exc:
        raise ConfigError(
            f"unknown policy '{name}'; available: {sorted(POLICIES)}"
        ) from exc
    return factory(**params)


@dataclass(frozen=True)
class StreamSpec(Spec):
    """One request stream by generator name plus its parameters.

    ``params`` is passed through to the registered generator (see
    :data:`~repro.serving.request.STREAMS`); for ``"replay"`` it carries
    the explicit ``arrival_times``.  When no sample pool is supplied at
    build time, a deterministic synthetic pool of ``pool_size`` inputs is
    drawn from ``pool_seed`` — enough to run cost/latency simulations
    straight from a config file, no dataset required.
    """

    kind: str = text("poisson")
    params: Mapping[str, Any] = field(default_factory=dict)
    pool_size: int = integer(16, ge=1)
    pool_seed: int = integer(0, ge=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        get_stream(self.kind)  # fail fast on unknown generator names

    def build(
        self,
        images: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
        input_shape: Optional[Tuple[int, ...]] = None,
    ) -> List[Request]:
        """Generate the requests (synthesising an input pool if needed)."""
        if images is None:
            if input_shape is None:
                raise ValueError("either images or input_shape is required")
            rng = new_generator(self.pool_seed)
            images = rng.standard_normal((self.pool_size,) + tuple(input_shape))
        return get_stream(self.kind)(images, labels, **dict(self.params))


@dataclass(frozen=True)
class ServingSpec(Spec):
    """Declarative description of one serving node.

    Everything the hand-wired path assembled imperatively — backend,
    scheduler, platform, trace, policy, engine knobs — as one frozen
    value.  ``build_engine(network)`` turns it into a ready
    :class:`~repro.serving.engine.ServingEngine`.

    Attributes
    ----------
    backend / scheduler / platform / policy:
        Registry names (:data:`~repro.serving.backend.BACKENDS`,
        :data:`~repro.serving.scheduler.SCHEDULERS`,
        :data:`~repro.runtime.platform.PLATFORMS`, :data:`POLICIES`).
        Cost-signal-aware schedulers (``"batch-aware"``,
        ``"least-recompute"``, ``"utility-per-mac"``) are configured the
        same way; ``scheduler_params`` forwards constructor keywords
        (e.g. ``{"min_slack": 0.02}`` for ``"batch-aware"``), validated
        at config load.
    trace:
        Name in the platform's :func:`~repro.runtime.traces.trace_library`
        (``steady-high``, ``steady-low``, ``power-switch``, ``duty-cycle``,
        ``bursty``) or ``"constant"`` with an explicit ``trace_rate``
        (MAC/s) for calibrated experiments.
    trace_scale / trace_seed:
        Uniform rate multiplier (platform shared with co-running tasks)
        and the seed of stochastic library traces.
    overhead_per_step:
        Fixed seconds charged per executed subnet step; ``None`` uses the
        platform's ``invocation_overhead``.
    drop_expired / enforce_deadline:
        The :class:`~repro.serving.engine.ServingEngine` knobs, verbatim.
    dtype:
        Inference dtype name.
    batch_policy / max_batch_size / batch_window:
        Request coalescing (:data:`~repro.serving.batching.BATCH_POLICIES`):
        ``"none"`` (default), ``"same-level"`` greedy, ``"windowed"``
        with a ``batch_window``-second max wait, or ``"continuous"``
        (greedy plus mid-wave refills at every step boundary);
        ``max_batch_size`` caps members per shared pass.  Any backend
        runs any policy: grouping is a scheduling choice, and every
        backend advances a group in one dispatch.
    num_subnets:
        Optional cap on the subnet levels this node serves (shallow
        nodes in heterogeneous fleets); ``None`` serves every level of
        the model.
    memory_budget_bytes / eviction_policy:
        Bounded resident-context memory
        (:mod:`repro.serving.memory`): total bytes the node's suspended
        inference contexts may pin (``None`` = unbounded) and the
        eviction order (:data:`~repro.serving.memory.EVICTION_POLICIES`:
        ``"lru"``, ``"largest-first"``, ``"lowest-progress"``).  Evicted
        jobs recompute on resume; logits are unchanged, only latency and
        MACs.
    """

    name: str = text("")
    backend: str = text("stepping")
    scheduler: str = text("fifo")
    scheduler_params: Mapping[str, Any] = field(default_factory=dict)
    platform: str = text("mobile-soc")
    trace: str = text("steady-high")
    trace_rate: Optional[float] = number(None, gt=0)
    trace_scale: float = number(1.0, gt=0)
    trace_seed: int = integer(0, ge=0)
    policy: str = text("greedy")
    policy_params: Mapping[str, Any] = field(default_factory=dict)
    overhead_per_step: Optional[float] = number(None, ge=0)
    drop_expired: bool = flag(False)
    enforce_deadline: bool = flag(True)
    dtype: str = text("float32")
    batch_policy: str = text("none")
    max_batch_size: int = integer(8, ge=1)
    batch_window: float = number(0.0, ge=0)
    num_subnets: Optional[int] = integer(None, ge=1)
    #: At least one byte: ``MemoryBudget`` truncates to whole bytes.
    memory_budget_bytes: Optional[float] = number(None, ge=1)
    eviction_policy: str = text("lru")
    #: Per-request watchdog (simulated seconds): a job still resident
    #: this long after arrival is finalised with its best-so-far anytime
    #: prediction and flagged ``timed_out``.  ``None`` disables it.
    max_service_time: Optional[float] = number(None, gt=0)
    #: Observability switch (:class:`~repro.serving.observe.ObservabilitySpec`
    #: or its dict form).  ``None``/disabled builds no recorder at all —
    #: every instrumentation hook stays a no-op ``None`` check.
    observe: Optional[ObservabilitySpec] = nested(ObservabilitySpec)

    def __post_init__(self) -> None:
        super().__post_init__()
        # Fail at config load, not mid-simulation.
        get_backend(self.backend)
        # Instantiating validates both the name and the params (a typo'd
        # or mistyped scheduler_params key fails here, at config load).
        get_scheduler(self.scheduler, **dict(self.scheduler_params))
        get_platform(self.platform)
        if self.policy.lower() not in POLICIES:
            raise ConfigError(f"unknown policy '{self.policy}'; available: {sorted(POLICIES)}")
        if self.trace == "constant" and self.trace_rate is None:
            raise ConfigError("trace 'constant' requires an explicit trace_rate (MAC/s)")
        try:
            floating = np.issubdtype(np.dtype(self.dtype), np.floating)
        except TypeError:
            floating = False
        if not floating:
            raise ConfigError(f"ServingSpec.dtype must name a floating dtype, got {self.dtype!r}")
        get_batch_policy(self.batch_policy)
        get_eviction_policy(self.eviction_policy)

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @property
    def node_name(self) -> str:
        """Display name of the node (defaults to ``platform/backend``)."""
        return self.name or f"{self.platform}/{self.backend}"

    def build_platform(self) -> PlatformSpec:
        return get_platform(self.platform)

    def build_trace(self) -> ResourceTrace:
        """The node's resource trace, resolved from the platform library."""
        if self.trace == "constant":
            trace = ResourceTrace.constant(float(self.trace_rate), name="constant")
        else:
            library = trace_library(self.build_platform(), seed=self.trace_seed)
            try:
                trace = library[self.trace]
            except KeyError as exc:
                raise ConfigError(
                    f"unknown trace '{self.trace}' for platform '{self.platform}'; "
                    f"available: {sorted(library)} or 'constant'"
                ) from exc
        if self.trace_scale != 1.0:
            trace = trace.scaled(self.trace_scale)
        return trace

    def build_policy(self) -> SteppingPolicy:
        return get_policy(self.policy, **dict(self.policy_params))

    def build_scheduler(self) -> Scheduler:
        """The node's scheduler instance (``scheduler_params`` applied).

        The engine treats it as a prototype — every ``serve()`` run gets
        a :meth:`~repro.serving.scheduler.Scheduler.clone`, which
        preserves constructor parameters.
        """
        return get_scheduler(self.scheduler, **dict(self.scheduler_params))

    def build_backend(self, network) -> ExecutionBackend:
        return get_backend(self.backend)(
            network,
            policy=self.build_policy(),
            dtype=np.dtype(self.dtype),
            num_subnets=self.num_subnets,
        )

    def build_batch_policy(self):
        """The node's request-coalescing policy instance."""
        return get_batch_policy(
            self.batch_policy, max_batch_size=self.max_batch_size, window=self.batch_window
        )

    def build_engine(self, network) -> "ServingEngine":
        """Assemble the node's :class:`~repro.serving.engine.ServingEngine`."""
        from .engine import ServingEngine

        overhead = self.overhead_per_step
        if overhead is None:
            overhead = self.build_platform().invocation_overhead
        return ServingEngine(
            self.build_backend(network),
            self.build_trace(),
            self.build_scheduler(),
            batch_policy=self.build_batch_policy(),
            memory_budget_bytes=self.memory_budget_bytes,
            eviction_policy=self.eviction_policy,
            overhead_per_step=overhead,
            drop_expired=self.drop_expired,
            enforce_deadline=self.enforce_deadline,
            max_service_time=self.max_service_time,
            observe=self.observe,
        )


@dataclass(frozen=True)
class ClusterSpec(Spec):
    """Declarative description of a serving fleet.

    ``nodes`` are the per-node :class:`ServingSpec`\\ s (heterogeneous
    platforms welcome), ``router`` the request-placement policy name in
    :data:`~repro.serving.cluster.ROUTERS`, ``streams`` the arrival
    processes merged (with globally unique request ids) into the fleet's
    workload, and ``model`` an optional declarative network — enough to
    run an untrained cost/latency simulation straight from JSON:

    ``ServingCluster.from_spec(ClusterSpec.from_dict(json.load(f))).serve()``
    """

    #: Node specs or their dict forms; a node dict may carry a ``count``
    #: that replicates it (see :meth:`_expand_nodes`).
    nodes: Tuple[ServingSpec, ...] = ()
    router: str = text("round-robin")
    streams: Tuple[StreamSpec, ...] = nested(StreamSpec, many=True)
    model: Mapping[str, Any] = field(default_factory=dict)
    name: str = text("cluster")
    #: Optional chaos schedule (crashes, transients, slowdowns,
    #: partitions) the fleet serves under; see
    #: :class:`~repro.serving.faults.FaultSpec`.
    faults: Optional[FaultSpec] = nested(FaultSpec)
    #: Fleet admission control: ``"none"`` admits everything verbatim,
    #: ``"degrade"`` caps an arrival's target subnet when the routed
    #: node's predicted finish misses its deadline (or its context would
    #: thrash a bounded memory budget) and rejects only when even the
    #: minimum subnet cannot land.
    admission: str = text("none")
    #: Fleet-wide observability
    #: (:class:`~repro.serving.observe.ObservabilitySpec` or its dict
    #: form): one shared recorder per ``serve()`` call, all nodes
    #: emitting into a single globally sequenced event stream.
    observe: Optional[ObservabilitySpec] = nested(ObservabilitySpec)
    #: Queue-depth publish granularity (simulated seconds).  ``0.0``
    #: publishes live depths on every router consult; a positive
    #: interval makes depth-reading routers see epoch snapshots that
    #: refresh only once per interval — the staleness knob of the
    #: staleness-vs-placement-quality study.
    publish_interval: float = number(0.0, ge=0)
    #: Optional service-level objectives
    #: (:class:`~repro.serving.analyze.SLOSpec` or its dict form)
    #: carried with the deployment so sweeps and benchmarks can score
    #: every run against the same declarative targets.
    slo: Optional[SLOSpec] = nested(SLOSpec)
    #: Proactive fleet rebalancing
    #: (:class:`~repro.serving.rebalance.RebalanceSpec` or its dict
    #: form): load-triggered work-stealing between healthy nodes and
    #: batch sharding of oversized arrivals.  ``None`` (the default)
    #: keeps the fleet purely reactive, exactly as before.
    rebalance: Optional[RebalanceSpec] = nested(RebalanceSpec)

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "nodes", self._expand_nodes(self.nodes))
        if not self.nodes:
            raise ConfigError("a ClusterSpec needs at least one node")
        if self.router.lower() not in ROUTERS:
            raise ConfigError(
                f"unknown router '{self.router}'; available: {sorted(ROUTERS)}"
            )
        if self.admission.lower() not in ADMISSION_POLICIES:
            raise ConfigError(
                f"unknown admission policy '{self.admission}'; "
                f"available: {sorted(ADMISSION_POLICIES)}"
            )
        names = [node.node_name for node in self.nodes]
        if len(set(names)) != len(names):
            # Auto-disambiguate repeated platform/backend combinations —
            # only the colliding default names; explicit and unique names
            # round-trip untouched.
            counts = Counter(names)
            object.__setattr__(
                self,
                "nodes",
                tuple(
                    node
                    if node.name or counts[node.node_name] == 1
                    else replace(node, name=f"{node.node_name}#{index}")
                    for index, node in enumerate(self.nodes)
                ),
            )
            names = [node.node_name for node in self.nodes]
            if len(set(names)) != len(names):
                raise ConfigError(f"node names must be unique, got {names}")

    # ------------------------------------------------------------------
    def build_network(self):
        """Instantiate the declared model (untrained, serving-calibrated).

        Serving benchmarks measure cost and latency, not accuracy, so the
        network is assembled directly: the named architecture is width-
        expanded, given evenly spaced nested prefix assignments (for
        genuinely distinct per-level deltas) and put in eval mode.
        ``model`` keys: ``name`` (models registry), ``num_subnets``,
        ``expansion_ratio``, ``width_fractions``, ``seed`` plus arbitrary
        ``model_params`` forwarded to the spec factory.
        """
        from ..baselines.common import set_prefix_assignments
        from ..core.network import SteppingNetwork

        config = dict(self.model)
        model_name = config.pop("name", "tiny-cnn")
        num_subnets = int(config.pop("num_subnets", 4))
        expansion = float(config.pop("expansion_ratio", 1.5))
        seed = int(config.pop("seed", 0))
        fractions = config.pop(
            "width_fractions", [(level + 1) / num_subnets for level in range(num_subnets)]
        )
        model_params = dict(config.pop("model_params", {}))
        if config:
            raise ConfigError(f"unknown model keys {sorted(config)}")
        spec = get_model_spec(model_name, **model_params)
        network = SteppingNetwork(
            spec.expand(expansion), num_subnets=num_subnets, rng=new_generator(seed)
        )
        set_prefix_assignments(network, list(fractions))
        network.assignment.validate()
        network.eval()
        return network

    def build_requests(
        self,
        images: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
        input_shape: Optional[Tuple[int, ...]] = None,
    ) -> List[Request]:
        """Build and merge all declared streams (globally unique ids)."""
        from .request import merge_streams

        if not self.streams:
            raise ConfigError(f"cluster '{self.name}' declares no request streams")
        built = [
            stream.build(images, labels, input_shape=input_shape) for stream in self.streams
        ]
        return merge_streams(*built)

    @staticmethod
    def _expand_nodes(raw_nodes) -> Tuple[ServingSpec, ...]:
        """Resolve node dicts, replicating any that carry a ``count``."""
        nodes: List[ServingSpec] = []
        for raw in raw_nodes:
            count = 1
            if isinstance(raw, Mapping):
                raw = dict(raw)
                count = raw.pop("count", 1)
            if isinstance(count, bool) or not isinstance(count, int) or count <= 0:
                raise ConfigError(
                    f"node key 'count' must be a positive integer, got {count!r}"
                )
            node = coerce(ServingSpec, raw)
            for index in range(count):
                if count > 1 and node.name:
                    nodes.append(replace(node, name=f"{node.name}#{index}"))
                else:
                    # Unnamed replicas share the default platform/backend
                    # name; ClusterSpec auto-disambiguates those.
                    nodes.append(node)
        return tuple(nodes)
