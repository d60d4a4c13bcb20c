"""Outside-in span timers over the program's layer entry points.

The traced pass wraps every layer's public entry points with span timers
installed from the benchmark's own files; the program under test is not
edited.  A span records its calls, its inclusive time and its self time
-- the span's duration minus the durations of the spans it encloses,
kept on a span stack.  A span's layer is its name up to the first dot.

Registry-driven layers (backends, schedulers, batch policies, routers,
eviction policies) are wrapped on every concrete class their registry
holds, including the power-of-two-choices router that
:mod:`repro.serving.rebalance` registers, so a class added to a registry
is timed without a benchmark change.  ``steal_plan`` is wrapped at
module level: the cluster coordinator imports it at call time and so
sees the wrapper.  :meth:`SpanRecorder.uninstall` checks that every
patched attribute is back to its original.
"""

from __future__ import annotations

import functools
import weakref
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

_MISSING = object()

SESSION_METHODS = ("advance", "restore", "drop_aux", "drop_state", "close")
ENGINE_RUN_METHODS = ("push", "push_resumed", "run_until", "finish", "crash", "steal")
FAULT_METHODS = ("alive", "reachable", "consume_transient", "next_reachable", "transitions")
#: The scheduler calls the engine makes per event.  One-line accessors
#: (``__len__``, ``get``, ``count_at_edge``) stay unwrapped: a span
#: would cost more than the call it times.
SCHEDULER_METHODS = ("add", "discard", "reindex", "pick", "jobs_at_edge", "jobs", "edges")

#: ``(owner, attribute, span name)``
Target = Tuple[object, str, str]


def _registry_classes(registry) -> List[type]:
    classes: List[type] = []
    for value in registry.values():
        if isinstance(value, type) and value not in classes:
            classes.append(value)
    return classes


def layer_targets() -> List[Target]:
    """Every entry point the traced pass wraps, with its span name."""
    from repro.core.incremental import IncrementalInference
    from repro.core.plan import NetworkPlan
    from repro.runtime.platform import ResourceTrace
    from repro.serving import (
        backend,
        batching,
        cluster,
        engine,
        faults,
        memory,
        observe,
        rebalance,
        scheduler,
    )

    targets: List[Target] = [
        (NetworkPlan, "execute", "plan.execute"),
        (NetworkPlan, "execute_batch", "plan.execute_batch"),
        (IncrementalInference, "run", "incremental.run"),
        (IncrementalInference, "step_to", "incremental.step_to"),
        (ResourceTrace, "time_to_execute", "platform.time_to_execute"),
        (memory.MemoryBudget, "enforce", "memory.enforce"),
        (engine.ServingEngine, "serve", "engine.serve"),
        (engine.ServingEngine, "open_run", "engine.open_run"),
        (cluster.ServingCluster, "serve", "cluster.serve"),
        (cluster.NodeState, "assign", "cluster.assign"),
        (cluster.NodeState, "retract", "cluster.retract"),
        (cluster.AdmissionController, "decide", "cluster.admission"),
        (rebalance, "steal_plan", "rebalance.steal_plan"),
        (observe.TraceRecorder, "emit", "observe.emit"),
    ]
    targets += [(backend.ExecutionSession, name, f"backend.{name}") for name in SESSION_METHODS]
    targets += [(engine.ServingRun, name, f"engine.{name}") for name in ENGINE_RUN_METHODS]
    targets += [(faults.FaultInjector, name, f"faults.{name}") for name in FAULT_METHODS]
    for registry, methods, layer in (
        (backend.BACKENDS, ("open", "advance_group"), "backend"),
        (scheduler.SCHEDULERS, SCHEDULER_METHODS, "scheduler"),
        (batching.BATCH_POLICIES, ("form",), "batching"),
        (cluster.ROUTERS, ("route",), "cluster"),
        (memory.EVICTION_POLICIES, ("victims",), "memory"),
    ):
        for cls in _registry_classes(registry):
            targets += [(cls, name, f"{layer}.{name}") for name in methods]
    return targets


def _argument(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def plan_work_counters() -> Dict[str, Callable]:
    """Dense MACs each plan call executes, for ``plan.gmacs_per_s``.

    Counted in the repository's dense accounting,
    ``SteppingNetwork.subnet_macs(level, apply_prune=False)``: the work a
    step adds, whatever zeros the packed slabs carry.
    """
    tables: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def delta(plan, from_subnet: int, to_subnet: int) -> int:
        table = tables.get(plan)
        if table is None:
            network = plan.network_ref()
            table = tuple(
                network.subnet_macs(level, apply_prune=False) for level in range(plan.num_subnets)
            )
            tables[plan] = table
        return table[to_subnet] - (table[from_subnet] if from_subnet >= 0 else 0)

    def execute(args, kwargs) -> int:
        inputs = _argument(args, kwargs, 1, "inputs")
        step = delta(
            args[0], _argument(args, kwargs, 5, "from_subnet"), _argument(args, kwargs, 6, "to_subnet")
        )
        return step * inputs.shape[0]

    def execute_batch(args, kwargs) -> int:
        members = _argument(args, kwargs, 1, "members")
        if len(members) < 2:
            return 0  # a lone member runs through ``execute``, counted there
        step = delta(
            args[0], _argument(args, kwargs, 2, "from_subnet"), _argument(args, kwargs, 3, "to_subnet")
        )
        return step * sum(member.inputs.shape[0] for member in members)

    return {"plan.execute": execute, "plan.execute_batch": execute_batch}


class SpanRecorder:
    """Installs span wrappers, accumulates their statistics, removes them.

    ``stats`` maps a span name to ``[calls, inclusive s, self s]``.
    ``work_counters`` maps a span name to ``f(args, kwargs)`` returning
    the work (MACs) that call performs, summed into :attr:`work` before
    the span opens.
    """

    def __init__(self, targets: Sequence[Target], work_counters=None) -> None:
        self.targets = list(targets)
        self.work_counters = dict(work_counters or {})
        self.stats: Dict[str, List[float]] = {}
        self.work = 0.0
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, target: Callable, counter=None) -> Callable:
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        recorder = self

        def span(*args, **kwargs):
            if counter is not None:
                recorder.work += counter(args, kwargs)
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                return target(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed

        return functools.update_wrapper(span, target)

    def call(self, name: str, work: Callable):
        """Run ``work()`` inside a span the benchmark itself opens."""
        return self._wrap(name, work)()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("span wrappers are already installed")
        # Resolve every target before patching any, so a subclass that
        # inherits a wrapped registry method is wrapped around the
        # original function, not around its parent's wrapper.
        resolved = []
        for owner, attribute, name in self.targets:
            own = owner.__dict__.get(attribute, _MISSING)
            if isinstance(own, (staticmethod, classmethod, property)):
                raise TypeError(f"cannot span {owner.__name__}.{attribute}: not a plain function")
            resolved.append((owner, attribute, name, own, getattr(owner, attribute)))
        for owner, attribute, name, own, target in resolved:
            setattr(owner, attribute, self._wrap(name, target, self.work_counters.get(name)))
            self._patches.append((owner, attribute, own))

    def uninstall(self) -> None:
        """Remove every wrapper and check that each original is back."""
        patches, self._patches = self._patches, []
        for owner, attribute, own in reversed(patches):
            if own is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)
        for owner, attribute, own in patches:
            if owner.__dict__.get(attribute, _MISSING) is not own:
                raise RuntimeError(f"uninstalling spans did not restore {owner.__name__}.{attribute}")


def layer_metrics(
    recorder: SpanRecorder,
    *,
    wall: float,
    requests: int,
    counters: Dict[str, float],
    ceiling: float,
    probe_samples: Sequence[float],
    wrapper_overhead: float,
    observe_ratio: float,
) -> Dict[str, float]:
    """Every per-layer metric from one traced run.

    ``wall`` is the raw wall of the traced slices and the denominator of
    every ``self_share``; ``*.calls`` are per request served in them;
    ``counters`` holds the simulated counters per unit.
    """
    stats = recorder.stats

    def get(name: str, column: int) -> float:
        return stats[name][column] if name in stats else 0.0

    def layer_self(layer: str) -> float:
        return sum(row[2] for name, row in stats.items() if name.split(".", 1)[0] == layer)

    def layer_calls(layer: str) -> float:
        return sum(row[0] for name, row in stats.items() if name.split(".", 1)[0] == layer)

    def share(seconds: float) -> float:
        return seconds / wall if wall > 0 else 0.0

    def per_request(value: float) -> float:
        return value / requests if requests else 0.0

    def us_per_call(name: str) -> float:
        calls = get(name, 0)
        return 1e6 * get(name, 1) / calls if calls else 0.0

    def counter(key: str) -> float:
        return float(counters.get(key, 0.0))

    plan_self = get("plan.execute", 2) + get("plan.execute_batch", 2)
    gmacs = recorder.work / plan_self / 1e9 if plan_self > 0 else 0.0
    scheduler_calls = layer_calls("scheduler")
    p10, p50, p90 = np.percentile(probe_samples, [10, 50, 90])
    return {
        "plan.execute.calls": per_request(get("plan.execute", 0)),
        "plan.execute.self_share": share(get("plan.execute", 2)),
        "plan.execute.us_per_call": us_per_call("plan.execute"),
        "plan.execute_batch.calls": per_request(get("plan.execute_batch", 0)),
        "plan.execute_batch.self_share": share(get("plan.execute_batch", 2)),
        "plan.execute_batch.us_per_call": us_per_call("plan.execute_batch"),
        "plan.gmacs_per_s": gmacs,
        "plan.ceiling_ratio": gmacs / ceiling if ceiling > 0 else 0.0,
        "incremental.self_share": share(layer_self("incremental")),
        "incremental.reuse_fraction": counter("reuse_fraction"),
        "backend.advance.calls": per_request(get("backend.advance", 0)),
        "backend.advance_group.calls": per_request(get("backend.advance_group", 0)),
        "backend.self_share": share(layer_self("backend")),
        "backend.replay_macs_share": counter("recompute_share"),
        "scheduler.calls": per_request(scheduler_calls),
        "scheduler.self_share": share(layer_self("scheduler")),
        "scheduler.us_per_call": 1e6 * layer_self("scheduler") / scheduler_calls if scheduler_calls else 0.0,
        "batching.form.self_share": share(get("batching.form", 2)),
        "batching.occupancy_mean": counter("occupancy_mean"),
        "batching.dispatches": counter("dispatches"),
        "batching.refilled_jobs": counter("refilled_jobs"),
        "engine.self_share": share(layer_self("engine")),
        "engine.self_us_per_request": 1e6 * per_request(layer_self("engine")),
        "platform.time_to_execute.calls": per_request(get("platform.time_to_execute", 0)),
        "platform.self_share": share(layer_self("platform")),
        "memory.enforce.calls": per_request(get("memory.enforce", 0)),
        "memory.enforce.us_per_call": us_per_call("memory.enforce"),
        "memory.evictions": counter("evictions"),
        "memory.recompute_overhead": counter("recompute_share"),
        "cluster.self_us_per_request": 1e6 * per_request(layer_self("cluster")),
        "cluster.route.us_per_call": us_per_call("cluster.route"),
        "cluster.admission.us_per_call": us_per_call("cluster.admission"),
        "cluster.assign.us_per_call": us_per_call("cluster.assign"),
        "cluster.self_share": share(layer_self("cluster")),
        "cluster.migrations": counter("migrations"),
        "cluster.failovers": counter("failovers"),
        "cluster.retries": counter("retries"),
        "cluster.degraded": counter("degraded"),
        "rebalance.steal_plan.calls": per_request(get("rebalance.steal_plan", 0)),
        "rebalance.steals": counter("steals"),
        "rebalance.self_share": share(layer_self("rebalance")),
        "faults.self_share": share(layer_self("faults")),
        "faults.crashes": counter("crashes"),
        "observe.emit.calls": per_request(get("observe.emit", 0)),
        "observe.emit.us_per_call": us_per_call("observe.emit"),
        "observe.events_per_request": counter("events_per_request"),
        "observe.overhead_ratio": observe_ratio,
        "host.probe_ms_p50": 1e3 * float(p50),
        "host.probe_spread": float(p90 / p10),
        "host.matmul_gmacs_per_s": ceiling,
        "host.wrapper_overhead": wrapper_overhead,
        "host.span_coverage": share(sum(row[2] for row in stats.values())),
    }
