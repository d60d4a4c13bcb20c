"""Deterministic fault injection for fleet serving.

Production fleets lose nodes, stall on transient errors, get throttled,
and partition from their load balancer.  The anytime property of
stepping networks makes all of these *gracefully* survivable — a request
interrupted at any subnet boundary still holds a usable prediction — so
this module turns faults into first-class, **simulated-time** schedule
entries that the cluster coordinator replays deterministically:

* :class:`CrashFault` — a node dies at ``time`` (resident contexts are
  lost; queued work migrates) and optionally comes back at
  ``recover_time`` as a fresh, empty node.
* :class:`TransientFault` — the node's next dispatched step fails after
  consuming its execution time; the job retries under the
  :class:`RetryPolicy` backoff.
* :class:`SlowdownFault` — the node's :class:`ResourceTrace` is derated
  by ``factor`` inside ``[time, time + duration)`` (thermal throttling,
  noisy neighbours).
* :class:`PartitionFault` — the router cannot reach the node inside
  ``[time, time + duration)``; the node keeps executing what it already
  holds, but receives no new work.

Everything is frozen, JSON-round-trippable through the spec codec
(:mod:`repro.serving.codec`) and seedable (:meth:`FaultSpec.random`), so
a chaos schedule is as declarative as the :class:`ClusterSpec` it
attacks.  The stateful :class:`FaultInjector` is built per serve; it
answers point queries (``alive`` / ``reachable`` / ``consume_transient``)
against merged downtime intervals and never mutates the spec.

All times are simulated seconds on the same clock as
:class:`~repro.serving.engine.ServingRun`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..runtime.platform import ResourcePhase, ResourceTrace
from ..utils import new_generator
from ..utils.errors import ConfigError
from ..utils.logging import get_logger
from .codec import Kinds, Spec, Tagged, integer, nested, number, text

_LOG = get_logger("repro.serving")

__all__ = [
    "CrashFault",
    "TransientFault",
    "SlowdownFault",
    "PartitionFault",
    "FAULT_KINDS",
    "fault_from_dict",
    "RETRY_KINDS",
    "RetryPolicy",
    "FaultSpec",
    "FaultInjector",
    "derate_trace",
]

_TIME_EPS = 1e-9


# ---------------------------------------------------------------------------
# Fault events
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CrashFault(Tagged):
    """Node ``node`` dies at ``time``; optionally rejoins at ``recover_time``.

    A crash drops every resident execution context on the node.  Started
    jobs fail over to surviving nodes through checkpointed replay;
    queued-but-unstarted jobs simply migrate.  A recovered node comes
    back empty and routable.
    """

    node: str = text()
    time: float = number(ge=0)
    recover_time: Optional[float] = number(None)

    kind = "crash"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.recover_time is not None and self.recover_time <= self.time:
            raise ConfigError(
                f"recover_time ({self.recover_time}) must be after the crash ({self.time})"
            )


@dataclass(frozen=True)
class TransientFault(Tagged):
    """The next step dispatched on ``node`` at or after ``time`` fails.

    The attempt consumes its execution time on the trace (the work ran
    and was lost) but executes nothing, so logits and MAC accounting are
    untouched; the job retries under the :class:`RetryPolicy`.
    """

    node: str = text()
    time: float = number(ge=0)

    kind = "transient"


@dataclass(frozen=True)
class SlowdownFault(Tagged):
    """Derate ``node``'s trace by ``factor`` inside ``[time, time+duration)``."""

    node: str = text()
    time: float = number(ge=0)
    duration: float = number(gt=0)
    factor: float = number(gt=0, le=1)

    kind = "slowdown"

    @property
    def end(self) -> float:
        return self.time + self.duration


@dataclass(frozen=True)
class PartitionFault(Tagged):
    """Router cannot reach ``node`` inside ``[time, time+duration)``."""

    node: str = text()
    time: float = number(ge=0)
    duration: float = number(gt=0)

    kind = "partition"

    @property
    def end(self) -> float:
        return self.time + self.duration


FaultEvent = Union[CrashFault, TransientFault, SlowdownFault, PartitionFault]

#: Registry of fault kinds, mirroring BACKENDS / SCHEDULERS / ROUTERS.
FAULT_KINDS = Kinds("fault", CrashFault, TransientFault, SlowdownFault, PartitionFault)


def fault_from_dict(data: Mapping[str, object]) -> FaultEvent:
    """Instantiate a fault event from its dict form (``kind`` selects the class)."""
    return FAULT_KINDS.from_dict(data)


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------
RETRY_KINDS: Tuple[str, ...] = ("exponential", "fixed", "none")


@dataclass(frozen=True)
class RetryPolicy(Spec):
    """Capped exponential backoff in simulated time with a retry budget.

    ``backoff(attempt)`` is the delay before retry ``attempt`` (0-based
    count of retries already consumed): ``base_delay * multiplier**attempt``
    capped at ``max_delay`` for ``exponential``, a flat ``base_delay``
    for ``fixed``.  ``kind="none"`` disables retries entirely (budget 0).
    """

    kind: str = text("exponential")
    base_delay: float = number(0.001, ge=0)
    multiplier: float = number(2.0, ge=1)
    max_delay: float = number(0.05, ge=0)
    max_retries: int = integer(3, ge=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind not in RETRY_KINDS:
            raise ConfigError(
                f"unknown retry policy {self.kind!r}; available: {sorted(RETRY_KINDS)}"
            )
        if self.max_delay < self.base_delay:
            raise ConfigError(
                f"max_delay ({self.max_delay}) must be >= base_delay ({self.base_delay})"
            )

    @property
    def budget(self) -> int:
        """Retries allowed per request (0 when ``kind='none'``)."""
        return 0 if self.kind == "none" else self.max_retries

    def backoff(self, attempt: int) -> float:
        """Delay in simulated seconds before 0-based retry ``attempt``."""
        if self.kind == "none":
            return 0.0
        if self.kind == "fixed":
            return self.base_delay
        return min(self.base_delay * self.multiplier ** attempt, self.max_delay)


# ---------------------------------------------------------------------------
# Fault spec
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FaultSpec(Spec):
    """A declarative, seeded, JSON-round-trippable chaos schedule."""

    events: Tuple[FaultEvent, ...] = nested(FAULT_KINDS, many=True)
    retry: RetryPolicy = nested(RetryPolicy, default_factory=RetryPolicy)

    # -- seeded generation ----------------------------------------------
    @classmethod
    def random(
        cls,
        node_names: Sequence[str],
        *,
        horizon: float,
        seed: int = 0,
        crash_rate: float = 0.0,
        recover_fraction: float = 0.75,
        transient_rate: float = 0.0,
        slowdown_rate: float = 0.0,
        partition_rate: float = 0.0,
        spare_first: bool = True,
        retry: Optional[RetryPolicy] = None,
    ) -> "FaultSpec":
        """Draw a seeded chaos schedule over ``[0, horizon)``.

        Rates are Poisson intensities in events per simulated second per
        node.  With ``spare_first`` (the default) the first node never
        crashes, guaranteeing at least one survivor at all times — the
        precondition of the bit-equality chaos invariant.
        """
        if horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        if not node_names:
            raise ValueError("need at least one node name")
        rng = new_generator(seed)
        events: List[FaultEvent] = []

        def _times(rate: float) -> List[float]:
            count = int(rng.poisson(rate * horizon)) if rate > 0 else 0
            return sorted(float(t) for t in rng.uniform(0.0, horizon, size=count))

        crashable = list(node_names[1:]) if spare_first else list(node_names)
        for node in crashable:
            for t in _times(crash_rate):
                recover: Optional[float] = None
                if rng.random() < recover_fraction:
                    recover = t + float(rng.uniform(0.05, 0.30)) * horizon
                events.append(CrashFault(node=node, time=t, recover_time=recover))
        for node in node_names:
            for t in _times(transient_rate):
                events.append(TransientFault(node=node, time=t))
            for t in _times(slowdown_rate):
                events.append(
                    SlowdownFault(
                        node=node,
                        time=t,
                        duration=float(rng.uniform(0.05, 0.25)) * horizon,
                        factor=float(rng.uniform(0.2, 0.8)),
                    )
                )
            for t in _times(partition_rate):
                events.append(
                    PartitionFault(
                        node=node,
                        time=t,
                        duration=float(rng.uniform(0.02, 0.15)) * horizon,
                    )
                )
        events.sort(key=lambda event: (event.time, event.kind, event.node))
        return cls(events=tuple(events), retry=retry or RetryPolicy())

    # -- consumption ----------------------------------------------------
    def injector(self, node_names: Sequence[str]) -> "FaultInjector":
        """Build the per-serve stateful injector for ``node_names``."""
        return FaultInjector(self, node_names)

    def derate(self, trace: ResourceTrace, node: str) -> ResourceTrace:
        """Apply this spec's slowdown windows for ``node`` to ``trace``."""
        windows = [
            (event.time, event.end, event.factor)
            for event in self.events
            if isinstance(event, SlowdownFault) and event.node == node
        ]
        return derate_trace(trace, windows)


# ---------------------------------------------------------------------------
# Trace derating
# ---------------------------------------------------------------------------
def derate_trace(
    trace: ResourceTrace,
    windows: Sequence[Tuple[float, float, float]],
    name: Optional[str] = None,
) -> ResourceTrace:
    """Multiply ``trace`` throughput by each ``(start, end, factor)`` window.

    Overlapping windows compound multiplicatively.  Phases are split at
    window boundaries so the result stays piecewise constant.
    """
    if not windows:
        return trace
    points = {phase.start_time for phase in trace.phases}
    for start, end, _ in windows:
        points.add(start)
        if math.isfinite(end):
            points.add(end)
    phases = []
    for start_time in sorted(points):
        rate = trace.throughput_at(start_time)
        for window_start, window_end, factor in windows:
            if window_start <= start_time < window_end:
                rate *= factor
        phases.append(ResourcePhase(start_time, rate, label="derated"))
    return ResourceTrace(phases, name=name or f"{trace.name}+slowdown")


# ---------------------------------------------------------------------------
# Injector
# ---------------------------------------------------------------------------
def _merge_intervals(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Merge overlapping/touching half-open ``[start, end)`` intervals."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


class FaultInjector:
    """Point-query view of a :class:`FaultSpec` for one serve.

    Downtime (crash→recover) and partition windows are merged per node
    into half-open ``[start, end)`` intervals; transient faults are a
    one-shot queue consumed by the owning :class:`ServingRun` as steps
    dispatch.  The injector validates that every event names a known
    node.
    """

    def __init__(self, spec: FaultSpec, node_names: Sequence[str]) -> None:
        self.spec = spec
        self.node_names = tuple(node_names)
        known = set(self.node_names)
        for event in spec.events:
            if event.node not in known:
                raise ConfigError(
                    f"fault event names unknown node {event.node!r}; "
                    f"cluster nodes: {sorted(known)}"
                )
        down: Dict[str, List[Tuple[float, float]]] = {n: [] for n in self.node_names}
        cut: Dict[str, List[Tuple[float, float]]] = {n: [] for n in self.node_names}
        slow: Dict[str, List[Tuple[float, float, float]]] = {
            n: [] for n in self.node_names
        }
        transients: Dict[str, List[float]] = {n: [] for n in self.node_names}
        for event in spec.events:
            if isinstance(event, CrashFault):
                end = math.inf if event.recover_time is None else event.recover_time
                down[event.node].append((event.time, end))
            elif isinstance(event, PartitionFault):
                cut[event.node].append((event.time, event.end))
            elif isinstance(event, SlowdownFault):
                slow[event.node].append((event.time, event.end, event.factor))
            elif isinstance(event, TransientFault):
                transients[event.node].append(event.time)
        self._down = {n: _merge_intervals(v) for n, v in down.items()}
        self._cut = {n: _merge_intervals(v) for n, v in cut.items()}
        self._blocked = {
            n: _merge_intervals(down[n] + cut[n]) for n in self.node_names
        }
        self._slow = slow
        self._transients = {n: sorted(v) for n, v in transients.items()}
        self._transient_cursor = {n: 0 for n in self.node_names}

    # -- point queries --------------------------------------------------
    @staticmethod
    def _inside(intervals: Sequence[Tuple[float, float]], time: float) -> bool:
        for start, end in intervals:
            if start <= time < end:
                return True
            if start > time:
                break
        return False

    def alive(self, node: str, time: float) -> bool:
        """False while ``node`` is inside a crash→recover window."""
        return not self._inside(self._down[node], time)

    def reachable(self, node: str, time: float) -> bool:
        """Alive *and* not partitioned from the router."""
        return not self._inside(self._blocked[node], time)

    def transitions(self, node: str) -> List[Tuple[float, str]]:
        """Sorted ``(time, 'crash' | 'recover')`` pairs for ``node``."""
        out: List[Tuple[float, str]] = []
        for start, end in self._down[node]:
            out.append((start, "crash"))
            if math.isfinite(end):
                out.append((end, "recover"))
        return out

    def consume_transient(self, node: str, time: float) -> bool:
        """Consume (at most) one pending transient fault due at ``time``."""
        times = self._transients[node]
        cursor = self._transient_cursor[node]
        if cursor < len(times) and times[cursor] <= time + _TIME_EPS:
            self._transient_cursor[node] = cursor + 1
            _LOG.warning(
                "transient fault injected on node '%s' at t=%.6f "
                "(scheduled t=%.6f): next dispatched step fails",
                node,
                time,
                times[cursor],
            )
            return True
        return False

    def next_reachable(self, time: float) -> float:
        """Earliest instant >= ``time`` at which *some* node is reachable."""
        best = math.inf
        for node in self.node_names:
            best = min(best, self._next_reachable_node(node, time))
        return best

    def _next_reachable_node(self, node: str, time: float) -> float:
        current = time
        for start, end in self._blocked[node]:
            if current < start:
                return current
            if start <= current < end:
                current = end
        return current
