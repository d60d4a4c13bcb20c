"""Serving observability: structured event tracing and trace exporters.

The serving stack's end-of-run reports say *what* happened; this module
records *when*.  A :class:`TraceRecorder` — built from an
:class:`ObservabilitySpec` carried on ``ServingSpec``/``ClusterSpec`` —
receives typed, timestamped events from instrumentation hooks threaded
through the engine, cluster coordinator, memory budget and fault paths.
Every hook is guarded by an ``is not None`` check on the recorder, so a
disabled spec costs one attribute load per site and allocates nothing.

Timestamps are *simulated* seconds (the engine's event clock), which
makes traces deterministic: the same spec and seed produce the same
event stream byte for byte.

Three consumers are provided:

* :func:`to_chrome_trace` — export to the Chrome ``chrome://tracing`` /
  Perfetto JSON format: nodes become processes, requests become
  threads, execution steps become ``B``/``E`` duration pairs, each
  request is stitched across nodes with a flow, and queue depth /
  resident bytes become counter tracks.
* :func:`timeline_frames` — derived per-node signal frames (queue
  depth, occupancy, resident bytes over time) for plotting.
* :func:`replay_queue_depth` / :func:`staleness_curve` — reconstruct
  the live queue-depth signal from a JSONL trace and compare it with
  the fluid estimate the router actually saw (``publish`` events),
  quantifying routing-signal staleness.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..utils.errors import ConfigError
from ..utils.metrics import MetricsRegistry
from ..utils.timing import Timer
from .codec import Spec, flag, integer, text

__all__ = [
    "EVENT_TYPES",
    "TraceSink",
    "MemorySink",
    "JSONLSink",
    "TraceRecorder",
    "ObservabilitySpec",
    "to_chrome_trace",
    "timeline_frames",
    "load_jsonl",
    "coerce_events",
    "events_by_request",
    "events_by_type",
    "replay_queue_depth",
    "staleness_curve",
]

#: Anything the trace reducers accept as "a trace": a recorder (its
#: first memory sink), an already-loaded event list, or a JSONL path.
EventSource = Union["TraceRecorder", Sequence[dict], str, Path]

#: Every event type the serving stack can emit.  ``TraceRecorder.emit``
#: rejects anything else so a typo in an instrumentation site fails
#: loudly in tests instead of producing a silently unparseable trace.
EVENT_TYPES = frozenset(
    {
        "arrive",  # request entered a node's run (admission instant)
        "admit",  # cluster admission accepted the request unchanged
        "degrade",  # admission capped max_subnet before accepting
        "reject",  # admission refused the request
        "enqueue",  # request became ready in the scheduler queue
        "dispatch",  # a wave of jobs left the queue for execution
        "step",  # one job advanced one subnet edge
        "batch_pass",  # one shared batched pass over a wave
        "coalesce_wait",  # batch policy deferred dispatch to coalesce
        "publish",  # router sampled a node's load signal
        "evict",  # memory budget evicted state
        "replay",  # evicted state was recomputed on resume
        "migrate",  # unstarted job moved off a crashed node
        "failover",  # in-flight job resumed elsewhere from checkpoint
        "steal",  # load trigger moved a job off a healthy node
        "shard",  # oversized batch split into slice-view shard requests
        "retry",  # transient fault scheduled a backoff retry
        "crash",  # node crashed
        "recover",  # node came back
        "finalize",  # request reached a terminal status
    }
)


class TraceSink:
    """Interface for event consumers attached to a recorder."""

    def append(self, event: dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources; idempotent."""


class MemorySink(TraceSink):
    """Keep events in memory, optionally as a bounded ring buffer."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ConfigError(f"MemorySink capacity must be positive, got {capacity}")
        self._events: deque = deque(maxlen=capacity)

    def append(self, event: dict) -> None:
        self._events.append(event)

    @property
    def events(self) -> List[dict]:
        return list(self._events)


class JSONLSink(TraceSink):
    """Stream events to a JSON-lines file, one event per line."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "w", encoding="utf-8")

    def append(self, event: dict) -> None:
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class TraceRecorder:
    """Validates, sequences and fans events out to sinks.

    One recorder observes one serve — a single engine run or a whole
    cluster (all nodes share the recorder so the merged event stream has
    one global sequence).  The recorder also carries a scratch
    :class:`~repro.utils.metrics.MetricsRegistry` for ad-hoc consumers
    (each run/cluster keeps its own, always-on registry for report
    metrics) and, when per-level plan timing is requested, the
    wall-clock :class:`Timer` the compiled plan reports into.
    """

    def __init__(
        self,
        sinks: Sequence[TraceSink] = (),
        *,
        events: Optional[Iterable[str]] = None,
        plan_timer: Optional[Timer] = None,
    ) -> None:
        self.sinks: Tuple[TraceSink, ...] = tuple(sinks)
        self.metrics = MetricsRegistry()
        self.plan_timer = plan_timer
        self._seq = 0
        if events is None:
            self._allowed = None
        else:
            allowed = frozenset(events)
            unknown = allowed - EVENT_TYPES
            if unknown:
                raise ConfigError(
                    f"unknown event types {sorted(unknown)}; valid: {sorted(EVENT_TYPES)}"
                )
            self._allowed = allowed

    def emit(
        self,
        etype: str,
        time: float,
        *,
        node: Optional[str] = None,
        request_id: Optional[int] = None,
        **extra,
    ) -> None:
        if etype not in EVENT_TYPES:
            raise ValueError(f"unknown event type {etype!r}")
        if self._allowed is not None and etype not in self._allowed:
            return
        event = {"type": etype, "time": float(time), "seq": self._seq}
        self._seq += 1
        if node is not None:
            event["node"] = node
        if request_id is not None:
            event["request_id"] = int(request_id)
        if extra:
            event.update(extra)
        for sink in self.sinks:
            sink.append(event)

    @property
    def events(self) -> List[dict]:
        """Events from the first in-memory sink (convenience for tests)."""
        for sink in self.sinks:
            if isinstance(sink, MemorySink):
                return sink.events
        return []

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


_SINKS = ("memory", "jsonl")


@dataclass(frozen=True)
class ObservabilitySpec(Spec):
    """Declarative switch for the tracing subsystem.

    Default-constructed (``enabled=False``) specs build no recorder at
    all — every instrumentation hook stays a ``None`` check.

    Parameters
    ----------
    enabled:
        Master switch.
    sink:
        ``"memory"`` (ring buffer, inspect ``recorder.events``) or
        ``"jsonl"`` (stream to ``path``).
    path:
        Output file for the ``jsonl`` sink.
    capacity:
        Optional bound for the memory ring buffer.
    time_plan_levels:
        Also attach a wall-clock :class:`Timer` to the compiled
        ``NetworkPlan`` recording per-level execute time (the only
        wall-clock — i.e. non-deterministic — signal in a trace).
    events:
        Optional whitelist restricting which event types are recorded.
    """

    enabled: bool = flag(False)
    sink: str = text("memory")
    path: Optional[str] = text(None)
    capacity: Optional[int] = integer(None, ge=1)
    time_plan_levels: bool = flag(False)
    events: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        super().__post_init__()
        if self.sink not in _SINKS:
            raise ConfigError(f"unknown observability sink {self.sink!r}; valid: {_SINKS}")
        if self.enabled and self.sink == "jsonl" and not self.path:
            raise ConfigError("observability sink 'jsonl' requires a path")
        if self.events is not None:
            object.__setattr__(self, "events", tuple(self.events))
            unknown = set(self.events) - EVENT_TYPES
            if unknown:
                raise ConfigError(
                    f"unknown event types {sorted(unknown)}; valid: {sorted(EVENT_TYPES)}"
                )

    def build(self) -> Optional[TraceRecorder]:
        """Instantiate the recorder this spec describes (``None`` if off)."""
        if not self.enabled:
            return None
        if self.sink == "jsonl":
            sinks: Tuple[TraceSink, ...] = (JSONLSink(self.path),)
        else:
            sinks = (MemorySink(capacity=self.capacity),)
        timer = Timer() if self.time_plan_levels else None
        return TraceRecorder(sinks, events=self.events, plan_timer=timer)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


def _node_pids(events: Sequence[dict]) -> Dict[str, int]:
    nodes = sorted({e["node"] for e in events if "node" in e})
    return {node: pid for pid, node in enumerate(nodes, start=1)}


def to_chrome_trace(events: Sequence[dict]) -> dict:
    """Export a trace to the Chrome ``chrome://tracing`` JSON format.

    Mapping: each node is a *process* (named via metadata events), each
    request a *thread* within it; every ``step`` event becomes a
    ``B``/``E`` duration pair (starved steps collapse to zero duration
    and are flagged in ``args``); each request is stitched across
    processes with one flow (``s`` at its first step, ``t`` at every
    later one); queue depth and resident bytes become ``C`` counter
    tracks; crashes, recoveries and finalizes are instants.  Timestamps
    convert from simulated seconds to microseconds, the unit Chrome
    expects.
    """
    pids = _node_pids(events)
    out: List[dict] = []
    for node, pid in pids.items():
        out.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"node:{node}"},
            }
        )
    seen_flow: set = set()
    for event in events:
        etype = event["type"]
        node = event.get("node")
        pid = pids.get(node, 0)
        ts = event["time"] * 1e6
        rid = event.get("request_id")
        if etype == "step":
            # Starved steps carry finish=None (strict-JSON stand-in for
            # an infinite finish time); collapse them to zero duration.
            finish = event.get("finish")
            starved = finish is None or not math.isfinite(finish)
            end_ts = ts if starved else finish * 1e6
            args = {
                "subnet": event.get("subnet"),
                "macs_charged": event.get("macs_charged"),
                "macs_reused": event.get("macs_reused"),
            }
            if starved:
                args["starved"] = True
            out.append(
                {
                    "name": f"level{event.get('subnet')}",
                    "cat": "step",
                    "ph": "B",
                    "ts": ts,
                    "pid": pid,
                    "tid": rid,
                    "args": args,
                }
            )
            out.append(
                {
                    "name": f"level{event.get('subnet')}",
                    "cat": "step",
                    "ph": "E",
                    "ts": end_ts,
                    "pid": pid,
                    "tid": rid,
                }
            )
            flow_ph = "t" if rid in seen_flow else "s"
            seen_flow.add(rid)
            out.append(
                {
                    "name": f"request-{rid}",
                    "cat": "request",
                    "ph": flow_ph,
                    "id": rid,
                    "ts": ts,
                    "pid": pid,
                    "tid": rid,
                }
            )
        elif "queue_depth" in event:
            out.append(
                {
                    "name": "queue_depth",
                    "cat": "signal",
                    "ph": "C",
                    "ts": ts,
                    "pid": pid,
                    "tid": 0,
                    "args": {"depth": event["queue_depth"]},
                }
            )
        if "resident_bytes" in event:
            out.append(
                {
                    "name": "resident_bytes",
                    "cat": "signal",
                    "ph": "C",
                    "ts": ts,
                    "pid": pid,
                    "tid": 0,
                    "args": {"bytes": event["resident_bytes"]},
                }
            )
        if etype in (
            "crash",
            "recover",
            "finalize",
            "migrate",
            "failover",
            "steal",
            "shard",
            "retry",
        ):
            out.append(
                {
                    "name": etype,
                    "cat": "lifecycle",
                    "ph": "i",
                    "s": "p",
                    "ts": ts,
                    "pid": pid,
                    "tid": rid if rid is not None else 0,
                    "args": {
                        k: v
                        for k, v in event.items()
                        if k not in ("type", "time", "seq", "node", "request_id")
                    },
                }
            )
    out.sort(key=lambda e: (e.get("ts", -1.0), 0 if e["ph"] == "M" else 1))
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def timeline_frames(events: Sequence[dict]) -> Dict[str, dict]:
    """Derive per-node signal timelines from an event stream.

    Returns ``{node: {"queue_depth": [[t, v], ...], "occupancy": ...,
    "resident_bytes": ...}}`` where *occupancy* is the number of jobs
    advanced per dispatch wave (the batching win) sampled at dispatch
    times.
    """
    frames: Dict[str, dict] = {}

    def _frame(node):
        if node not in frames:
            frames[node] = {"queue_depth": [], "occupancy": [], "resident_bytes": []}
        return frames[node]

    for event in events:
        node = event.get("node")
        if node is None:
            continue
        if "queue_depth" in event:
            _frame(node)["queue_depth"].append([event["time"], event["queue_depth"]])
        if "resident_bytes" in event:
            _frame(node)["resident_bytes"].append([event["time"], event["resident_bytes"]])
        if event["type"] == "dispatch":
            _frame(node)["occupancy"].append([event["time"], len(event.get("members", ()))])
    return frames


# ----------------------------------------------------------------------
# Replay: reconstruct routing signals from a JSONL trace
# ----------------------------------------------------------------------


def load_jsonl(path: Union[str, Path]) -> List[dict]:
    """Load a JSONL trace written by :class:`JSONLSink`."""
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def coerce_events(source: EventSource) -> List[dict]:
    """Normalise any event source into a plain event list.

    The reducers in :mod:`repro.serving.analyze` (and the exporters
    here) accept a live :class:`TraceRecorder`, an already-materialised
    event sequence, or a path to a JSONL trace — this is the single
    front door that makes them interchangeable.
    """
    if isinstance(source, TraceRecorder):
        return source.events
    if isinstance(source, (str, Path)):
        return load_jsonl(source)
    return list(source)


def events_by_request(events: EventSource) -> Dict[int, List[dict]]:
    """Group request-attributed events by ``request_id`` (seq order kept)."""
    grouped: Dict[int, List[dict]] = {}
    for event in coerce_events(events):
        request_id = event.get("request_id")
        if request_id is not None:
            grouped.setdefault(int(request_id), []).append(event)
    return grouped


def events_by_type(events: EventSource) -> Dict[str, List[dict]]:
    """Group events by their ``type`` (seq order kept within each type)."""
    grouped: Dict[str, List[dict]] = {}
    for event in coerce_events(events):
        grouped.setdefault(event["type"], []).append(event)
    return grouped


def replay_queue_depth(events: Sequence[dict]) -> Dict[str, List[List[float]]]:
    """Reconstruct each node's live queue-depth signal over time.

    Every ``enqueue``/``dispatch``/``finalize`` event carries the depth
    *after* it took effect, so the reconstruction is exact — this is the
    signal a zero-staleness router would have seen: the ``queue_depth``
    series of :func:`timeline_frames`, for every node that has one.
    """
    return {
        node: frame["queue_depth"]
        for node, frame in timeline_frames(events).items()
        if frame["queue_depth"]
    }


def staleness_curve(events: EventSource) -> dict:
    """Quantify routing-signal staleness from ``publish`` events.

    Each ``publish`` event records, at a routing decision, the
    fluid-model estimate (``fluid_depth``, the analytic
    ``NodeState.queue_length``), the node's actual queue depth at that
    instant (``live_depth``) and — since the publish-granularity knob —
    the snapshot a depth router would consult (``published_depth``,
    refreshed once per ``publish_interval`` epoch).  Two staleness
    series fall out: ``error`` (fluid vs live, how wrong the analytic
    model is) and ``published_error`` (published vs live, how stale the
    coarsened publish signal is — identically zero at interval 0).  The
    ROADMAP's placement-quality-vs-signal-staleness study reduces the
    second one against placement quality across a publish-interval
    sweep.
    """
    samples: Dict[str, List[dict]] = {}
    for event in coerce_events(events):
        if event["type"] != "publish":
            continue
        node = event.get("node", "?")
        sample = {
            "time": event["time"],
            "fluid_depth": event.get("fluid_depth"),
            "live_depth": event.get("live_depth"),
        }
        if sample["fluid_depth"] is not None and sample["live_depth"] is not None:
            sample["error"] = sample["fluid_depth"] - sample["live_depth"]
        published = event.get("published_depth")
        if published is not None:
            sample["published_depth"] = published
            if sample["live_depth"] is not None:
                sample["published_error"] = published - sample["live_depth"]
        samples.setdefault(node, []).append(sample)

    def _stats(errors: List[float]) -> Tuple[Optional[float], Optional[float]]:
        if not errors:
            return None, None
        return sum(abs(e) for e in errors) / len(errors), max(abs(e) for e in errors)

    per_node = {}
    all_errors: List[float] = []
    all_published: List[float] = []
    for node, rows in sorted(samples.items()):
        errors = [row["error"] for row in rows if "error" in row]
        published_errors = [row["published_error"] for row in rows if "published_error" in row]
        all_errors.extend(errors)
        all_published.extend(published_errors)
        mean_abs, max_abs = _stats(errors)
        mean_pub, max_pub = _stats(published_errors)
        per_node[node] = {
            "samples": rows,
            "num_samples": len(rows),
            "mean_abs_error": mean_abs,
            "max_abs_error": max_abs,
            "mean_abs_published_error": mean_pub,
            "max_abs_published_error": max_pub,
        }
    mean_abs, max_abs = _stats(all_errors)
    mean_pub, max_pub = _stats(all_published)
    return {
        "nodes": per_node,
        "num_samples": sum(len(rows) for rows in samples.values()),
        "mean_abs_error": mean_abs,
        "max_abs_error": max_abs,
        "mean_abs_published_error": mean_pub,
        "max_abs_published_error": max_pub,
    }
