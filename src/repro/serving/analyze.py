"""Trace analytics: latency decompositions, timelines, and SLO scorecards.

This module turns a :class:`~repro.serving.observe.TraceRecorder` event
stream (or a trace JSONL file written by one) into serving diagnostics:

* :func:`decompose_latency` — an *exact* per-request latency
  decomposition.  Every finalized request's residence time
  ``finish - arrival`` is split into six non-overlapping phases
  (queue wait, coalesce wait, compute, checkpointed-replay recompute,
  retry backoff, partition hold) that sum back to the residence time.
* :func:`utilization_timeline` — per-node busy/idle/starvation
  accounting derived from step intervals and queue-depth samples.
* :func:`critical_path` — the ordered phase walk of the p99 (or any
  chosen) request, for "where did the tail latency go" questions.
* :class:`SLOSpec` / :class:`SLOScorecard` — a JSON-round-trippable
  service-level-objective spec plus its evaluation against any
  ``ServingReport``/``ClusterReport`` (object or ``as_dict`` mapping),
  optionally enriched with trace-derived phase decompositions.

The reducers never import :mod:`repro.serving.spec` (that module imports
*us* so ``ClusterSpec`` can carry an SLO) and never mutate router or
engine state — they are pure functions over recorded events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..utils.metrics import percentile
from .codec import Spec, number, text
from .engine import _json_safe
from .observe import EventSource, coerce_events, events_by_request, events_by_type

__all__ = [
    "PHASES",
    "RequestDecomposition",
    "decompose_latency",
    "decomposition_summary",
    "utilization_timeline",
    "critical_path",
    "SLOSpec",
    "SLOScorecard",
    "evaluate_slo",
]


#: Phase keys of the latency decomposition, in subtraction-priority order.
#: ``compute`` intervals are claimed first, then ``retry_backoff``, then
#: ``coalesce_wait``, then the off-node holds — ``rebalance_hold`` (the
#: share of off-node time that follows a work-steal, up to the request's
#: re-admission) carved out of ``partition_hold``; ``queue_wait`` is the
#: remainder of the residence horizon, so the seven durations sum to
#: ``finish - arrival`` by construction.  ``replay_recompute`` is the
#: recomputed-MAC share of the compute union (checkpointed-failover
#: catch-up work), carved out of ``compute``.
PHASES = (
    "queue_wait",
    "coalesce_wait",
    "compute",
    "replay_recompute",
    "retry_backoff",
    "rebalance_hold",
    "partition_hold",
)

Interval = Tuple[float, float]


# ----------------------------------------------------------------------
# Interval arithmetic
# ----------------------------------------------------------------------
def _merge(intervals: Sequence[Interval]) -> List[Interval]:
    """Sorted union of half-open intervals, empty members dropped."""
    spans = sorted((lo, hi) for lo, hi in intervals if hi > lo)
    merged: List[Interval] = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def _subtract(intervals: Sequence[Interval], others: Sequence[Interval]) -> List[Interval]:
    """Union of ``intervals`` minus the union of ``others``."""
    remaining = _merge(intervals)
    for lo, hi in _merge(others):
        updated: List[Interval] = []
        for a, b in remaining:
            if hi <= a or lo >= b:
                updated.append((a, b))
                continue
            if lo > a:
                updated.append((a, lo))
            if hi < b:
                updated.append((hi, b))
        remaining = updated
    return remaining


def _clip(intervals: Sequence[Interval], lo: float, hi: float) -> List[Interval]:
    return [(max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)]


def _measure(intervals: Sequence[Interval]) -> float:
    return sum(hi - lo for lo, hi in _merge(intervals))


def _intersect(intervals: Sequence[Interval], others: Sequence[Interval]) -> List[Interval]:
    out: List[Interval] = []
    for a, b in _merge(intervals):
        for lo, hi in _merge(others):
            if hi <= a:
                continue
            if lo >= b:
                break
            out.append((max(a, lo), min(b, hi)))
    return out


# ----------------------------------------------------------------------
# Per-request latency decomposition
# ----------------------------------------------------------------------
@dataclass
class RequestDecomposition:
    """One finalized request's residence time split into phases.

    ``phases`` maps every key in :data:`PHASES` to seconds; the values
    sum to ``residence`` (up to float rounding).  ``intervals`` keeps
    the underlying ``[start, end)`` spans per phase for critical-path
    rendering; it is not serialised by :meth:`to_dict`.
    """

    request_id: int
    arrival: float
    finish: float
    status: str
    reason: Optional[str]
    nodes: Tuple[str, ...]
    num_steps: int
    deadline: Optional[float]
    phases: Dict[str, float]
    intervals: Dict[str, List[Interval]] = field(repr=False, default_factory=dict)

    @property
    def residence(self) -> float:
        return self.finish - self.arrival

    @property
    def deadline_met(self) -> Optional[bool]:
        if self.deadline is None:
            return None
        return self.finish <= self.deadline

    def to_dict(self) -> Dict[str, Any]:
        return {
            "request_id": self.request_id,
            "arrival": self.arrival,
            "finish": self.finish,
            "residence": self.residence,
            "status": self.status,
            "reason": self.reason,
            "nodes": list(self.nodes),
            "num_steps": self.num_steps,
            "deadline": self.deadline,
            "deadline_met": self.deadline_met,
            "phases": dict(self.phases),
        }


def _node_crash_times(events: Sequence[dict]) -> Dict[str, List[float]]:
    crashes: Dict[str, List[float]] = {}
    for event in events:
        if event.get("type") == "crash":
            crashes.setdefault(event["node"], []).append(float(event["time"]))
    for times in crashes.values():
        times.sort()
    return crashes


def _node_coalesce_windows(events: Sequence[dict]) -> Dict[str, List[Interval]]:
    windows: Dict[str, List[Interval]] = {}
    for event in events:
        if event.get("type") == "coalesce_wait":
            start = float(event["time"])
            end = float(event.get("wait_until", start))
            if end > start:
                windows.setdefault(event["node"], []).append((start, end))
    return {node: _merge(spans) for node, spans in windows.items()}


def _first_at_or_after(times: Sequence[float], when: float) -> Optional[float]:
    for t in times:
        if t >= when:
            return t
    return None


def decompose_latency(source: EventSource) -> List[RequestDecomposition]:
    """Exact per-request latency decompositions from a trace.

    Every request with at least one ``finalize`` event yields one
    :class:`RequestDecomposition` whose seven phase durations sum to its
    residence time ``finish - arrival``:

    * **compute** — union of the request's step intervals (batch members
      and catch-up levels share a dispatch interval; the union counts it
      once), minus the replay share below.
    * **replay_recompute** — the recomputed-MAC fraction of the compute
      union: time re-spent re-deriving checkpointed progress after a
      failover.
    * **retry_backoff** — post-failure backoff windows (``retry`` events)
      not already covered by compute.
    * **coalesce_wait** — node-level batch-coalescing hold windows
      overlapped with the spans in which this request sat queued on that
      node, minus time already claimed above.
    * **rebalance_hold** — the share of off-node time that follows a
      work-steal (``steal`` events): from leaving the victim node to
      re-admission on the destination.
    * **partition_hold** — remaining time spent on *no* node: between
      true arrival and first node admission, between a node crash and
      re-placement, or between the final crash and a best-effort/lost
      finalize.
    * **queue_wait** — the exact remainder of the horizon: queued on a
      node, runnable, but not scheduled.

    Requests that were rejected at admission never emit ``finalize`` and
    are therefore not decomposed (they never resided in the system).
    """
    events = coerce_events(source)
    by_request = events_by_request(events)
    crashes = _node_crash_times(events)
    coalesce_windows = _node_coalesce_windows(events)

    decompositions: List[RequestDecomposition] = []
    for request_id in sorted(by_request):
        mine = by_request[request_id]
        finalizes = [e for e in mine if e["type"] == "finalize"]
        if not finalizes:
            continue
        arrives = [e for e in mine if e["type"] == "arrive"]
        finish = max(float(e["time"]) for e in finalizes)
        last_finalize = max(finalizes, key=lambda e: (float(e["time"]), e.get("seq", 0)))
        if arrives:
            arrival = float(arrives[0]["arrival"])
        elif "arrival" in last_finalize:
            arrival = float(last_finalize["arrival"])
        else:
            arrival = finish
        deadline = None
        for e in arrives:
            if e.get("deadline") is not None:
                deadline = float(e["deadline"])
                break
        status = str(last_finalize.get("status", "unknown"))
        reason = last_finalize.get("reason")

        steps = [e for e in mine if e["type"] == "step"]
        node_order: List[str] = []
        for e in arrives:
            if e["node"] not in node_order:
                node_order.append(e["node"])

        # Work-steals end this request's stay on the victim node the
        # same way a crash does, and open a rebalance-hold window that
        # runs until the request is re-admitted somewhere.
        steal_times_by_node: Dict[str, List[float]] = {}
        steal_spans: List[Interval] = []
        arrive_times = sorted(float(e["time"]) for e in arrives)
        for e in mine:
            if e["type"] != "steal":
                continue
            stolen_at = float(e["time"])
            steal_times_by_node.setdefault(e.get("node"), []).append(stolen_at)
            landed = _first_at_or_after(arrive_times, stolen_at)
            steal_spans.append((stolen_at, finish if landed is None else landed))
        for times in steal_times_by_node.values():
            times.sort()

        horizon = finish - arrival
        if horizon <= 0.0:
            phases = {key: 0.0 for key in PHASES}
            decompositions.append(
                RequestDecomposition(
                    request_id=request_id,
                    arrival=arrival,
                    finish=finish,
                    status=status,
                    reason=reason,
                    nodes=tuple(node_order),
                    num_steps=len(steps),
                    deadline=deadline,
                    phases=phases,
                    intervals={key: [] for key in PHASES},
                )
            )
            continue

        # -- compute: union of step intervals, clipped to the horizon.
        step_spans: List[Interval] = []
        macs_charged = 0.0
        macs_recomputed = 0.0
        for e in steps:
            macs_charged += float(e.get("macs_charged", 0.0))
            macs_recomputed += float(e.get("macs_recomputed", 0.0))
            if e.get("finish") is None:
                continue
            step_spans.append((float(e["time"]), float(e["finish"])))
        compute_iv = _clip(step_spans, arrival, finish)
        compute_total = _measure(compute_iv)
        replay_fraction = macs_recomputed / macs_charged if macs_charged > 0.0 else 0.0
        replay_recompute = compute_total * replay_fraction

        # -- retry backoff windows, minus any overlap with compute.
        retry_spans = [
            (float(e["time"]), float(e["retry_at"]))
            for e in mine
            if e["type"] == "retry" and e.get("retry_at") is not None
        ]
        retry_iv = _subtract(_clip(retry_spans, arrival, finish), compute_iv)

        # -- coalesce wait: node-level hold windows intersected with the
        #    spans in which this request was queued on that node.  A
        #    queued span runs from each enqueue to the earliest of the
        #    request's finalize on that node, the node's next crash, or
        #    the horizon end.
        node_finalizes: Dict[str, List[float]] = {}
        for e in finalizes:
            if e.get("node") is not None:
                node_finalizes.setdefault(e["node"], []).append(float(e["time"]))
        for times in node_finalizes.values():
            times.sort()
        queued_spans: Dict[str, List[Interval]] = {}
        for e in mine:
            if e["type"] != "enqueue":
                continue
            node = e["node"]
            start = float(e["time"])
            ends = [finish]
            done = _first_at_or_after(node_finalizes.get(node, ()), start)
            if done is not None:
                ends.append(done)
            crash = _first_at_or_after(crashes.get(node, ()), start)
            if crash is not None:
                ends.append(crash)
            stolen = _first_at_or_after(steal_times_by_node.get(node, ()), start)
            if stolen is not None:
                ends.append(stolen)
            queued_spans.setdefault(node, []).append((start, min(ends)))
        coalesce_spans: List[Interval] = []
        for node, spans in queued_spans.items():
            windows = coalesce_windows.get(node)
            if windows:
                coalesce_spans.extend(_intersect(spans, windows))
        coalesce_iv = _subtract(
            _clip(coalesce_spans, arrival, finish), compute_iv + retry_iv
        )

        # -- off-node holds: the horizon minus every span spent resident
        #    on some node.  Residency runs from each arrive to the
        #    earliest of: the request's finalize on that node, the
        #    node's next crash, a work-steal off that node, the next
        #    arrive (migration), or the horizon end.
        resident_spans: List[Interval] = []
        for index, e in enumerate(arrives):
            node = e["node"]
            start = float(e["time"])
            ends = [finish]
            done = _first_at_or_after(node_finalizes.get(node, ()), start)
            if done is not None:
                ends.append(done)
            crash = _first_at_or_after(crashes.get(node, ()), start)
            if crash is not None:
                ends.append(crash)
            stolen = _first_at_or_after(steal_times_by_node.get(node, ()), start)
            if stolen is not None:
                ends.append(stolen)
            if index + 1 < len(arrives):
                ends.append(float(arrives[index + 1]["time"]))
            resident_spans.append((start, min(ends)))
        hold_iv = _subtract(
            _subtract([(arrival, finish)], _clip(resident_spans, arrival, finish)),
            compute_iv + retry_iv + coalesce_iv,
        )
        # The steal-to-re-admission share of the off-node time is its own
        # phase; subtract + intersect partition the hold exactly.
        rebalance_iv = _intersect(hold_iv, _clip(steal_spans, arrival, finish))
        hold_iv = _subtract(hold_iv, rebalance_iv)

        # -- queue wait: the exact remainder.  Computed in closed form so
        #    the seven phases sum to the residence time by construction.
        claimed = (
            compute_total
            + _measure(retry_iv)
            + _measure(coalesce_iv)
            + _measure(rebalance_iv)
            + _measure(hold_iv)
        )
        queue_wait = horizon - claimed
        queue_iv = _subtract(
            [(arrival, finish)],
            compute_iv + retry_iv + coalesce_iv + rebalance_iv + hold_iv,
        )

        phases = {
            "queue_wait": queue_wait,
            "coalesce_wait": _measure(coalesce_iv),
            "compute": compute_total - replay_recompute,
            "replay_recompute": replay_recompute,
            "retry_backoff": _measure(retry_iv),
            "rebalance_hold": _measure(rebalance_iv),
            "partition_hold": _measure(hold_iv),
        }
        decompositions.append(
            RequestDecomposition(
                request_id=request_id,
                arrival=arrival,
                finish=finish,
                status=status,
                reason=reason,
                nodes=tuple(node_order),
                num_steps=len(steps),
                deadline=deadline,
                phases=phases,
                intervals={
                    "queue_wait": queue_iv,
                    "coalesce_wait": coalesce_iv,
                    "compute": compute_iv,
                    "retry_backoff": retry_iv,
                    "rebalance_hold": rebalance_iv,
                    "partition_hold": hold_iv,
                },
            )
        )
    return decompositions


def decomposition_summary(
    decompositions: Sequence[RequestDecomposition],
) -> Dict[str, Any]:
    """Aggregate a set of per-request decompositions into fleet totals."""
    totals = {key: 0.0 for key in PHASES}
    residences: List[float] = []
    for decomposition in decompositions:
        residences.append(decomposition.residence)
        for key in PHASES:
            totals[key] += decomposition.phases.get(key, 0.0)
    total_residence = sum(residences)
    fractions = {
        key: (value / total_residence if total_residence > 0.0 else 0.0)
        for key, value in totals.items()
    }
    return {
        "num_requests": len(decompositions),
        "total_residence": total_residence,
        "mean_residence": (total_residence / len(residences)) if residences else 0.0,
        "p95_residence": percentile(residences, 95.0) if residences else float("nan"),
        "phase_seconds": totals,
        "phase_fractions": fractions,
    }


# ----------------------------------------------------------------------
# Fleet timelines
# ----------------------------------------------------------------------
def utilization_timeline(source: EventSource) -> Dict[str, Any]:
    """Per-node busy/idle/starvation accounting from a trace.

    For each node the step intervals form the *busy* union over the
    node's observed span (first to last event).  Idle time is the
    complement; the *starved* share of idle is time in which the node's
    last-known queue depth was positive (work waiting, nothing running —
    coalesce windows, retry backoff, scheduling gaps), excluding
    crash-to-recover downtime, which is reported separately.
    """
    events = coerce_events(source)
    by_node: Dict[str, List[dict]] = {}
    for event in events:
        node = event.get("node")
        if node is not None:
            by_node.setdefault(node, []).append(event)

    nodes: Dict[str, Any] = {}
    for node in sorted(by_node):
        mine = by_node[node]
        times = [float(e["time"]) for e in mine]
        span = (min(times), max(times))
        span_seconds = span[1] - span[0]
        busy_iv = _merge(
            [
                (float(e["time"]), float(e["finish"]))
                for e in mine
                if e["type"] == "step" and e.get("finish") is not None
            ]
        )
        busy_iv = _clip(busy_iv, span[0], span[1])
        down_spans: List[Interval] = []
        crash_at: Optional[float] = None
        for e in mine:
            if e["type"] == "crash":
                crash_at = float(e["time"])
            elif e["type"] == "recover" and crash_at is not None:
                down_spans.append((crash_at, float(e["time"])))
                crash_at = None
        if crash_at is not None:
            down_spans.append((crash_at, span[1]))
        down_iv = _clip(_merge(down_spans), span[0], span[1])
        idle_iv = _subtract([span], busy_iv + down_iv)

        # Queue-depth step function from every event that samples it.
        samples = sorted(
            (
                (float(e["time"]), e.get("seq", 0), int(e["queue_depth"]))
                for e in mine
                if e.get("queue_depth") is not None
            ),
        )
        starved = 0.0
        for lo, hi in idle_iv:
            depth = 0
            cursor = lo
            for time, _, value in samples:
                if time >= hi:
                    break
                if time <= lo:
                    depth = value
                    continue
                if depth > 0:
                    starved += time - cursor
                cursor = time
                depth = value
            if depth > 0:
                starved += hi - cursor

        busy_seconds = _measure(busy_iv)
        nodes[node] = {
            "span": [span[0], span[1]],
            "span_seconds": span_seconds,
            "busy_seconds": busy_seconds,
            "idle_seconds": _measure(idle_iv),
            "down_seconds": _measure(down_iv),
            "starved_seconds": starved,
            "utilization": busy_seconds / span_seconds if span_seconds > 0.0 else 0.0,
            "num_busy_intervals": len(busy_iv),
            "longest_idle_gap": max((hi - lo for lo, hi in idle_iv), default=0.0),
        }

    fleet = {
        "num_nodes": len(nodes),
        "busy_seconds": sum(n["busy_seconds"] for n in nodes.values()),
        "idle_seconds": sum(n["idle_seconds"] for n in nodes.values()),
        "down_seconds": sum(n["down_seconds"] for n in nodes.values()),
        "starved_seconds": sum(n["starved_seconds"] for n in nodes.values()),
        "mean_utilization": (
            sum(n["utilization"] for n in nodes.values()) / len(nodes) if nodes else 0.0
        ),
    }
    return {"nodes": nodes, "fleet": fleet}


def critical_path(
    source: EventSource,
    request_id: Optional[int] = None,
    rank: float = 99.0,
) -> Dict[str, Any]:
    """Ordered phase walk of one request — by default the p99 straggler.

    Without an explicit ``request_id``, picks the request whose
    residence time is the smallest at or above the ``rank`` percentile
    of all finalized residences (the canonical "p99 request").  Returns
    the time-ordered phase segments covering its whole horizon.
    """
    decompositions = decompose_latency(source)
    if not decompositions:
        return {"request_id": None, "rank": rank, "segments": [], "phases": {}}
    if request_id is not None:
        chosen = next(
            (d for d in decompositions if d.request_id == request_id), None
        )
        if chosen is None:
            raise KeyError(f"request {request_id} has no finalize event in this trace")
    else:
        residences = [d.residence for d in decompositions]
        target = percentile(residences, rank)
        at_or_above = [d for d in decompositions if d.residence >= target]
        chosen = (
            min(at_or_above, key=lambda d: d.residence)
            if at_or_above
            else max(decompositions, key=lambda d: d.residence)
        )
    segments = []
    for phase, intervals in chosen.intervals.items():
        for lo, hi in intervals:
            segments.append(
                {"phase": phase, "start": lo, "end": hi, "duration": hi - lo}
            )
    segments.sort(key=lambda s: (s["start"], s["end"]))
    return {
        "request_id": chosen.request_id,
        "rank": rank,
        "arrival": chosen.arrival,
        "finish": chosen.finish,
        "residence": chosen.residence,
        "status": chosen.status,
        "nodes": list(chosen.nodes),
        "phases": dict(chosen.phases),
        "segments": segments,
    }


# ----------------------------------------------------------------------
# SLO specs and scorecards
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SLOSpec(Spec):
    """Service-level objectives for a serving run, JSON round-trippable.

    Every target is optional; only configured targets are evaluated.
    ``max_*`` targets pass when the measured value is at or below the
    target, ``min_*`` targets when at or above.  ``max_loss_rate``
    covers requests finalized as lost plus rejected admissions;
    ``min_delivered_levels`` is the mean subnet count (depth + 1)
    delivered to completed requests — the anytime-degradation floor.
    """

    name: str = text("slo", nonempty=True)
    max_p50_latency: Optional[float] = number(None, ge=0)
    max_p95_latency: Optional[float] = number(None, ge=0)
    max_p99_latency: Optional[float] = number(None, ge=0)
    min_deadline_hit_rate: Optional[float] = number(None, ge=0, le=1)
    min_throughput_rps: Optional[float] = number(None, ge=0)
    max_loss_rate: Optional[float] = number(None, ge=0, le=1)
    min_delivered_levels: Optional[float] = number(None, ge=0)

    def targets(self) -> Dict[str, float]:
        """The configured (non-``None``) objectives."""
        return {
            spec_field.name: getattr(self, spec_field.name)
            for spec_field in fields(self)
            if spec_field.name != "name" and getattr(self, spec_field.name) is not None
        }

    def replace(self, **overrides: Any) -> "SLOSpec":
        return replace(self, **overrides)

    def evaluate(
        self,
        report: Any,
        events: Optional[EventSource] = None,
    ) -> "SLOScorecard":
        return evaluate_slo(self, report, events=events)


#: objective field -> (metric key, direction).  ``max`` objectives pass
#: when actual <= target, ``min`` objectives when actual >= target.
_OBJECTIVE_METRICS = {
    "max_p50_latency": ("p50_latency", "max"),
    "max_p95_latency": ("p95_latency", "max"),
    "max_p99_latency": ("p99_latency", "max"),
    "min_deadline_hit_rate": ("deadline_hit_rate", "min"),
    "min_throughput_rps": ("throughput_rps", "min"),
    "max_loss_rate": ("loss_rate", "max"),
    "min_delivered_levels": ("mean_delivered_levels", "min"),
}


def _report_get(report: Any, key: str, attr: Optional[str] = None) -> Optional[float]:
    if isinstance(report, Mapping):
        value = report.get(key)
    else:
        value = getattr(report, attr or key, None)
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def _report_metrics(report: Any) -> Dict[str, Optional[float]]:
    num_jobs = _report_get(report, "num_jobs")
    rejected = _report_get(report, "rejected") or 0.0
    lost = _report_get(report, "lost") or 0.0
    loss_rate: Optional[float] = None
    if num_jobs is not None:
        offered = num_jobs + rejected
        loss_rate = (rejected + lost) / offered if offered > 0 else 0.0
    miss = _report_get(report, "deadline_miss_rate")
    return {
        "num_jobs": num_jobs,
        "completed": _report_get(report, "completed"),
        "p50_latency": _report_get(report, "p50_latency"),
        "p95_latency": _report_get(report, "p95_latency"),
        "p99_latency": _report_get(report, "p99_latency"),
        "throughput_rps": _report_get(report, "throughput_rps", attr="throughput"),
        "deadline_hit_rate": (1.0 - miss) if miss is not None else None,
        "loss_rate": loss_rate,
        "mean_delivered_levels": _report_get(report, "mean_delivered_levels"),
    }


@dataclass
class SLOScorecard:
    """The outcome of evaluating an :class:`SLOSpec` against one run.

    ``objectives`` holds one row per configured target with the measured
    value, pass/fail verdict, and signed headroom (positive = margin to
    spare).  ``ok`` is the conjunction over every row that could be
    measured; rows with no measurable metric are counted in ``skipped``
    and do not fail the scorecard.
    """

    slo: SLOSpec
    ok: bool
    objectives: List[Dict[str, Any]]
    summary: Dict[str, Optional[float]]
    decomposition: Optional[Dict[str, Any]] = None

    @property
    def skipped(self) -> int:
        return sum(1 for row in self.objectives if row["ok"] is None)

    @property
    def failed(self) -> List[str]:
        return [row["objective"] for row in self.objectives if row["ok"] is False]

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "slo": self.slo.to_dict(),
            "ok": self.ok,
            "skipped": self.skipped,
            "failed": self.failed,
            "objectives": self.objectives,
            "summary": self.summary,
        }
        if self.decomposition is not None:
            payload["decomposition"] = self.decomposition
        return _json_safe(payload)


def evaluate_slo(
    slo: SLOSpec,
    report: Any,
    events: Optional[EventSource] = None,
) -> SLOScorecard:
    """Score a report (object or ``as_dict`` mapping) against an SLO.

    When ``events`` is provided the scorecard also carries the
    fleet-level latency decomposition summary, so a failing latency
    objective comes with its phase breakdown attached.
    """
    metrics = _report_metrics(report)
    objectives: List[Dict[str, Any]] = []
    ok = True
    for objective, target in slo.targets().items():
        metric_key, direction = _OBJECTIVE_METRICS[objective]
        actual = metrics.get(metric_key)
        if actual is None:
            row_ok: Optional[bool] = None
            margin: Optional[float] = None
        elif direction == "max":
            margin = target - actual
            row_ok = actual <= target
        else:
            margin = actual - target
            row_ok = actual >= target
        if row_ok is False:
            ok = False
        objectives.append(
            {
                "objective": objective,
                "metric": metric_key,
                "target": target,
                "actual": actual,
                "ok": row_ok,
                "margin": margin,
            }
        )
    decomposition = None
    if events is not None:
        decomposition = decomposition_summary(decompose_latency(events))
    return SLOScorecard(
        slo=slo,
        ok=ok,
        objectives=objectives,
        summary=metrics,
        decomposition=decomposition,
    )
