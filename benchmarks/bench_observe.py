"""Benchmark: the serving observability subsystem, measured end to end.

Three questions, one chaos fleet (``configs/cluster_faults.json`` —
crashes, transients, partitions, degrading admission):

* **What does tracing cost?**  The same fleet workload is served with
  observability disabled and enabled; the reports must be bit-identical
  (the registry that feeds them is always on) and the wall-clock delta
  is the whole price of the event stream.
* **Are the artifacts loadable?**  The JSONL trace is exported to the
  Chrome ``chrome://tracing`` format and validated structurally: valid
  JSON, every ``B`` matched by an ``E`` on the same ``(pid, tid)``
  track, one flow per request that executed a step.
* **How stale is the routing signal?**  ``publish`` events record, at
  every placement, both the fluid-model queue estimate the router
  consulted and the node's actual published depth.  The per-sample gap
  is the staleness curve — the data source the ROADMAP's
  placement-quality-vs-signal-staleness study starts from.

The program reads no wall clock of its own, so the plan's wall-clock
section (``plan_spans``) is timed from outside, by perfbench's span
recorder over ``NetworkPlan.execute``/``execute_batch``.

Regenerated artefacts: ``results/trace.jsonl`` (the raw event stream),
``results/trace_chrome.json`` (load it in ``chrome://tracing`` or
Perfetto) and ``results/BENCH_observe.json`` (overhead + staleness
summary + plan spans)::

    PYTHONPATH=src python benchmarks/bench_observe.py --smoke
"""

import argparse
import collections
import dataclasses
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.spans import SpanRecorder, plan_work_counters  # noqa: E402  (the repository root's spans)

RESULTS_DIR = Path(__file__).parent / "results"
DEFAULT_CLUSTER = Path(__file__).parent / "configs" / "cluster_faults.json"


def validate_chrome_trace(trace: dict) -> dict:
    """Structural validation of a Chrome trace export; returns stats.

    Asserts the contract the exporter promises: JSON-serialisable,
    ``B``/``E`` begin/end pairs balanced per ``(pid, tid)`` track, and
    exactly one flow start per request that executed a step.
    """
    json.dumps(trace)  # must be strictly serialisable
    events = trace["traceEvents"]
    open_spans = collections.Counter()
    flow_starts = collections.Counter()
    for event in events:
        if event["ph"] == "B":
            open_spans[(event["pid"], event["tid"])] += 1
        elif event["ph"] == "E":
            open_spans[(event["pid"], event["tid"])] -= 1
        elif event["ph"] == "s":
            flow_starts[event["id"]] += 1
    unbalanced = {k: v for k, v in open_spans.items() if v != 0}
    assert not unbalanced, f"unmatched B/E pairs on tracks {unbalanced}"
    repeated = {k: v for k, v in flow_starts.items() if v != 1}
    assert not repeated, f"requests with multiple flow starts: {repeated}"
    return {
        "num_events": len(events),
        "num_span_tracks": len(open_spans),
        "num_flows": len(flow_starts),
    }


def run_fleet(spec, observe=None):
    """Serve the spec's declared workload; (report, wall_seconds)."""
    from repro.serving import ServingCluster

    if observe is not None:
        spec = dataclasses.replace(spec, observe=observe)
    cluster = ServingCluster.from_spec(spec)
    start = time.perf_counter()
    report = cluster.serve()
    return report, time.perf_counter() - start


def plan_spans(spec, max_requests: int = 32) -> dict:
    """Wall-clock plan spans on one node of the fleet, timed from outside.

    perfbench's :class:`~perfbench.spans.SpanRecorder` wraps the plan's
    two entry points while the node serves; a lone ``execute_batch``
    member runs inside an ``execute`` span.  Calls and dense MACs are
    exact; the seconds are wall-clock and live in the benchmark payload
    only, never in a report or trace.
    """
    from repro.core import NetworkPlan

    network = spec.build_network()
    input_shape = network.spec.input_shape
    requests = spec.build_requests(input_shape=input_shape)[:max_requests]
    engine = spec.nodes[0].build_engine(network)
    names = ("execute", "execute_batch")
    recorder = SpanRecorder(
        [(NetworkPlan, name, f"plan.{name}") for name in names], plan_work_counters()
    )
    recorder.install()
    try:
        engine.serve(requests)
    finally:
        recorder.uninstall()
    spans = {}
    for name in names:
        calls, inclusive, own = recorder.stats[f"plan.{name}"]
        spans[name] = {
            "calls": calls,
            "inclusive_seconds": inclusive,
            "self_seconds": own,
            "us_per_call": 1e6 * inclusive / calls if calls else 0.0,
        }
    plan_self = sum(span["self_seconds"] for span in spans.values())
    spans["dense_macs"] = int(recorder.work)
    spans["gmacs_per_s"] = recorder.work / plan_self / 1e9 if plan_self > 0 else 0.0
    return spans


def main() -> None:
    from repro.serving import ClusterSpec, ObservabilitySpec, load_jsonl
    from repro.serving import staleness_curve, to_chrome_trace

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--cluster",
        type=Path,
        default=DEFAULT_CLUSTER,
        help="ClusterSpec JSON (default: the checked-in chaos fleet)",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="single repeat + artifact assertions (CI gate)"
    )
    parser.add_argument(
        "--out-dir", type=Path, default=RESULTS_DIR, help="artifact directory"
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repeats (default 1 smoke / 3 bench)"
    )
    args = parser.parse_args()
    repeats = args.repeats or (1 if args.smoke else 3)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    jsonl_path = args.out_dir / "trace.jsonl"
    chrome_path = args.out_dir / "trace_chrome.json"

    spec = ClusterSpec.from_json(args.cluster)

    # Overhead: disabled vs enabled on identical workloads, best-of-N.
    walls = {"disabled": [], "enabled": []}
    payloads = {}
    for _ in range(repeats):
        report_off, wall_off = run_fleet(spec)
        walls["disabled"].append(wall_off)
        # The last enabled run leaves the JSONL artifact on disk.
        report_on, wall_on = run_fleet(
            spec, ObservabilitySpec(enabled=True, sink="jsonl", path=str(jsonl_path))
        )
        walls["enabled"].append(wall_on)
        payloads["disabled"] = report_off.to_dict()
        payloads["enabled"] = report_on.to_dict()
    identical = json.dumps(payloads["disabled"], sort_keys=True) == json.dumps(
        payloads["enabled"], sort_keys=True
    )
    assert identical, "observability changed the ClusterReport (bit-identity contract)"
    disabled, enabled = min(walls["disabled"]), min(walls["enabled"])

    # Artifacts: raw JSONL stream -> Chrome trace, validated.
    events = load_jsonl(jsonl_path)
    trace = to_chrome_trace(events)
    chrome_path.write_text(json.dumps(trace) + "\n")
    stats = validate_chrome_trace(trace)
    type_counts = collections.Counter(event["type"] for event in events)

    # Routing-signal staleness: fluid estimate vs published depth.
    staleness = staleness_curve(events)

    spans = plan_spans(spec)

    payload = {
        "cluster": str(args.cluster.name),
        "num_events": len(events),
        "events_by_type": dict(sorted(type_counts.items())),
        "chrome_trace": stats,
        "observability_overhead": {
            "repeats": repeats,
            "disabled_wall_seconds": disabled,
            "enabled_wall_seconds": enabled,
            "enabled_overhead_pct": (enabled / disabled - 1.0) * 100.0 if disabled else 0.0,
            "reports_bit_identical": identical,
        },
        "staleness": staleness,
        "plan_spans": spans,
    }
    out = args.out_dir / "BENCH_observe.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")

    print(
        f"trace: {len(events)} events -> {stats['num_events']} chrome events, "
        f"{stats['num_flows']} request flows"
    )
    print(
        f"overhead: disabled {disabled:.3f} s, enabled {enabled:.3f} s "
        f"({payload['observability_overhead']['enabled_overhead_pct']:+.1f}%), "
        f"reports bit-identical"
    )
    print(
        f"staleness: {staleness['num_samples']} publish samples, "
        f"mean |err| {staleness['mean_abs_error']:.3f}, "
        f"max |err| {staleness['max_abs_error']}"
    )
    print(f"wrote {jsonl_path}, {chrome_path}, {out}")

    if args.smoke:
        assert len(events) > 0, "enabled run emitted no events"
        assert stats["num_flows"] > 0, "no request flows in the Chrome trace"
        assert staleness["num_samples"] > 0, "no publish samples for the staleness curve"
        assert type_counts["crash"] >= 1, "chaos fleet should crash at least one node"
        assert spans["execute"]["calls"] > 0, "plan spans recorded no execute calls"


# ----------------------------------------------------------------------
# Pytest face: the same pipeline at smoke scale on a temp directory
# ----------------------------------------------------------------------
def test_trace_artifacts(tmp_path):
    """Chaos-fleet trace round-trip: JSONL -> Chrome, validated, bit-identical."""
    from repro.serving import ClusterSpec, ObservabilitySpec, load_jsonl, to_chrome_trace

    spec = ClusterSpec.from_json(DEFAULT_CLUSTER)
    jsonl_path = tmp_path / "trace.jsonl"
    report_off, _ = run_fleet(spec)
    report_on, _ = run_fleet(
        spec, ObservabilitySpec(enabled=True, sink="jsonl", path=str(jsonl_path))
    )
    assert json.dumps(report_off.to_dict(), sort_keys=True) == json.dumps(
        report_on.to_dict(), sort_keys=True
    )
    events = load_jsonl(jsonl_path)
    stats = validate_chrome_trace(to_chrome_trace(events))
    assert stats["num_flows"] > 0


if __name__ == "__main__":
    main()
