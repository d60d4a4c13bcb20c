"""Tests for the serving observability subsystem (`repro.serving.observe`).

The contracts under test, in rough order of importance:

* **Bit-identity** — enabling tracing never changes a report.  Reports
  are compared through ``json.dumps(to_dict())`` (``as_dict`` payloads
  contain NaN, and ``NaN != NaN`` makes plain dict equality useless).
* **Determinism** — timestamps are simulated seconds, so the same spec
  produces the same event stream byte for byte.
* **Causality** — a node's event timeline is monotone: the coordinator
  may not stamp an event on a node earlier than the node's own clock.
* **Exporter validity** — the Chrome trace is strict JSON with every
  ``B`` matched by an ``E`` on its track and one flow per request.
"""

import json
import logging
import math
from pathlib import Path

import numpy as np
import pytest

from repro.serving import (
    EVENT_TYPES,
    ClusterSpec,
    JSONLSink,
    MemorySink,
    ObservabilitySpec,
    ServingSpec,
    TraceRecorder,
    load_jsonl,
    replay_queue_depth,
    serve,
    staleness_curve,
    timeline_frames,
    to_chrome_trace,
)
from repro.utils.errors import ConfigError

CHAOS_CONFIG = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "configs" / "cluster_faults.json"
)


# ----------------------------------------------------------------------
# Spec surface
# ----------------------------------------------------------------------
class TestObservabilitySpec:
    def test_default_is_off_and_builds_nothing(self):
        spec = ObservabilitySpec()
        assert not spec.enabled
        assert spec.build() is None

    def test_round_trip(self):
        spec = ObservabilitySpec(
            enabled=True,
            sink="jsonl",
            path="/tmp/t.jsonl",
            events=("step", "publish"),
        )
        recovered = ObservabilitySpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert recovered == spec

    def test_unknown_sink_rejected(self):
        with pytest.raises(ConfigError, match="sink"):
            ObservabilitySpec(sink="kafka")

    def test_jsonl_requires_path(self):
        with pytest.raises(ConfigError, match="path"):
            ObservabilitySpec(enabled=True, sink="jsonl")

    def test_unknown_event_type_rejected(self):
        with pytest.raises(ConfigError, match="event types"):
            ObservabilitySpec(events=("step", "teleport"))

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="fields"):
            ObservabilitySpec.from_dict({"enabled": True, "verbosity": 3})

    def test_serving_and_cluster_specs_coerce_mappings(self):
        node = ServingSpec(observe={"enabled": True, "capacity": 64})
        assert node.observe == ObservabilitySpec(enabled=True, capacity=64)
        cluster = ClusterSpec(nodes=(ServingSpec(),), observe={"enabled": False})
        assert cluster.observe == ObservabilitySpec()
        recovered = ClusterSpec.from_json(json.dumps(cluster.to_dict()))
        assert recovered.observe == cluster.observe

    def test_specs_default_observe_to_none(self):
        assert ServingSpec().observe is None
        assert ClusterSpec(nodes=(ServingSpec(),)).observe is None
        assert ClusterSpec(nodes=(ServingSpec(),)).to_dict()["observe"] is None


# ----------------------------------------------------------------------
# Recorder and sinks
# ----------------------------------------------------------------------
class TestTraceRecorder:
    def test_unknown_event_type_fails_loudly(self):
        recorder = TraceRecorder((MemorySink(),))
        with pytest.raises(ValueError, match="unknown event type"):
            recorder.emit("teleport", 0.0)

    def test_global_sequence_and_payload(self):
        recorder = TraceRecorder((MemorySink(),))
        recorder.emit("arrive", 0.5, node="n0", request_id=7, queue_depth=1)
        recorder.emit("crash", 1.0, node="n0")
        first, second = recorder.events
        assert [e["seq"] for e in (first, second)] == [0, 1]
        assert first == {
            "type": "arrive",
            "time": 0.5,
            "seq": 0,
            "node": "n0",
            "request_id": 7,
            "queue_depth": 1,
        }
        assert "request_id" not in second

    def test_event_whitelist_filters_but_keeps_sequencing(self):
        recorder = TraceRecorder((MemorySink(),), events=("crash",))
        recorder.emit("arrive", 0.0, node="n0")
        recorder.emit("crash", 1.0, node="n0")
        assert [e["type"] for e in recorder.events] == ["crash"]

    def test_ring_buffer_keeps_most_recent(self):
        recorder = TraceRecorder((MemorySink(capacity=3),))
        for index in range(10):
            recorder.emit("step", float(index))
        assert [e["time"] for e in recorder.events] == [7.0, 8.0, 9.0]

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigError, match="capacity"):
            MemorySink(capacity=0)

    def test_jsonl_sink_round_trips_memory_stream(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        recorder = TraceRecorder((MemorySink(), JSONLSink(path)))
        recorder.emit("arrive", 0.125, node="n0", request_id=1)
        recorder.emit("finalize", 0.25, node="n0", request_id=1, status="completed")
        recorder.close()
        assert load_jsonl(path) == recorder.events


# ----------------------------------------------------------------------
# The chaos fleet, traced end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def chaos_run():
    """Serve the checked-in chaos config once disabled and once enabled."""
    from repro.serving import ServingCluster

    spec = ClusterSpec.from_json(CHAOS_CONFIG)
    disabled = serve(None, spec)
    fleet = ServingCluster.from_spec(spec)
    recorder = ObservabilitySpec(enabled=True).build()
    report = fleet.serve(recorder=recorder)
    recorder.close()
    return disabled, report, recorder.events


@pytest.fixture(scope="module")
def chaos_events(chaos_run):
    return chaos_run[2]


class TestClusterTracing:
    def test_enabling_tracing_keeps_reports_bit_identical(self, chaos_run):
        disabled, enabled, events = chaos_run
        assert events, "enabled chaos run emitted no events"
        assert json.dumps(disabled.to_dict(), sort_keys=True) == json.dumps(
            enabled.to_dict(), sort_keys=True
        )

    def test_event_stream_is_deterministic(self, chaos_events):
        spec = ClusterSpec.from_json(CHAOS_CONFIG)
        from dataclasses import replace
        from repro.serving import ServingCluster

        fleet = ServingCluster.from_spec(
            replace(spec, observe=ObservabilitySpec(enabled=True))
        )
        recorder = fleet.observe.build()
        fleet.serve(recorder=recorder)
        recorder.close()
        assert json.dumps(recorder.events, sort_keys=True) == json.dumps(
            chaos_events, sort_keys=True
        )

    def test_only_known_event_types(self, chaos_events):
        assert {event["type"] for event in chaos_events} <= EVENT_TYPES

    def test_global_sequence_is_gapless(self, chaos_events):
        assert [event["seq"] for event in chaos_events] == list(range(len(chaos_events)))

    def test_per_node_timestamps_monotone(self, chaos_events):
        """A node cannot learn of an event before its own clock reached it."""
        last = {}
        for event in chaos_events:
            node = event.get("node")
            if node is None:
                continue
            assert event["time"] >= last.get(node, 0.0) - 1e-12, (
                f"node {node}: {event['type']} at t={event['time']} "
                f"before t={last[node]}"
            )
            last[node] = event["time"]

    def test_chaos_config_exercises_fault_events(self, chaos_events):
        types = {event["type"] for event in chaos_events}
        assert {"crash", "recover", "retry", "degrade", "publish"} <= types

    def test_every_arrival_reaches_exactly_one_finalize(self, chaos_events):
        arrived = [e["request_id"] for e in chaos_events if e["type"] == "arrive"]
        finalized = [e["request_id"] for e in chaos_events if e["type"] == "finalize"]
        assert set(arrived) == set(finalized)
        # One terminal decision per request — failover must not double-count.
        assert len(finalized) == len(set(finalized))
        statuses = {e["status"] for e in chaos_events if e["type"] == "finalize"}
        assert statuses <= {"completed", "dropped", "starved", "rejected", "lost"}

    def test_steps_nest_inside_request_lifetimes(self, chaos_events):
        """Every step of a request happens after its arrival on that node."""
        arrivals = {}
        for event in chaos_events:
            if event["type"] == "arrive":
                arrivals.setdefault((event["node"], event["request_id"]), event["time"])
        for event in chaos_events:
            if event["type"] != "step":
                continue
            key = (event["node"], event["request_id"])
            assert key in arrivals, f"step without arrival: {event}"
            assert event["time"] >= arrivals[key] - 1e-12

    def test_timeline_frames_cover_all_nodes(self, chaos_events):
        frames = timeline_frames(chaos_events)
        nodes = {e["node"] for e in chaos_events if "node" in e}
        assert set(frames) == nodes
        for signals in frames.values():
            for series in signals.values():
                times = [t for t, _ in series]
                assert times == sorted(times)


class TestChromeTrace:
    def test_export_is_strict_json_with_matched_spans_and_flows(self, chaos_events):
        trace = to_chrome_trace(chaos_events)
        json.dumps(trace)  # strict: no NaN/Infinity survives the export
        events = trace["traceEvents"]
        open_spans = {}
        flow_starts = {}
        for event in events:
            if event["ph"] == "B":
                key = (event["pid"], event["tid"])
                open_spans[key] = open_spans.get(key, 0) + 1
            elif event["ph"] == "E":
                key = (event["pid"], event["tid"])
                open_spans[key] = open_spans.get(key, 0) - 1
            elif event["ph"] == "s":
                flow_starts[event["id"]] = flow_starts.get(event["id"], 0) + 1
        assert all(count == 0 for count in open_spans.values())
        stepped = {e["request_id"] for e in chaos_events if e["type"] == "step"}
        assert set(flow_starts) == stepped
        assert all(count == 1 for count in flow_starts.values())

    def test_nodes_become_named_processes(self, chaos_events):
        trace = to_chrome_trace(chaos_events)
        names = {
            event["args"]["name"]
            for event in trace["traceEvents"]
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        nodes = {e["node"] for e in chaos_events if "node" in e}
        assert names == {f"node:{node}" for node in nodes}

    def test_starved_steps_collapse_to_zero_duration(self):
        events = [
            {"type": "step", "time": 1.0, "seq": 0, "node": "n0", "request_id": 0,
             "subnet": 2, "finish": None},
        ]
        trace = to_chrome_trace(events)
        begin, end = [e for e in trace["traceEvents"] if e["ph"] in "BE"]
        assert begin["ts"] == end["ts"] == 1e6
        assert begin["args"]["starved"] is True


class TestReplay:
    def test_staleness_curve_matches_publish_events(self, chaos_events):
        curve = staleness_curve(chaos_events)
        publishes = [e for e in chaos_events if e["type"] == "publish"]
        assert curve["num_samples"] == len(publishes) > 0
        assert curve["max_abs_error"] >= 0
        recomputed = [
            abs(e["fluid_depth"] - e["live_depth"])
            for e in publishes
            if e.get("fluid_depth") is not None and e.get("live_depth") is not None
        ]
        assert math.isclose(
            curve["mean_abs_error"], sum(recomputed) / len(recomputed), rel_tol=1e-12
        )
        assert curve["max_abs_error"] == max(recomputed)

    def test_replayed_queue_depth_is_exact_counting(self, chaos_events):
        series = replay_queue_depth(chaos_events)
        assert series
        for node, points in series.items():
            times = [t for t, _ in points]
            assert times == sorted(times)
            assert all(depth >= 0 for _, depth in points)

    def test_jsonl_trace_round_trips_through_disk(self, tmp_path):
        spec = ClusterSpec.from_json(CHAOS_CONFIG)
        from dataclasses import replace
        from repro.serving import ServingCluster

        path = tmp_path / "trace.jsonl"
        observe = ObservabilitySpec(enabled=True, sink="jsonl", path=str(path))
        ServingCluster.from_spec(replace(spec, observe=observe)).serve()
        events = load_jsonl(path)
        assert events
        json.dumps(events)  # strict JSON all the way down
        assert [e["seq"] for e in events] == list(range(len(events)))


# ----------------------------------------------------------------------
# Engine-level tracing and the plan timer
# ----------------------------------------------------------------------
class TestEngineTracing:
    @pytest.fixture
    def engine_spec(self, stepping_network):
        largest = float(stepping_network.subnet_macs(stepping_network.num_subnets - 1))
        return ServingSpec(
            backend="stepping",
            scheduler="edf",
            trace="constant",
            trace_rate=largest / 0.5,
            overhead_per_step=0.0,
        )

    @pytest.fixture
    def requests(self, sample_pool):
        from repro.serving import poisson_stream

        images, labels = sample_pool
        return poisson_stream(
            images, labels, rate=4.0, num_requests=12, relative_deadline=1.5,
            batch_size=2, seed=0,
        )

    def test_engine_reports_bit_identical_with_tracing(
        self, stepping_network, engine_spec, requests
    ):
        from dataclasses import replace

        plain = engine_spec.build_engine(stepping_network).serve(requests)
        traced_spec = replace(engine_spec, observe=ObservabilitySpec(enabled=True))
        traced = traced_spec.build_engine(stepping_network).serve(requests)
        assert json.dumps(plain.to_dict(), sort_keys=True) == json.dumps(
            traced.to_dict(), sort_keys=True
        )

    def test_explicit_recorder_sees_request_lifecycle(
        self, stepping_network, engine_spec, requests
    ):
        recorder = ObservabilitySpec(enabled=True).build()
        engine_spec.build_engine(stepping_network).serve(requests, recorder=recorder)
        recorder.close()
        types = {event["type"] for event in recorder.events}
        assert {"arrive", "enqueue", "dispatch", "step", "finalize"} <= types
        finalized = [e for e in recorder.events if e["type"] == "finalize"]
        assert len(finalized) == len(requests)


# ----------------------------------------------------------------------
# Metrics registry: the substrate reports consume
# ----------------------------------------------------------------------
class TestMetricsInReports:
    def test_cluster_report_carries_metrics_snapshot(self, chaos_run):
        disabled, enabled, _ = chaos_run
        for report in (disabled, enabled):
            counters = report.metrics["counters"]
            assert counters["failovers"] == report.failovers
            assert counters["degraded_admissions"] == report.degraded_admissions
            assert counters["rejected"] == report.rejected
            assert counters["lost"] == report.lost

    def test_metrics_present_even_without_faults(self, stepping_network, sample_pool):
        from repro.serving import ServingCluster, poisson_stream

        images, labels = sample_pool
        largest = float(stepping_network.subnet_macs(stepping_network.num_subnets - 1))
        spec = ServingSpec(
            backend="stepping", trace="constant", trace_rate=largest / 0.5
        )
        cluster = ServingCluster.from_spec(
            ClusterSpec(nodes=(spec, spec)), stepping_network
        )
        report = cluster.serve(
            poisson_stream(images, labels, rate=4.0, num_requests=6, batch_size=2, seed=0)
        )
        counters = report.metrics["counters"]
        # Coordinator counters exist as explicit zeros in every mode.
        assert {"migrations", "failovers", "degraded_admissions", "rejected", "lost"} <= set(
            counters
        )
        assert counters["failovers"] == 0

    def test_recovered_node_metrics_span_the_crash(self, chaos_run):
        """A node that crashes and recovers keeps one registry: its metrics
        count the work from both sides of the crash, matching its record."""
        _, report, _ = chaos_run
        spec = ClusterSpec.from_json(CHAOS_CONFIG)
        (crash,) = [event for event in spec.faults.events if event.kind == "crash"]
        names = [node.name for node in spec.nodes]
        recovered = report.node_reports[names.index(crash.node)]
        assert any(job.completion_time < crash.time for job in recovered.jobs)
        assert any(job.request.arrival_time > crash.recover_time for job in recovered.jobs)
        for node in report.node_reports:
            counters = node.metrics["counters"]
            occupancy = node.metrics["histograms"]["batch_occupancy"]
            assert counters["dispatches"] == occupancy["count"] == len(node.batch_sizes)
            assert occupancy["sum"] == sum(node.batch_sizes)
            assert occupancy["max"] == max(node.batch_sizes)
            assert counters["jobs_admitted"] == counters["jobs_finalized"] == node.num_jobs


# ----------------------------------------------------------------------
# Serving-layer logging
# ----------------------------------------------------------------------
class TestServingLogging:
    def test_env_knob_selects_level(self, monkeypatch):
        from repro.utils.logging import get_logger

        monkeypatch.setenv("REPRO_LOG_LEVEL", "ERROR")
        # Configuration is once per name: use a fresh one to see the env.
        logger = get_logger("repro.test-observe-env-knob")
        assert logger.level == logging.ERROR

    def test_numeric_level_accepted(self, monkeypatch):
        from repro.utils.logging import get_logger

        monkeypatch.setenv("REPRO_LOG_LEVEL", "10")
        assert get_logger("repro.test-observe-env-numeric").level == logging.DEBUG

    def test_serving_warnings_use_shared_logger(self, chaos_events, caplog):
        """The chaos run above logged through `repro.serving`; re-run one
        crash scenario and capture it."""
        logger = logging.getLogger("repro.serving")
        spec = ClusterSpec.from_json(CHAOS_CONFIG)
        with caplog.at_level(logging.WARNING, logger="repro.serving"):
            logger.propagate = True
            try:
                serve(None, spec)
            finally:
                logger.propagate = False
        messages = [record.getMessage() for record in caplog.records]
        assert any("crashed" in message for message in messages)
        assert any("degraded request" in message for message in messages)
