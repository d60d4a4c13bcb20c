"""Tests for trace analytics (`repro.serving.analyze`).

The headline contract is the ISSUE's acceptance criterion: the latency
decomposition is *complete and exact* — for every finalized request on a
traced run, the six phase durations sum to ``finish - arrival`` — and it
holds across batched, continuous, memory-bounded and faulty fleets, not
just the happy path.
"""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.serving import (
    ClusterSpec,
    ObservabilitySpec,
    ServingCluster,
    SLOScorecard,
    SLOSpec,
    PHASES,
    critical_path,
    decompose_latency,
    decomposition_summary,
    evaluate_slo,
    utilization_timeline,
)
from repro.serving.analyze import _intersect, _measure, _merge, _subtract
from repro.utils.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "configs"

#: The fleet flavors of the exactness property test: request coalescing,
#: mid-wave refill, bounded memory with recompute-on-resume, and chaos
#: (crashes, retries, partitions, degrading admission).
FLEET_CONFIGS = (
    "cluster_batched.json",
    "cluster_continuous.json",
    "cluster_memory.json",
    "cluster_faults.json",
)


def traced_run(config_name):
    spec = ClusterSpec.from_json(CONFIG_DIR / config_name)
    recorder = ObservabilitySpec(enabled=True).build()
    cluster = ServingCluster.from_spec(spec)
    try:
        report = cluster.serve(recorder=recorder)
    finally:
        recorder.close()
    return report, recorder.events


# ----------------------------------------------------------------------
# Interval arithmetic (the decomposition's foundation)
# ----------------------------------------------------------------------
class TestIntervalHelpers:
    def test_merge_unions_overlaps(self):
        assert _merge([(0, 2), (1, 3), (5, 6)]) == [(0, 3), (5, 6)]

    def test_merge_drops_empty(self):
        assert _merge([(1, 1), (2, 1)]) == []

    def test_subtract_splits(self):
        assert _subtract([(0, 10)], [(2, 3), (5, 7)]) == [(0, 2), (3, 5), (7, 10)]

    def test_subtract_disjoint_is_identity(self):
        assert _subtract([(0, 1)], [(2, 3)]) == [(0, 1)]

    def test_intersect(self):
        assert _intersect([(0, 5)], [(1, 2), (4, 9)]) == [(1, 2), (4, 5)]

    def test_measure_counts_overlap_once(self):
        assert _measure([(0, 2), (1, 3)]) == 3.0

    def test_partition_identity(self):
        # subtract + intersect partition the original measure exactly.
        span, holes = [(0.0, 10.0)], [(1.5, 2.5), (4.0, 7.0)]
        kept = _measure(_subtract(span, holes))
        removed = _measure(_intersect(span, holes))
        assert kept + removed == pytest.approx(10.0)


# ----------------------------------------------------------------------
# The exactness property
# ----------------------------------------------------------------------
class TestDecompositionExactness:
    @pytest.mark.parametrize("config", FLEET_CONFIGS)
    def test_phases_sum_to_residence_for_every_request(self, config):
        report, events = traced_run(config)
        decompositions = decompose_latency(events)
        finalized = {
            event["request_id"] for event in events if event["type"] == "finalize"
        }
        assert len(decompositions) == len(finalized) > 0
        for decomposition in decompositions:
            total = sum(decomposition.phases.values())
            assert total == pytest.approx(decomposition.residence, rel=1e-9, abs=1e-9), (
                f"request {decomposition.request_id}: phases {decomposition.phases} "
                f"sum to {total}, residence {decomposition.residence}"
            )
            for phase, value in decomposition.phases.items():
                assert value >= -1e-9, (
                    f"request {decomposition.request_id}: phase {phase} negative ({value})"
                )
            assert set(decomposition.phases) == set(PHASES)

    @pytest.mark.parametrize("config", FLEET_CONFIGS)
    def test_rejected_requests_are_not_decomposed(self, config):
        _, events = traced_run(config)
        rejected = {e["request_id"] for e in events if e["type"] == "reject"}
        decomposed = {d.request_id for d in decompose_latency(events)}
        assert rejected.isdisjoint(decomposed)

    def test_chaos_run_attributes_backoff_and_hold(self):
        _, events = traced_run("cluster_faults.json")
        summary = decomposition_summary(decompose_latency(events))
        # Transient faults trigger retries; the crash window shows up as
        # time held off any serving node.
        assert summary["phase_seconds"]["retry_backoff"] > 0.0
        assert summary["phase_seconds"]["partition_hold"] > 0.0

    def test_memory_bounded_run_attributes_replay_recompute(self):
        _, events = traced_run("cluster_memory.json")
        summary = decomposition_summary(decompose_latency(events))
        # Evicted activations are recomputed on resume; that share of
        # compute must be carved out as replay.
        assert summary["phase_seconds"]["replay_recompute"] > 0.0

    def test_empty_events_decompose_to_nothing(self):
        assert decompose_latency([]) == []


# ----------------------------------------------------------------------
# Synthetic traces with known answers
# ----------------------------------------------------------------------
def _event(seq, type_, time, **payload):
    return dict(payload, seq=seq, type=type_, time=time)


class TestDecompositionSynthetic:
    def test_coalesce_and_queue_split(self):
        events = [
            _event(0, "arrive", 0.0, node="n0", request_id=1, arrival=0.0, deadline=None),
            _event(1, "enqueue", 0.0, node="n0", request_id=1, queue_depth=1),
            _event(2, "coalesce_wait", 0.1, node="n0", wait_until=0.3, pending=1, reason="window"),
            _event(3, "step", 0.5, node="n0", request_id=1, wave=0, subnet=0, finish=0.8,
                   macs_charged=100.0, macs_reused=0.0, macs_recomputed=0.0),
            _event(4, "finalize", 0.8, node="n0", request_id=1, status="completed",
                   reason=None, timed_out=False, queue_depth=0),
        ]
        [d] = decompose_latency(events)
        assert d.phases["compute"] == pytest.approx(0.3)
        assert d.phases["coalesce_wait"] == pytest.approx(0.2)
        assert d.phases["queue_wait"] == pytest.approx(0.3)
        assert d.phases["replay_recompute"] == 0.0
        assert d.phases["retry_backoff"] == 0.0
        assert d.phases["partition_hold"] == 0.0
        assert sum(d.phases.values()) == pytest.approx(d.residence)

    def test_replay_share_follows_mac_ratio(self):
        events = [
            _event(0, "arrive", 0.0, node="n0", request_id=1, arrival=0.0, deadline=None),
            _event(1, "enqueue", 0.0, node="n0", request_id=1, queue_depth=1),
            _event(2, "step", 0.0, node="n0", request_id=1, wave=0, subnet=0, finish=1.0,
                   macs_charged=100.0, macs_reused=0.0, macs_recomputed=25.0),
            _event(3, "finalize", 1.0, node="n0", request_id=1, status="completed",
                   reason=None, timed_out=False, queue_depth=0),
        ]
        [d] = decompose_latency(events)
        assert d.phases["replay_recompute"] == pytest.approx(0.25)
        assert d.phases["compute"] == pytest.approx(0.75)

    def test_retry_backoff_window(self):
        events = [
            _event(0, "arrive", 0.0, node="n0", request_id=7, arrival=0.0, deadline=None),
            _event(1, "enqueue", 0.0, node="n0", request_id=7, queue_depth=1),
            _event(2, "retry", 0.2, node="n0", request_id=7, attempt=1, retry_at=0.5),
            _event(3, "step", 0.5, node="n0", request_id=7, wave=0, subnet=0, finish=0.9,
                   macs_charged=10.0, macs_reused=0.0, macs_recomputed=0.0),
            _event(4, "finalize", 0.9, node="n0", request_id=7, status="completed",
                   reason=None, timed_out=False, queue_depth=0),
        ]
        [d] = decompose_latency(events)
        assert d.phases["retry_backoff"] == pytest.approx(0.3)
        assert d.phases["compute"] == pytest.approx(0.4)
        assert d.phases["queue_wait"] == pytest.approx(0.2)

    def test_late_admission_is_partition_hold(self):
        events = [
            _event(0, "arrive", 1.0, node="n0", request_id=2, arrival=0.0, deadline=None),
            _event(1, "enqueue", 1.0, node="n0", request_id=2, queue_depth=1),
            _event(2, "step", 1.0, node="n0", request_id=2, wave=0, subnet=0, finish=1.5,
                   macs_charged=10.0, macs_reused=0.0, macs_recomputed=0.0),
            _event(3, "finalize", 1.5, node="n0", request_id=2, status="completed",
                   reason=None, timed_out=False, queue_depth=0),
        ]
        [d] = decompose_latency(events)
        assert d.phases["partition_hold"] == pytest.approx(1.0)
        assert d.phases["compute"] == pytest.approx(0.5)

    def test_lost_request_is_pure_partition_hold(self):
        # Coordinator finalize with no arrive: the request never reached
        # any node; its whole residence is partition hold.
        events = [
            _event(0, "finalize", 0.4, request_id=9, status="lost",
                   reason="no serving node ever reachable", arrival=0.1),
        ]
        [d] = decompose_latency(events)
        assert d.status == "lost"
        assert d.phases["partition_hold"] == pytest.approx(0.3)
        assert sum(d.phases.values()) == pytest.approx(d.residence)

    def test_batch_members_share_interval_without_double_count(self):
        # Two catch-up steps of one request over the identical dispatch
        # interval: the union counts the span once.
        events = [
            _event(0, "arrive", 0.0, node="n0", request_id=1, arrival=0.0, deadline=None),
            _event(1, "enqueue", 0.0, node="n0", request_id=1, queue_depth=1),
            _event(2, "step", 0.0, node="n0", request_id=1, wave=0, subnet=0, finish=0.6,
                   macs_charged=50.0, macs_reused=0.0, macs_recomputed=0.0),
            _event(3, "step", 0.0, node="n0", request_id=1, wave=0, subnet=1, finish=0.6,
                   macs_charged=50.0, macs_reused=0.0, macs_recomputed=0.0),
            _event(4, "finalize", 0.6, node="n0", request_id=1, status="completed",
                   reason=None, timed_out=False, queue_depth=0),
        ]
        [d] = decompose_latency(events)
        assert d.phases["compute"] == pytest.approx(0.6)
        assert d.phases["queue_wait"] == pytest.approx(0.0)
        assert d.num_steps == 2

    def test_to_dict_is_json_clean(self):
        _, events = traced_run("cluster_faults.json")
        payload = [d.to_dict() for d in decompose_latency(events)]
        json.dumps(payload)
        assert all("intervals" not in entry for entry in payload)


# ----------------------------------------------------------------------
# Timelines and the critical path
# ----------------------------------------------------------------------
class TestUtilizationTimeline:
    def test_node_accounting_partitions_the_span(self):
        _, events = traced_run("cluster_faults.json")
        timeline = utilization_timeline(events)
        assert timeline["fleet"]["num_nodes"] >= 2
        for name, node in timeline["nodes"].items():
            parts = node["busy_seconds"] + node["idle_seconds"] + node["down_seconds"]
            assert parts == pytest.approx(node["span_seconds"], rel=1e-9, abs=1e-9), name
            assert 0.0 <= node["utilization"] <= 1.0
            assert node["starved_seconds"] <= node["idle_seconds"] + 1e-9

    def test_crash_without_recover_counts_down_to_span_end(self):
        events = [
            _event(0, "enqueue", 0.0, node="n0", request_id=1, queue_depth=1),
            _event(1, "step", 0.0, node="n0", request_id=1, wave=0, subnet=0, finish=0.5,
                   macs_charged=1.0, macs_reused=0.0, macs_recomputed=0.0),
            _event(2, "crash", 0.5, node="n0", unstarted=0, interrupted=0),
            _event(3, "finalize", 1.0, node="n0", request_id=1, status="lost",
                   reason="gone", timed_out=False, queue_depth=0),
        ]
        timeline = utilization_timeline(events)
        node = timeline["nodes"]["n0"]
        assert node["down_seconds"] == pytest.approx(0.5)
        assert node["busy_seconds"] == pytest.approx(0.5)
        assert node["idle_seconds"] == pytest.approx(0.0)


class TestCriticalPath:
    def test_segments_cover_the_whole_residence(self):
        _, events = traced_run("cluster_faults.json")
        path = critical_path(events)
        assert path["request_id"] is not None
        covered = sum(segment["duration"] for segment in path["segments"])
        assert covered == pytest.approx(path["residence"], rel=1e-9, abs=1e-9)
        starts = [segment["start"] for segment in path["segments"]]
        assert starts == sorted(starts)

    def test_p99_pick_is_a_tail_request(self):
        _, events = traced_run("cluster_faults.json")
        decompositions = decompose_latency(events)
        residences = sorted(d.residence for d in decompositions)
        path = critical_path(events, rank=99.0)
        # The chosen request sits in the top tail of the distribution.
        assert path["residence"] >= residences[int(0.9 * len(residences))]

    def test_explicit_request_and_unknown_request(self):
        _, events = traced_run("cluster_batched.json")
        some_id = decompose_latency(events)[0].request_id
        assert critical_path(events, request_id=some_id)["request_id"] == some_id
        with pytest.raises(KeyError):
            critical_path(events, request_id=10**9)

    def test_empty_trace(self):
        path = critical_path([])
        assert path["request_id"] is None
        assert path["segments"] == []


# ----------------------------------------------------------------------
# SLO specs and scorecards
# ----------------------------------------------------------------------
class TestSLOSpec:
    def test_round_trip(self):
        slo = SLOSpec(
            name="gold",
            max_p95_latency=0.1,
            min_deadline_hit_rate=0.9,
            max_loss_rate=0.05,
            min_delivered_levels=2.0,
        )
        recovered = SLOSpec.from_dict(json.loads(json.dumps(slo.to_dict())))
        assert recovered == slo

    def test_unconfigured_targets_are_omitted(self):
        assert SLOSpec(max_p99_latency=1.0).targets() == {"max_p99_latency": 1.0}

    def test_validation(self):
        with pytest.raises(ValueError, match="finite"):
            SLOSpec(max_p95_latency=-1.0)
        with pytest.raises(ValueError, match="finite"):
            SLOSpec(min_throughput_rps=float("inf"))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SLOSpec(min_deadline_hit_rate=1.5)
        with pytest.raises(ValueError, match="number"):
            SLOSpec(max_p50_latency="fast")
        with pytest.raises(ValueError, match="unknown"):
            SLOSpec.from_dict({"max_p42_latency": 1.0})

    def test_evaluate_against_report_object_and_mapping(self):
        report, events = traced_run("cluster_faults.json")
        slo = SLOSpec(max_p99_latency=10.0, min_deadline_hit_rate=0.01, max_loss_rate=0.99)
        for target in (report, report.as_dict()):
            card = slo.evaluate(target)
            assert isinstance(card, SLOScorecard)
            assert card.ok
            assert card.failed == []
            assert {row["objective"] for row in card.objectives} == set(slo.targets())
        with_events = evaluate_slo(slo, report, events=events)
        assert with_events.decomposition is not None
        assert with_events.decomposition["num_requests"] > 0

    def test_failing_objective_reports_negative_margin(self):
        report = {"num_jobs": 10, "completed": 10, "p95_latency": 0.5,
                  "deadline_miss_rate": 0.4, "throughput_rps": 100.0}
        card = evaluate_slo(SLOSpec(max_p95_latency=0.1, min_deadline_hit_rate=0.9), report)
        assert not card.ok
        assert set(card.failed) == {"max_p95_latency", "min_deadline_hit_rate"}
        by_name = {row["objective"]: row for row in card.objectives}
        assert by_name["max_p95_latency"]["margin"] == pytest.approx(-0.4)
        assert by_name["min_deadline_hit_rate"]["margin"] == pytest.approx(-0.3)

    def test_unmeasurable_objective_is_skipped_not_failed(self):
        card = evaluate_slo(SLOSpec(min_delivered_levels=2.0), {"num_jobs": 5})
        assert card.ok
        assert card.skipped == 1

    def test_nan_delivered_levels_is_skipped_on_mapping_and_object(self):
        mapping = {"num_jobs": 5, "mean_delivered_levels": float("nan")}
        slo = SLOSpec(min_delivered_levels=2.0)
        for report in (mapping, SimpleNamespace(**mapping)):
            card = evaluate_slo(slo, report)
            assert card.ok
            assert card.skipped == 1
            assert card.summary["mean_delivered_levels"] is None

    def test_scorecard_to_dict_is_strict_json(self):
        card = evaluate_slo(SLOSpec(max_p95_latency=1.0), {"num_jobs": 0, "p95_latency": float("nan")})
        text = json.dumps(card.to_dict(), allow_nan=False)
        assert "NaN" not in text


class TestClusterSpecCarriage:
    def test_slo_and_publish_interval_round_trip(self):
        spec = ClusterSpec.from_json(CONFIG_DIR / "cluster_sweep.json")
        assert isinstance(spec.slo, SLOSpec)
        payload = json.loads(json.dumps(spec.to_dict()))
        recovered = ClusterSpec.from_dict(payload)
        assert recovered.slo == spec.slo
        assert recovered.publish_interval == spec.publish_interval
        assert recovered.to_dict() == spec.to_dict()

    def test_slo_dict_is_coerced(self):
        base = ClusterSpec.from_json(CONFIG_DIR / "cluster_sweep.json")
        data = base.to_dict()
        data["slo"] = {"max_p99_latency": 0.5}
        assert ClusterSpec.from_dict(data).slo == SLOSpec(max_p99_latency=0.5)

    def test_invalid_publish_interval_rejected(self):
        base = ClusterSpec.from_json(CONFIG_DIR / "cluster_sweep.json")
        data = base.to_dict()
        for bad in (-0.1, float("nan"), "soon", True):
            data["publish_interval"] = bad
            with pytest.raises(ConfigError, match="publish_interval"):
                ClusterSpec.from_dict(data)

    def test_invalid_slo_rejected_as_config_error(self):
        base = ClusterSpec.from_json(CONFIG_DIR / "cluster_sweep.json")
        data = base.to_dict()
        data["slo"] = {"max_p95_latency": -1.0}
        with pytest.raises(ConfigError):
            ClusterSpec.from_dict(data)
