"""Rebalancing tests: work-stealing, batch sharding and load-signal fixes.

The headline invariant extends the chaos suite's to *proactive* moves:
for any steal schedule, every request completes with logits
bit-identical to solo incremental inference over its executed level
sequence — stealing relocates requests (and, opted in, subnet-level
checkpoints over the bit-exact replay path), never partial numerics —
and the recompute MACs a stolen in-flight job pays are charged exactly.
Alongside it, the fluid-model retract: a node's analytic load signals
must match a fresh model that never saw departed work.
"""

import json
import math

import numpy as np
import pytest

from repro.core.incremental import IncrementalInference
from repro.runtime.platform import ResourcePhase, ResourceTrace
from repro.runtime.policies import ConfidencePolicy
from repro.serving import (
    ROUTERS,
    ClusterSpec,
    FaultSpec,
    NodeState,
    PartitionFault,
    PowerOfTwoChoicesRouter,
    RebalanceSpec,
    Request,
    ServingCluster,
    ServingEngine,
    SteppingBackend,
    gather_shard_logits,
    get_router,
    shard_requests,
    steal_plan,
)
from repro.serving.observe import ObservabilitySpec
from repro.serving.analyze import PHASES, decompose_latency
from repro.utils.errors import ConfigError


def _full_quality():
    return ConfidencePolicy(threshold=1.0, respect_deadline=False)


def _constant_trace(network, seconds_for_largest=0.4):
    largest = float(network.subnet_macs(network.num_subnets - 1))
    return ResourceTrace.constant(largest / seconds_for_largest, name="constant")


def _engine(network, scheduler="fifo", **kwargs):
    kwargs.setdefault("enforce_deadline", False)
    return ServingEngine(
        SteppingBackend(network, policy=_full_quality()),
        _constant_trace(network),
        scheduler,
        **kwargs,
    )


def _requests(images, count, gap=0.05, deadline=None, batch_size=1):
    return [
        Request(
            request_id=index,
            arrival_time=index * gap,
            inputs=np.stack(
                [images[(index + offset) % len(images)] for offset in range(batch_size)]
            ),
            deadline=None if deadline is None else index * gap + deadline,
        )
        for index in range(count)
    ]


def _oracle_steps(network, job):
    """Solo incremental inference over the job's executed level sequence."""
    oracle = IncrementalInference(network, dtype=np.float32)
    results = [oracle.run(job.request.inputs, subnet=job.steps[0].subnet)]
    for step in job.steps[1:]:
        results.append(oracle.step_to(step.subnet))
    return results


def _assert_jobs_bit_equal_to_oracle(network, jobs):
    for job in jobs:
        if job.status != "completed" or not job.steps:
            continue
        reference = _oracle_steps(network, job)
        for step, ref in zip(job.steps, reference):
            assert step.subnet == ref.subnet
            assert np.array_equal(step.logits, ref.logits)
        assert np.array_equal(job.final_logits, reference[-1].logits)


# ----------------------------------------------------------------------
# RebalanceSpec serialisation and validation
# ----------------------------------------------------------------------
class TestRebalanceSpec:
    def test_json_round_trip(self):
        spec = RebalanceSpec(
            enabled=True,
            interval=0.05,
            imbalance_ratio=1.5,
            starvation_depth=1,
            max_steals=2,
            steal_in_flight=True,
            shard_max_batch=4,
        )
        payload = json.loads(json.dumps(spec.to_dict()))
        assert RebalanceSpec.from_dict(payload) == spec
        assert RebalanceSpec.from_json(json.dumps(spec.to_dict())) == spec

    def test_defaults_are_disabled(self):
        spec = RebalanceSpec()
        assert not spec.enabled
        assert spec.shard_max_batch is None

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"enabled": 1}, "enabled must be a bool"),
            ({"interval": -0.1}, "interval"),
            ({"interval": float("inf")}, "interval"),
            ({"imbalance_ratio": 0.5}, "imbalance_ratio"),
            ({"starvation_depth": -1}, "starvation_depth"),
            ({"starvation_depth": True}, "starvation_depth"),
            ({"max_steals": 0}, "max_steals"),
            ({"steal_in_flight": "yes"}, "steal_in_flight"),
            ({"shard_max_batch": 0}, "shard_max_batch"),
        ],
    )
    def test_invalid_values_rejected(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            RebalanceSpec(**kwargs)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown RebalanceSpec keys"):
            RebalanceSpec.from_dict({"enabled": True, "aggression": 11})

    def test_cluster_spec_round_trip_and_coercion(self):
        data = {
            "model": {"name": "tiny-cnn", "num_subnets": 4},
            "nodes": [{"platform": "mobile-soc"}, {"platform": "mobile-soc"}],
            "rebalance": {"enabled": True, "interval": 0.1, "max_steals": 2},
        }
        spec = ClusterSpec.from_dict(data)
        assert isinstance(spec.rebalance, RebalanceSpec)
        assert spec.rebalance.interval == pytest.approx(0.1)
        round_tripped = ClusterSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert round_tripped == spec
        # Absent stays absent (and serialises as null).
        plain = ClusterSpec.from_dict({k: v for k, v in data.items() if k != "rebalance"})
        assert plain.rebalance is None
        assert plain.to_dict()["rebalance"] is None

    def test_enabled_without_any_interval_rejected(self, stepping_network):
        engines = [_engine(stepping_network) for _ in range(2)]
        with pytest.raises(ConfigError, match="positive rebalance.interval"):
            ServingCluster(engines, rebalance={"enabled": True, "interval": 0.0})
        # A positive cluster publish interval is an acceptable fallback tick.
        ServingCluster(
            [_engine(stepping_network) for _ in range(2)],
            publish_interval=0.05,
            rebalance={"enabled": True, "interval": 0.0},
        )


# ----------------------------------------------------------------------
# The pure trigger
# ----------------------------------------------------------------------
class TestStealPlan:
    SPEC = RebalanceSpec(enabled=True, interval=0.1, imbalance_ratio=2.0, max_steals=4)

    def test_balanced_fleet_is_left_alone(self):
        assert steal_plan([3, 3, 3], self.SPEC) is None
        assert steal_plan([4, 3], self.SPEC) is None  # gap below 2
        assert steal_plan([5], self.SPEC) is None  # nothing to steal from

    def test_ratio_trigger_names_deepest_victim(self):
        assert steal_plan([10, 1, 1], self.SPEC) == (0, 4)
        assert steal_plan([1, 10, 1], self.SPEC) == (1, 4)

    def test_count_never_exceeds_half_the_gap(self):
        assert steal_plan([5, 1], self.SPEC) == (0, 2)
        assert steal_plan([4, 1], self.SPEC) == (0, 1)
        capped = RebalanceSpec(enabled=True, interval=0.1, max_steals=1)
        assert steal_plan([10, 0], capped) == (0, 1)

    def test_ratio_floors_shallow_depth_at_one(self):
        # An idle node must not make every imbalance infinite-ratio;
        # depth 2 vs 0 still fires because 2 >= 2.0 * max(1, 0).
        assert steal_plan([2, 0], self.SPEC) == (0, 1)

    def test_starvation_trigger_fires_below_the_ratio(self):
        spec = RebalanceSpec(
            enabled=True, interval=0.1, imbalance_ratio=10.0, starvation_depth=1
        )
        assert steal_plan([4, 1], spec) == (0, 1)
        # Above the watermark the starved trigger stays quiet.
        assert steal_plan([4, 2], spec) is None

    def test_depth_ties_break_on_position(self):
        assert steal_plan([6, 6, 0], self.SPEC) == (0, 3)


# ----------------------------------------------------------------------
# Power-of-two-choices routing
# ----------------------------------------------------------------------
class TestPowerOfTwoChoices:
    def test_registered_under_both_names(self):
        assert ROUTERS["power-of-two-choices"] is PowerOfTwoChoicesRouter
        assert ROUTERS["p2c"] is PowerOfTwoChoicesRouter
        assert isinstance(get_router("p2c"), PowerOfTwoChoicesRouter)
        assert PowerOfTwoChoicesRouter.needs_live_state

    def test_cluster_spec_accepts_the_name(self):
        spec = ClusterSpec.from_dict(
            {
                "model": {"name": "tiny-cnn", "num_subnets": 4},
                "nodes": [{"platform": "mobile-soc"}, {"platform": "mobile-soc"}],
                "router": "power-of-two-choices",
            }
        )
        assert spec.router == "power-of-two-choices"

    def _nodes(self, network, depths):
        """Nodes whose attached runs hold ``depths[i]`` queued jobs."""
        nodes = []
        for index, depth in enumerate(depths):
            engine = _engine(network)
            node = NodeState(index, f"n{index}", engine)
            node.attach_run(engine.open_run(node=node.name))
            for i in range(depth):
                node.run.push(
                    Request(request_id=index * 100 + i, arrival_time=0.0,
                            inputs=np.zeros((1, 3, 12, 12), dtype=np.float32))
                )
            # Admits every job and runs the first one's first step.
            node.run.run_until(0.0)
            assert node.run.queue_depth == depth
            nodes.append(node)
        return nodes

    def test_always_avoids_the_lone_deep_node(self, stepping_network):
        nodes = self._nodes(stepping_network, [5, 0, 0])
        # The live signals read the attached run: one job left the entry edge.
        assert [node.published_depth(0.0) for node in nodes] == [5, 0, 0]
        assert [node.batch_potential(0.0) for node in nodes] == [4, 0, 0]
        assert all(node.batch_potential(0.0) == node.run.entry_edge_depth for node in nodes)
        router = PowerOfTwoChoicesRouter(seed=0)
        router.reset(nodes)
        request = Request(request_id=999, arrival_time=0.0,
                          inputs=np.zeros((1, 3, 12, 12), dtype=np.float32))
        # Every sampled pair contains at least one empty node, which
        # always wins the depth comparison against depth 5.
        for _ in range(32):
            assert router.route(request, nodes, now=0.0).index != 0

    def test_seeded_sampling_is_reproducible_across_resets(self, stepping_network):
        nodes = self._nodes(stepping_network, [2, 2, 2, 2])
        request = Request(request_id=999, arrival_time=0.0,
                          inputs=np.zeros((1, 3, 12, 12), dtype=np.float32))
        router = PowerOfTwoChoicesRouter(seed=7)
        router.reset(nodes)
        first = [router.route(request, nodes, now=0.0).index for _ in range(16)]
        router.reset(nodes)
        second = [router.route(request, nodes, now=0.0).index for _ in range(16)]
        assert first == second
        assert len(set(first)) > 1  # it genuinely samples

    def test_single_node_short_circuits(self, stepping_network):
        nodes = self._nodes(stepping_network, [3])
        router = PowerOfTwoChoicesRouter()
        router.reset(nodes)
        request = Request(request_id=999, arrival_time=0.0,
                          inputs=np.zeros((1, 3, 12, 12), dtype=np.float32))
        assert router.route(request, nodes, now=0.0).index == 0


# ----------------------------------------------------------------------
# Fluid-model load signals: retract
# ----------------------------------------------------------------------
def _full_rebuild_retract(node, request_id):
    """Reference ``NodeState.retract``: replay every surviving placement.

    Forgets the last matching placement, clears the ledgers and charges
    the remaining placements again from an idle node — by construction
    a fresh model that never saw the departed request.  Production
    replays only the placements after the departed one; the two must
    agree bit for bit.
    """
    for position in range(len(node.assigned) - 1, -1, -1):
        if node.assigned[position].request_id == request_id:
            del node.assigned[position]
            break
    else:
        return False
    remaining = node.assigned
    node.assigned = []
    node._completions = []
    node._busy_until = 0.0
    for request in remaining:
        node.assigned.append(request)
        node._charge(request)
    return True


def _stalling_trace(network, stall_at=1.2):
    """Full speed until ``stall_at``, then zero throughput forever: work
    that cannot finish before the stall completes at ``inf``."""
    largest = float(network.subnet_macs(network.num_subnets - 1))
    return ResourceTrace(
        [ResourcePhase(0.0, largest / 0.4), ResourcePhase(stall_at, 0.0)], name="stalling"
    )


def _ledger_ops(seed, length=48, id_pool=6):
    """A seeded assign/retract sequence for the fluid-model ledgers.

    A small id pool makes failover-style duplicate placements common;
    arrivals are unordered, as re-placed requests keep their original
    arrival time.  Retracts name the id at the first, middle or last
    live position, or an id no placement carries.
    """
    rng = np.random.default_rng(seed)
    live = []
    ops = []
    for _ in range(length):
        roll = rng.random()
        if live and roll < 0.45:
            position = (0, len(live) // 2, len(live) - 1)[rng.integers(3)]
            rid = live[position]
            del live[len(live) - 1 - live[::-1].index(rid)]
            ops.append(("retract", rid))
        elif roll < 0.5:
            ops.append(("retract", id_pool + int(rng.integers(3))))
        else:
            rid = int(rng.integers(id_pool))
            live.append(rid)
            ops.append(("assign", rid, float(rng.uniform(0.0, 2.0)), int(rng.integers(1, 4))))
    return ops


def _hex(values):
    return [float(value).hex() for value in values]


def _assert_ledgers_bit_equal(node, oracle):
    # The same request objects in the same order.
    assert [id(r) for r in node.assigned] == [id(r) for r in oracle.assigned]
    assert _hex(node._completions) == _hex(oracle._completions)
    assert float(node._busy_until).hex() == float(oracle._busy_until).hex()
    for now in (-0.1, 0.0, 0.3, 0.9, 1.5, 2.5, 10.0):
        assert node.queue_length(now) == oracle.queue_length(now)


class TestFluidModelRetract:
    def _request(self, rid, arrival=0.0):
        return Request(request_id=rid, arrival_time=arrival,
                       inputs=np.zeros((1, 3, 12, 12), dtype=np.float32))

    def test_retract_matches_fresh_model_oracle(self, stepping_network):
        node = NodeState(0, "a", _engine(stepping_network))
        for rid in range(5):
            node.assign(self._request(rid, arrival=rid * 0.1))
        assert node.retract(2)
        assert node.retract(4)

        oracle = NodeState(0, "a", _engine(stepping_network))
        for rid in (0, 1, 3):
            oracle.assign(self._request(rid, arrival=rid * 0.1))

        assert [r.request_id for r in node.assigned] == [0, 1, 3]
        assert node._completions == oracle._completions
        assert node._busy_until == oracle._busy_until
        for now in (0.0, 0.15, 0.5, 2.0, 10.0):
            assert node.queue_length(now) == oracle.queue_length(now)
            assert node.predicted_finish(1e6, now) == oracle.predicted_finish(1e6, now)

    def test_retract_removes_last_duplicate_placement(self, stepping_network):
        # A request re-placed after failover can visit the same node
        # twice; only its latest placement is forgotten.
        node = NodeState(0, "a", _engine(stepping_network))
        for rid in (0, 1, 0):
            node.assign(self._request(rid))
        assert node.retract(0)
        assert [r.request_id for r in node.assigned] == [0, 1]
        assert not node.retract(7)  # unknown id reports, not raises
        assert node.queue_length(0.0) == 2

    @pytest.mark.parametrize("trace", ["constant", "stalling"])
    @pytest.mark.parametrize("seed", range(6))
    def test_suffix_replay_matches_full_rebuild_oracle(self, stepping_network, seed, trace):
        make = _constant_trace if trace == "constant" else _stalling_trace
        engine = ServingEngine(
            SteppingBackend(stepping_network, policy=_full_quality()),
            make(stepping_network),
            "fifo",
            enforce_deadline=False,
        )
        node = NodeState(0, "a", engine)
        oracle = NodeState(0, "a", engine)
        charged = []
        charge = node._charge

        def counting_charge(request):
            charged.append(request.request_id)
            charge(request)

        node._charge = counting_charge

        cases = set()
        for op in _ledger_ops(seed):
            if op[0] == "assign":
                _, rid, arrival, batch = op
                request = Request(
                    request_id=rid,
                    arrival_time=arrival,
                    inputs=np.zeros((batch, 3, 12, 12), dtype=np.float32),
                )
                node.assign(request)
                oracle.assign(request)
            else:
                rid = op[1]
                ids = [r.request_id for r in node.assigned]
                found = rid in ids
                position = len(ids) - 1 - ids[::-1].index(rid) if found else None
                charged.clear()
                assert node.retract(rid) is found
                assert _full_rebuild_retract(oracle, rid) is found
                if not found:
                    cases.add("unknown")
                    assert charged == []
                else:
                    if ids.count(rid) > 1:
                        cases.add("duplicate")
                    cases.add(
                        "first" if position == 0
                        else "last" if position == len(ids) - 1
                        else "middle"
                    )
                    # Only the later placements are re-charged, in order.
                    assert len(charged) == len(node.assigned) - position
                    assert charged == ids[position + 1 :]
            if math.isinf(oracle._busy_until):
                cases.add("inf")
            _assert_ledgers_bit_equal(node, oracle)
        assert {"unknown", "duplicate", "first", "middle", "last"} <= cases
        assert ("inf" in cases) == (trace == "stalling")

    def test_crash_frees_the_victims_fluid_signals(
        self, stepping_network, sample_pool
    ):
        """Post-crash, a recovered node's advertised load is fresh.

        Without retraction the fluid model keeps charging the crashed
        node for every migrated job, so analytic routing signals report
        a deep queue on a node that is actually empty.  The publish
        trace records the fluid depth each consult reads.
        """
        images, _ = sample_pool
        faults = FaultSpec(
            events=({"kind": "crash", "node": "n1", "time": 0.05,
                     "recover_time": 0.5},)
        )
        engines = [_engine(stepping_network) for _ in range(2)]
        cluster = ServingCluster(
            engines, router="least-loaded", names=["n0", "n1"], faults=faults
        )
        burst = _requests(images, count=6, gap=0.0)
        late = [
            Request(request_id=6 + i, arrival_time=0.6 + i * 0.05,
                    inputs=images[i][None])
            for i in range(2)
        ]
        recorder = ObservabilitySpec(enabled=True).build()
        try:
            report = cluster.serve(burst + late, recorder=recorder)
        finally:
            recorder.close()
        assert report.as_dict()["completed"] == 8
        assert report.migrations > 0
        # The first routing consult after recovery sees n1 with an
        # empty fluid model — the fresh-model oracle for a node whose
        # every pre-crash job departed.
        post = [
            e for e in recorder.events
            if e["type"] == "publish" and e.get("node") == "n1"
            and float(e["time"]) >= 0.5
        ]
        assert post
        assert post[0]["fluid_depth"] == 0


    def test_fleet_serve_matches_full_rebuild_oracle(
        self, stepping_network, sample_pool, monkeypatch
    ):
        """A chaos fleet serves bit-identically under either retract.

        Crash with recovery and in-flight steals retract placements from
        the middle of a node's ledger; the fluid-model router and degrade
        admission read the repaired signals, so any drift between suffix
        replay and the full rebuild would change placements.
        """
        images, _ = sample_pool
        ladder = float(stepping_network.subnet_macs(stepping_network.num_subnets - 1))
        budget = 2.5 * SteppingBackend(stepping_network).context_nbytes(1)
        soc = {"platform": "mobile-soc", "backend": "batched", "scheduler": "edf",
               "policy": "full-quality", "batch_policy": "same-level",
               "trace": "constant", "trace_rate": ladder / 4e-3}
        # Utility-per-MAC serves every waiting first step before any
        # refinement, so suspended contexts pile up against the budget.
        ecu = {"name": "ecu-c", "platform": "vehicle-ecu", "scheduler": "utility-per-mac",
               "policy": "greedy", "trace": "constant", "trace_rate": ladder / 2e-3,
               "memory_budget_bytes": budget, "eviction_policy": "lru"}
        spec = ClusterSpec.from_dict({
            "name": "retract-oracle",
            "router": "least-loaded",
            "admission": "degrade",
            "nodes": [dict(soc, name="soc-a"), dict(soc, name="soc-b"), ecu],
            "faults": {"events": [
                {"kind": "partition", "node": "ecu-c", "time": 0.0, "duration": 0.01},
                {"kind": "crash", "node": "soc-b", "time": 0.01, "recover_time": 0.025},
                {"kind": "crash", "node": "soc-a", "time": 0.03, "recover_time": 0.045},
            ]},
            "rebalance": {"enabled": True, "interval": 0.002, "imbalance_ratio": 1.5,
                          "max_steals": 4, "steal_in_flight": True},
            "observe": {"enabled": True},
            "streams": [
                {"kind": "poisson", "params": {"rate": 3000.0, "num_requests": 40,
                                               "relative_deadline": 0.05, "seed": 0}},
                {"kind": "bursty", "params": {"num_bursts": 3, "burst_size": 8,
                                              "mean_gap": 0.012,
                                              "relative_deadline": 0.05, "seed": 1}},
            ],
        })
        requests = spec.build_requests(images)
        production = NodeState.retract
        suffixes = []

        def measured_retract(node, request_id):
            ids = [r.request_id for r in node.assigned]
            if request_id in ids:
                suffixes.append(ids[::-1].index(request_id))
            return production(node, request_id)

        def serve(retract):
            monkeypatch.setattr(NodeState, "retract", retract)
            recorder = spec.observe.build()
            try:
                report = ServingCluster.from_spec(spec, stepping_network).serve(
                    requests, recorder=recorder
                )
            finally:
                recorder.close()
            return report, recorder.events

        report, events = serve(measured_retract)
        oracle_report, oracle_events = serve(_full_rebuild_retract)

        # The workload exercises what the oracle guards.
        assert max(suffixes) > 0  # a retract with later placements to replay
        assert report.migrations + report.failovers > 0
        assert report.inflight_steals > 0
        assert report.degraded_admissions > 0
        assert sum(n.aux_evictions + n.cache_evictions for n in report.node_reports) > 0

        assert report.to_dict() == oracle_report.to_dict()
        assert len(report.jobs) == len(oracle_report.jobs)
        for job, ref in zip(report.jobs, oracle_report.jobs):
            assert job.request.request_id == ref.request.request_id
            if ref.final_logits is None:
                assert job.final_logits is None
            else:
                assert np.array_equal(job.final_logits, ref.final_logits)
        assert events == oracle_events


# ----------------------------------------------------------------------
# Engine-level steal
# ----------------------------------------------------------------------
class TestServingRunSteal:
    def test_steal_moves_newest_unstarted_jobs_bit_exact(
        self, stepping_network, sample_pool
    ):
        images, _ = sample_pool
        requests = _requests(images, count=4, gap=0.0)
        baseline = _engine(stepping_network).serve(_requests(images, count=4, gap=0.0))

        victim_engine = _engine(stepping_network)
        victim = victim_engine.open_run(node="victim")
        for request in requests:
            victim.push(request)
        victim.run_until(0.1)  # the first job starts; three still queued
        work = victim.steal(2, 0.1)
        assert [r.request_id for r in work.unstarted] == [3, 2]  # newest first
        assert work.interrupted == []

        thief_engine = _engine(stepping_network)
        thief = thief_engine.open_run(node="thief")
        for request in sorted(work.unstarted, key=lambda r: r.request_id):
            thief.push(request, not_before=0.1)
        victim_report = victim.finish()
        thief_report = thief.finish()
        assert sorted(j.request.request_id for j in victim_report.jobs) == [0, 1]
        assert sorted(j.request.request_id for j in thief_report.jobs) == [2, 3]
        by_id = {j.request.request_id: j for j in baseline.jobs}
        for job in list(victim_report.jobs) + list(thief_report.jobs):
            assert np.array_equal(
                job.final_logits, by_id[job.request.request_id].final_logits
            )

    def test_steal_zero_or_from_crashed_run(self, stepping_network, sample_pool):
        images, _ = sample_pool
        run = _engine(stepping_network).open_run(node="n")
        run.push(_requests(images, count=1)[0])
        empty = run.steal(0, 0.0)
        assert empty.unstarted == [] and empty.interrupted == []
        run.crash(0.0)
        with pytest.raises(RuntimeError, match="already crashed"):
            run.steal(1, 0.0)


# ----------------------------------------------------------------------
# Cluster-level stealing: the fuzz grid
# ----------------------------------------------------------------------
def _steal_cluster(network, mode, rebalance, scheduler="fifo"):
    """A 3-node fleet under a one-hot-node skew: every burst arrival
    lands on n0 while n1/n2 sit partitioned, then the partitions heal
    and only the rebalance tick can move the backlog."""

    def engine():
        if mode in ("batched", "continuous"):
            return ServingEngine(
                SteppingBackend(network, policy=_full_quality()),
                _constant_trace(network),
                "batch-aware",
                batch_policy="same-level" if mode == "batched" else "continuous",
                enforce_deadline=False,
            )
        return _engine(network, scheduler=scheduler)

    faults = FaultSpec(
        events=(
            PartitionFault(node="n1", time=0.0, duration=0.2),
            PartitionFault(node="n2", time=0.0, duration=0.2),
        )
    )
    return ServingCluster(
        [engine() for _ in range(3)],
        names=["n0", "n1", "n2"],
        faults=faults,
        rebalance=rebalance,
    )


STEAL_CONFIGS = [
    {"enabled": True, "interval": 0.05, "imbalance_ratio": 1.5, "max_steals": 4},
    {"enabled": True, "interval": 0.05, "imbalance_ratio": 8.0,
     "starvation_depth": 0, "max_steals": 2},
    {"enabled": True, "interval": 0.03, "imbalance_ratio": 2.0, "max_steals": 3,
     "steal_in_flight": True},
]


class TestStealFuzz:
    @pytest.mark.parametrize("mode", ["stepping", "batched", "continuous"])
    @pytest.mark.parametrize("config", STEAL_CONFIGS)
    def test_stolen_work_stays_bit_equal_and_partitions_the_workload(
        self, stepping_network, sample_pool, mode, config
    ):
        images, _ = sample_pool
        count = 10
        report = _steal_cluster(stepping_network, mode, config).serve(
            _requests(images, count=count, gap=0.0)
        )
        # The engineered skew forces the trigger for every config.
        assert report.steals > 0
        assert report.as_dict()["completed"] == count
        assert report.lost == 0 and report.rejected == 0
        # Steals partition the workload: every request has exactly one
        # record fleet-wide, and the thieves really carry stolen jobs.
        ids = sorted(job.request.request_id for job in report.jobs)
        assert ids == list(range(count))
        off_victim = sum(r.num_jobs for r in report.node_reports[1:])
        assert off_victim >= min(report.steals, 1)
        # Bit-equality: stolen or not, every completed request matches
        # solo incremental inference over its executed level sequence.
        _assert_jobs_bit_equal_to_oracle(stepping_network, report.jobs)
        # MACs are charged honestly: useful work plus declared recompute.
        per_level = [float(stepping_network.subnet_macs(0))] + [
            float(stepping_network.subnet_macs(level))
            - float(stepping_network.subnet_macs(level - 1))
            for level in range(1, stepping_network.num_subnets)
        ]
        expected = sum(
            per_level[step.subnet] for job in report.jobs for step in job.steps
        )
        assert report.total_macs - report.total_macs_recomputed == pytest.approx(
            expected
        )
        if not config.get("steal_in_flight"):
            assert report.inflight_steals == 0
            assert report.total_macs_recomputed == 0

    @pytest.mark.parametrize("scheduler", ["fifo", "edf", "priority"])
    def test_steal_is_deterministic_across_schedulers(
        self, stepping_network, sample_pool, scheduler
    ):
        images, _ = sample_pool
        config = {"enabled": True, "interval": 0.05, "imbalance_ratio": 1.5,
                  "max_steals": 4, "steal_in_flight": True}
        first = _steal_cluster(stepping_network, "stepping", config,
                               scheduler=scheduler).serve(
            _requests(images, count=10, gap=0.0)
        )
        second = _steal_cluster(stepping_network, "stepping", config,
                                scheduler=scheduler).serve(
            _requests(images, count=10, gap=0.0)
        )
        assert first.steals > 0
        assert json.dumps(first.as_dict(), sort_keys=True) == json.dumps(
            second.as_dict(), sort_keys=True
        )

    def test_stealing_improves_load_imbalance(self, stepping_network, sample_pool):
        images, _ = sample_pool
        config = {"enabled": True, "interval": 0.05, "imbalance_ratio": 1.5,
                  "max_steals": 4}
        control = _steal_cluster(stepping_network, "stepping", None).serve(
            _requests(images, count=10, gap=0.0)
        )
        rebalanced = _steal_cluster(stepping_network, "stepping", config).serve(
            _requests(images, count=10, gap=0.0)
        )
        assert control.steals == 0
        assert rebalanced.steals > 0
        assert rebalanced.load_imbalance < control.load_imbalance

    def test_steal_events_and_rebalance_hold_decompose_exactly(
        self, stepping_network, sample_pool
    ):
        images, _ = sample_pool
        config = {"enabled": True, "interval": 0.05, "imbalance_ratio": 1.5,
                  "max_steals": 4, "steal_in_flight": True}
        recorder = ObservabilitySpec(enabled=True).build()
        try:
            report = _steal_cluster(stepping_network, "stepping", config).serve(
                _requests(images, count=10, gap=0.0), recorder=recorder
            )
        finally:
            recorder.close()
        steal_events = [e for e in recorder.events if e["type"] == "steal"]
        assert len(steal_events) == report.steals
        for event in steal_events:
            assert event["node"] == "n0"
            assert isinstance(event["inflight"], bool)
        decompositions = decompose_latency(recorder.events)
        assert len(decompositions) == 10
        assert "rebalance_hold" in PHASES
        for dec in decompositions:
            assert set(dec.phases) == set(PHASES)
            assert sum(dec.phases.values()) == pytest.approx(
                dec.finish - dec.arrival, abs=1e-9
            )
            assert dec.phases["rebalance_hold"] >= 0.0


# ----------------------------------------------------------------------
# Batch sharding
# ----------------------------------------------------------------------
class TestShardRequests:
    def test_shards_are_slice_views_with_fresh_ids(self, sample_pool):
        images, _ = sample_pool
        requests = [
            Request(request_id=0, arrival_time=0.0, inputs=images[:10],
                    labels=np.arange(10)),
            Request(request_id=1, arrival_time=0.1, inputs=images[:2]),
        ]
        sharded, groups = shard_requests(requests, 4)
        assert groups == {0: (2, 3, 4)}
        assert [r.request_id for r in sharded] == [2, 3, 4, 1]
        assert sharded[3] is requests[1]  # small batches pass untouched
        for position, shard in enumerate(sharded[:3]):
            start = position * 4
            stop = min(start + 4, 10)
            assert shard.batch_size == stop - start
            assert np.shares_memory(shard.inputs, requests[0].inputs)
            assert np.array_equal(shard.inputs, images[start:stop])
            assert np.array_equal(shard.labels, np.arange(start, stop))
            assert shard.arrival_time == requests[0].arrival_time

    def test_gather_concatenates_in_slice_order(self):
        class FakeJob:
            def __init__(self, logits):
                self.final_logits = logits

        jobs = {
            2: FakeJob(np.array([[1.0], [2.0]])),
            3: FakeJob(np.array([[3.0]])),
            4: FakeJob(None),
        }
        gathered = gather_shard_logits(jobs, {0: (2, 3), 1: (2, 4), 5: (9,)})
        assert np.array_equal(gathered[0], np.array([[1.0], [2.0], [3.0]]))
        assert gathered[1] is None  # a shard without final logits
        assert gathered[5] is None  # a shard without a record at all

    def test_invalid_max_batch_rejected(self):
        with pytest.raises(ConfigError, match="shard_max_batch"):
            shard_requests([], 0)

    def test_cluster_shards_and_gathers_bit_equal(
        self, stepping_network, sample_pool
    ):
        images, _ = sample_pool
        big = Request(request_id=0, arrival_time=0.0, inputs=images[:6])
        small = Request(request_id=1, arrival_time=0.0, inputs=images[6][None])
        cluster = ServingCluster(
            [_engine(stepping_network) for _ in range(2)],
            names=["n0", "n1"],
            rebalance={"shard_max_batch": 2},
        )
        recorder = ObservabilitySpec(enabled=True).build()
        try:
            report = cluster.serve([big, small], recorder=recorder)
        finally:
            recorder.close()
        assert report.shards == 3
        assert set(report.shard_groups) == {0}
        assert len(report.shard_groups[0]) == 3
        assert report.num_jobs == 4  # three shards plus the small request
        shard_events = [e for e in recorder.events if e["type"] == "shard"]
        assert len(shard_events) == 1
        assert shard_events[0]["request_id"] == 0
        assert tuple(shard_events[0]["shards"]) == report.shard_groups[0]
        # Each shard is bit-equal to solo serving of that shard, and the
        # gather stacks them back in slice order.
        _assert_jobs_bit_equal_to_oracle(stepping_network, report.jobs)
        gathered = report.gathered_logits()
        jobs_by_id = {job.request.request_id: job for job in report.jobs}
        parts = [jobs_by_id[sid].final_logits for sid in report.shard_groups[0]]
        assert gathered[0].shape[0] == 6
        assert np.array_equal(gathered[0], np.concatenate(parts, axis=0))
        assert report.as_dict()["shard_groups"] == {
            "0": list(report.shard_groups[0])
        }

    def test_sharding_composes_with_stealing(self, stepping_network, sample_pool):
        images, _ = sample_pool
        config = {"enabled": True, "interval": 0.05, "imbalance_ratio": 1.5,
                  "max_steals": 4, "shard_max_batch": 2}
        cluster = _steal_cluster(stepping_network, "stepping", config)
        requests = [
            Request(request_id=index, arrival_time=0.0, inputs=images[:4])
            for index in range(4)
        ]
        report = cluster.serve(requests)
        assert report.shards == 8  # four parents, two shards each
        assert report.steals > 0
        assert report.as_dict()["completed"] == 8
        gathered = report.gathered_logits()
        assert set(gathered) == {0, 1, 2, 3}
        for parent_id, logits in gathered.items():
            assert logits.shape[0] == 4
        _assert_jobs_bit_equal_to_oracle(stepping_network, report.jobs)
