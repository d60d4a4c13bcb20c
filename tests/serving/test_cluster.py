"""Tests for fleet-level serving: routers, ServingCluster and ClusterReport."""

import json

import numpy as np
import pytest

from repro.runtime.platform import ResourceTrace
from repro.serving import (
    ROUTERS,
    ClusterSpec,
    JoinShortestQueueRouter,
    LeastLoadedRouter,
    Request,
    RoundRobinRouter,
    ServingCluster,
    ServingEngine,
    ServingSpec,
    SteppingBackend,
    StreamSpec,
    get_router,
    merge_streams,
    poisson_stream,
    serve,
)
from repro.utils.errors import ConfigError


def _engine(network, rate, scheduler="fifo", name="trace"):
    return ServingEngine(
        SteppingBackend(network), ResourceTrace.constant(rate, name=name), scheduler
    )


def _requests(images, labels, count=12, rate=4.0, deadline=None, seed=0):
    return poisson_stream(
        images,
        labels,
        rate=rate,
        num_requests=count,
        relative_deadline=deadline,
        batch_size=2,
        seed=seed,
    )


@pytest.fixture
def calibrated_rate(stepping_network):
    largest = float(stepping_network.subnet_macs(stepping_network.num_subnets - 1))
    return largest / 0.5  # one full-quality request ~= 0.5 s


class TestRouterRegistry:
    def test_at_least_three_policies_registered(self):
        distinct = {cls for cls in ROUTERS.values()}
        assert len(distinct) >= 3
        assert {"round-robin", "join-shortest-queue", "least-loaded"} <= set(ROUTERS)

    def test_get_router_unknown(self):
        with pytest.raises(KeyError, match="router"):
            get_router("random-forwarding")


class TestRouting:
    def test_round_robin_cycles(self, stepping_network, sample_pool, calibrated_rate):
        images, labels = sample_pool
        cluster = ServingCluster(
            [_engine(stepping_network, calibrated_rate) for _ in range(3)],
            router="round-robin",
        )
        partition = cluster.route_requests(_requests(images, labels, count=9))
        assert [len(part) for part in partition] == [3, 3, 3]
        # Arrival order maps 0->node0, 1->node1, 2->node2, 3->node0, ...
        assert [r.request_id for r in partition[0]] == [0, 3, 6]

    def test_join_shortest_queue_prefers_idle_node(self, stepping_network, sample_pool,
                                                   calibrated_rate):
        images, _ = sample_pool
        # Two simultaneous arrivals: JSQ must split them, round-robin would too,
        # but a third immediately after must go to whichever drained first —
        # with equal nodes it lands on the lowest index with the shortest queue.
        cluster = ServingCluster(
            [_engine(stepping_network, calibrated_rate) for _ in range(2)], router="jsq"
        )
        burst = [
            Request(request_id=i, arrival_time=0.0, inputs=images[:2]) for i in range(2)
        ] + [Request(request_id=2, arrival_time=0.01, inputs=images[:2])]
        partition = cluster.route_requests(burst)
        # The two simultaneous arrivals split across nodes; the third sees
        # equal queues again and ties back to node 0.
        assert [{r.request_id for r in part} for part in partition] == [{0, 2}, {1}]

    def test_least_loaded_prefers_faster_node(self, stepping_network, sample_pool,
                                              calibrated_rate):
        """With one node 10x faster, MAC/latency-aware placement piles on it
        until its backlog makes the slow node competitive."""
        images, _ = sample_pool
        fast = _engine(stepping_network, calibrated_rate * 10.0, name="fast")
        slow = _engine(stepping_network, calibrated_rate, name="slow")
        cluster = ServingCluster([slow, fast], router="least-loaded")
        burst = [
            Request(request_id=i, arrival_time=0.0, inputs=images[:2]) for i in range(4)
        ]
        partition = cluster.route_requests(burst)
        # The fast node takes most of the burst even though it is node 1.
        assert len(partition[1]) > len(partition[0])

    def test_least_loaded_beats_jsq_on_heterogeneous_fleet(
        self, stepping_network, sample_pool, calibrated_rate
    ):
        """JSQ is throughput-blind; finishing-time-aware placement must not be
        slower on a fleet with a 20x throughput spread."""
        images, labels = sample_pool
        requests = _requests(images, labels, count=24, rate=8.0)

        def run(router):
            cluster = ServingCluster(
                [
                    _engine(stepping_network, calibrated_rate * 20.0),
                    _engine(stepping_network, calibrated_rate),
                ],
                router=router,
            )
            return cluster.serve(requests)

        assert run("least-loaded").p95_latency <= run("jsq").p95_latency + 1e-9

    @pytest.mark.parametrize("router", ["p2c", "least-loaded-depth"])
    def test_route_requests_rejects_live_state_routers(
        self, stepping_network, sample_pool, calibrated_rate, router
    ):
        """A live-state router is always served live: no closed-loop partition exists."""
        images, labels = sample_pool
        cluster = ServingCluster(
            [_engine(stepping_network, calibrated_rate) for _ in range(2)], router=router
        )
        with pytest.raises(ConfigError, match="live node state"):
            cluster.route_requests(_requests(images, labels, count=4))

    def test_router_returning_a_non_candidate_raises(
        self, stepping_network, sample_pool, calibrated_rate
    ):
        from repro.serving.cluster import NodeState

        class Stray(RoundRobinRouter):
            def route(self, request, nodes, now):
                return NodeState(len(nodes), "stray", nodes[0].engine)

        images, labels = sample_pool
        cluster = ServingCluster(
            [_engine(stepping_network, calibrated_rate) for _ in range(2)], router=Stray()
        )
        with pytest.raises(ValueError, match="not one of the 2 candidate nodes"):
            cluster.route_requests(_requests(images, labels, count=2))
        with pytest.raises(ValueError, match="not one of the 2 candidate nodes"):
            cluster.serve(_requests(images, labels, count=2))

    def test_duplicate_ids_across_workload_rejected(
        self, stepping_network, sample_pool, calibrated_rate
    ):
        images, labels = sample_pool
        stream_a = _requests(images, labels, count=3)
        stream_b = _requests(images, labels, count=3, seed=1)  # ids also 0..2
        cluster = ServingCluster([_engine(stepping_network, calibrated_rate)])
        with pytest.raises(ValueError, match="merge_streams"):
            cluster.route_requests(stream_a + stream_b)
        merged = merge_streams(stream_a, stream_b)
        assert [len(p) for p in cluster.route_requests(merged)] == [6]

    def test_duplicate_ids_rejected_before_sharding(
        self, stepping_network, sample_pool, calibrated_rate
    ):
        """Sharding renumbers requests, so uniqueness is checked on the caller's ids."""
        images, _ = sample_pool
        twins = [
            Request(request_id=7, arrival_time=0.0, inputs=images[:2]),
            Request(request_id=7, arrival_time=0.001, inputs=images[2:4]),
        ]
        cluster = ServingCluster(
            [_engine(stepping_network, calibrated_rate)], rebalance={"shard_max_batch": 1}
        )
        with pytest.raises(ConfigError, match="merge_streams"):
            cluster.serve(twins)


class TestServingCluster:
    @pytest.mark.parametrize(
        "node",
        [
            {"backend": "stepping"},
            # A tied-arrival burst on an idle windowed node: the closed
            # loop batches it, live delivery would not.
            {
                "backend": "batched",
                "batch_policy": "windowed",
                "max_batch_size": 4,
                "batch_window": 0.05,
            },
        ],
        ids=["stepping", "batched-windowed"],
    )
    def test_single_node_cluster_reproduces_engine_bit_identical(
        self, node, stepping_network, sample_pool, calibrated_rate
    ):
        """Acceptance criterion: one-node fleet == bare engine, bit for bit."""
        images, labels = sample_pool
        requests = _requests(images, labels, count=10, deadline=1.5)
        if node["backend"] == "batched":
            burst_at = max(request.arrival_time for request in requests) + 20.0
            requests += [
                Request(request_id=10 + i, arrival_time=burst_at, inputs=images[i][None])
                for i in range(6)
            ]
        spec = ServingSpec(
            scheduler="edf",
            trace="constant",
            trace_rate=calibrated_rate,
            overhead_per_step=0.0,
            **node,
        )
        cluster = ServingCluster.from_spec(
            ClusterSpec(nodes=(spec,)), stepping_network
        )
        fleet_report = cluster.serve(requests)
        solo_report = spec.build_engine(stepping_network).serve(requests)
        assert fleet_report.node_reports[0].as_dict() == solo_report.as_dict()
        assert fleet_report.num_jobs == solo_report.num_jobs
        assert fleet_report.throughput == pytest.approx(solo_report.throughput)
        for a, b in zip(fleet_report.node_reports[0].jobs, solo_report.jobs):
            assert np.array_equal(a.final_logits, b.final_logits)

    def test_three_heterogeneous_nodes_from_json(self, stepping_network, sample_pool):
        """Acceptance criterion: JSON -> ClusterSpec -> ServingCluster -> serve."""
        images, labels = sample_pool
        blob = json.dumps(
            {
                "name": "edge-fleet",
                "router": "least-loaded",
                "nodes": [
                    {"platform": "mobile-soc", "scheduler": "edf", "trace": "steady-high"},
                    {"platform": "vehicle-ecu", "scheduler": "edf", "trace": "steady-high"},
                    {"platform": "embedded-mcu", "scheduler": "fifo", "trace": "steady-high"},
                ],
            }
        )
        cluster = ServingCluster.from_spec(
            ClusterSpec.from_dict(json.loads(blob)), stepping_network
        )
        assert cluster.num_nodes == 3
        requests = _requests(images, labels, count=15, rate=50.0, deadline=2.0)
        report = cluster.serve(requests)
        assert report.num_jobs == 15
        assert report.completed == 15
        served_ids = sorted(
            job.request.request_id for node in report.node_reports for job in node.jobs
        )
        assert served_ids == list(range(15))  # every request served exactly once
        payload = report.as_dict()
        assert payload["router"] == "least-loaded"
        assert len(payload["nodes"]) == 3
        assert payload["num_jobs"] == 15
        json.dumps(payload)  # artifact-ready

    def test_serve_builds_workload_from_spec_streams(self):
        spec = ClusterSpec(
            nodes=(
                ServingSpec(platform="mobile-soc"),
                ServingSpec(platform="vehicle-ecu"),
            ),
            router="round-robin",
            streams=(
                StreamSpec(kind="poisson", params={"rate": 100.0, "num_requests": 6, "seed": 0}),
                StreamSpec(kind="periodic", params={"period": 0.01, "num_requests": 4}),
            ),
            model={"name": "tiny-cnn", "num_subnets": 3},
        )
        report = serve(None, spec)
        assert report.num_jobs == 10
        assert sum(len(node.jobs) for node in report.node_reports) == 10

    @pytest.mark.parametrize("interval", [True, float("inf"), float("nan"), -0.1, "0"])
    def test_bad_publish_interval_rejected_like_cluster_spec(
        self, stepping_network, calibrated_rate, interval
    ):
        engines = [_engine(stepping_network, calibrated_rate)]
        with pytest.raises(ConfigError, match=r"^ClusterSpec\.publish_interval must be"):
            ServingCluster(engines, publish_interval=interval)

    def test_serve_requires_streams_or_requests(self, stepping_network):
        spec = ClusterSpec(nodes=(ServingSpec(),))
        with pytest.raises(ValueError, match="streams"):
            serve(stepping_network, spec)

    def test_result_handoff_uses_servable(self, stepping_network, sample_pool, calibrated_rate):
        """Anything exposing ``servable()`` (SteppingNetResult) is accepted."""
        images, labels = sample_pool

        class FakeResult:
            def __init__(self, network):
                self.network = network

            def servable(self):
                self.network.eval()
                return self.network

        stepping_network.train()
        spec = ClusterSpec(
            nodes=(ServingSpec(trace="constant", trace_rate=calibrated_rate),)
        )
        report = serve(FakeResult(stepping_network), spec, _requests(images, labels, count=4))
        assert report.completed == 4
        assert not stepping_network.training  # hand-off switched to eval mode


class TestClosedLoopDelivery:
    """The oracle for closed-loop delivery, where it can actually fail.

    Under a queue-blind router every node receives its whole sub-stream
    before it runs, so its report equals a fresh closed-loop
    ``ServingEngine.serve()`` over its ``route_requests`` partition.  The
    workload carries a tied-arrival burst onto idle batching nodes: live
    delivery would dispatch the first tied arrival alone, so coalescing
    policies tell the two delivery rules apart.
    """

    @staticmethod
    def _workload(images, labels):
        arrivals = [0.0, 0.1, 0.2, 0.3] + [5.0] * 8 + [5.05, 5.1, 5.2, 7.0]
        return [
            Request(
                request_id=i,
                arrival_time=t,
                inputs=images[i % len(images)][None],
                labels=labels[i % len(labels)][None],
                deadline=t + 2.0,
            )
            for i, t in enumerate(arrivals)
        ]

    @pytest.mark.parametrize("batch_policy", ["none", "same-level", "windowed", "continuous"])
    @pytest.mark.parametrize("router", ["round-robin", "join-shortest-queue", "least-loaded"])
    def test_node_reports_equal_closed_loop_serve(
        self, router, batch_policy, stepping_network, sample_pool, calibrated_rate
    ):
        images, labels = sample_pool
        requests = self._workload(images, labels)
        node_specs = tuple(
            ServingSpec(
                name=f"node{index}",
                backend="batched",
                trace="constant",
                trace_rate=rate,
                batch_policy=batch_policy,
                max_batch_size=4,
                batch_window=0.05 if batch_policy == "windowed" else 0.0,
            )
            for index, rate in enumerate([calibrated_rate * 2.0, calibrated_rate])
        )
        spec = ClusterSpec(nodes=node_specs, router=router)
        assert not get_router(router).needs_live_state
        report = ServingCluster.from_spec(spec, stepping_network).serve(requests)
        partition = ServingCluster.from_spec(spec, stepping_network).route_requests(requests)
        assert all(partition)
        assert report.node_jobs == [len(sub_stream) for sub_stream in partition]
        for node_spec, sub_stream, node_report in zip(
            node_specs, partition, report.node_reports
        ):
            solo = node_spec.build_engine(stepping_network).serve(sub_stream)
            assert node_report.as_dict() == solo.as_dict()
            for a, b in zip(node_report.jobs, solo.jobs):
                assert a.request.request_id == b.request.request_id
                assert np.array_equal(a.final_logits, b.final_logits)


class TestClusterReport:
    def _report(self, stepping_network, sample_pool, calibrated_rate, router="round-robin"):
        images, labels = sample_pool
        cluster = ServingCluster(
            [
                _engine(stepping_network, calibrated_rate * 4.0),
                _engine(stepping_network, calibrated_rate),
            ],
            router=router,
            names=["fast", "slow"],
        )
        return cluster.serve(_requests(images, labels, count=10, rate=3.0, deadline=2.0))

    def test_fleet_metrics_consistent_with_nodes(
        self, stepping_network, sample_pool, calibrated_rate
    ):
        report = self._report(stepping_network, sample_pool, calibrated_rate)
        assert report.num_jobs == sum(node.num_jobs for node in report.node_reports)
        assert report.completed == sum(
            len(node.completed_jobs) for node in report.node_reports
        )
        assert report.total_macs == pytest.approx(
            sum(node.total_macs for node in report.node_reports)
        )
        assert report.throughput == pytest.approx(report.completed / report.makespan)
        latencies = np.concatenate(
            [node.latencies() for node in report.node_reports]
        )
        assert report.p95_latency == pytest.approx(
            float(np.percentile(latencies, 95)), rel=1e-6
        )

    def test_utilisation_and_imbalance(self, stepping_network, sample_pool, calibrated_rate):
        report = self._report(stepping_network, sample_pool, calibrated_rate)
        assert len(report.node_utilisation) == 2
        assert all(0.0 <= u <= 1.0 for u in report.node_utilisation)
        assert report.load_imbalance == pytest.approx(1.0)  # round-robin on 10 = 5/5
        # The slow node works the same MACs at a quarter of the rate.
        assert report.node_utilisation[1] > report.node_utilisation[0]

    def test_empty_fleet_report(self, stepping_network, calibrated_rate):
        cluster = ServingCluster([_engine(stepping_network, calibrated_rate)])
        report = cluster.serve([])
        assert report.num_jobs == 0
        assert report.throughput == 0.0
        assert np.isnan(report.load_imbalance)


class TestQueueDepthRouting:
    """The real-queue-state router: published depth instead of the fluid model."""

    def test_registered_and_flagged(self):
        assert "least-loaded-depth" in ROUTERS
        router = get_router("least-loaded-depth")
        assert isinstance(router, LeastLoadedRouter)
        assert router.signal == "queue-depth"
        assert router.name == "least-loaded-depth"
        assert router.needs_live_state
        assert not get_router("least-loaded").needs_live_state

    def test_least_loaded_configurable_signal(self):
        router = LeastLoadedRouter(signal="queue-depth")
        assert router.needs_live_state
        assert router.name == "least-loaded-depth"  # name follows the signal
        with pytest.raises(ValueError, match="signal"):
            LeastLoadedRouter(signal="tea-leaves")

    def test_interleaved_node_reports_match_closed_loop(
        self, stepping_network, sample_pool, calibrated_rate
    ):
        """Unbatched queue-blind nodes under live delivery == serve() over their partition."""
        images, labels = sample_pool
        requests = _requests(images, labels, count=14, rate=6.0, deadline=2.0)
        rates = [calibrated_rate * 2.0, calibrated_rate]
        cluster = ServingCluster(
            [_engine(stepping_network, rate) for rate in rates],
            router="least-loaded-depth",
            names=["fast", "slow"],
        )
        report = cluster.serve(requests)
        assert all(count > 0 for count in report.node_jobs)
        for rate, node_report in zip(rates, report.node_reports):
            sub_stream = [job.request for job in node_report.jobs]
            replay = _engine(stepping_network, rate).serve(sub_stream)
            assert replay.as_dict() == node_report.as_dict()
            for a, b in zip(replay.jobs, node_report.jobs):
                assert np.array_equal(a.final_logits, b.final_logits)

    def test_depth_signal_spreads_a_burst(self, stepping_network, sample_pool, calibrated_rate):
        """Simultaneous arrivals pile depth on a node and push traffic away."""
        images, _ = sample_pool
        burst = [
            Request(request_id=i, arrival_time=0.001 * i, inputs=images[i % len(images)][None])
            for i in range(8)
        ]
        cluster = ServingCluster(
            [
                _engine(stepping_network, calibrated_rate),
                _engine(stepping_network, calibrated_rate),
            ],
            router="least-loaded-depth",
            names=["a", "b"],
        )
        report = cluster.serve(burst)
        assert report.num_jobs == 8
        assert all(count > 0 for count in report.node_jobs)

    def test_fleet_report_batching_aggregates(self, stepping_network, sample_pool):
        from repro.serving import SameLevelBatching
        from repro.runtime.platform import ResourceTrace

        images, _ = sample_pool
        largest = float(stepping_network.subnet_macs(stepping_network.num_subnets - 1))
        requests = [
            Request(request_id=i, arrival_time=0.0, inputs=images[i][None]) for i in range(8)
        ]
        engine = ServingEngine(
            SteppingBackend(stepping_network),
            ResourceTrace.constant(largest / 0.05, name="t"),
            batch_policy=SameLevelBatching(8),
        )
        report = ServingCluster([engine], names=["n0"]).serve(requests)
        payload = report.as_dict()
        assert payload["batched_steps"] == report.node_reports[0].batched_steps > 0
        assert payload["solo_steps"] == report.node_reports[0].solo_steps
        assert payload["mean_batch_occupancy"] == pytest.approx(
            report.node_reports[0].mean_batch_occupancy
        )


class TestMemoryAwareRouting:
    """The resident-bytes router and the fleet memory aggregates."""

    def test_registered_and_flagged(self):
        assert "least-loaded-memory" in ROUTERS
        router = get_router("least-loaded-memory")
        assert isinstance(router, LeastLoadedRouter)
        assert router.signal == "memory"
        assert router.name == "least-loaded-memory"
        assert router.needs_live_state  # resident bytes: live delivery
        assert LeastLoadedRouter(signal="memory").needs_live_state
        assert get_router("least-loaded-depth").needs_live_state
        assert not get_router("least-loaded").needs_live_state

    def test_memory_signal_spreads_a_burst(
        self, stepping_network, sample_pool, calibrated_rate
    ):
        """Resident contexts pile bytes on a node and push traffic away."""
        images, _ = sample_pool
        burst = [
            Request(request_id=i, arrival_time=0.001 * i, inputs=images[i % len(images)][None])
            for i in range(8)
        ]
        cluster = ServingCluster(
            [
                _engine(stepping_network, calibrated_rate),
                _engine(stepping_network, calibrated_rate),
            ],
            router="least-loaded-memory",
            names=["a", "b"],
        )
        report = cluster.serve(burst)
        assert report.num_jobs == 8
        assert all(count > 0 for count in report.node_jobs)

    def test_fleet_report_memory_aggregates(self, stepping_network, sample_pool):
        """ClusterReport sums node evictions and takes the peak residency."""
        import numpy as np

        from repro.core.incremental import IncrementalInference
        from repro.runtime.policies import ConfidencePolicy
        from repro.serving import SteppingBackend

        images, _ = sample_pool
        context = IncrementalInference(stepping_network, dtype=np.float32).plan.state_nbytes(1)
        largest = float(stepping_network.subnet_macs(stepping_network.num_subnets - 1))
        trace = ResourceTrace.constant(largest / 0.4, name="constant")
        rng = np.random.default_rng(2)
        requests, arrival = [], 0.0
        for index in range(14):
            arrival += float(rng.exponential(0.15))
            requests.append(
                Request(
                    request_id=index,
                    arrival_time=arrival,
                    inputs=images[index % len(images)][None],
                    deadline=arrival + float(rng.uniform(0.3, 8.0)),
                )
            )
        engine = ServingEngine(
            SteppingBackend(
                stepping_network,
                policy=ConfidencePolicy(threshold=1.0, respect_deadline=False),
                dtype=np.float32,
            ),
            trace,
            "edf",
            memory_budget_bytes=int(context * 1.2),
            enforce_deadline=False,
        )
        cluster = ServingCluster([engine], names=["only"])
        report = cluster.serve(requests)
        node = report.node_reports[0]
        assert report.cache_evictions == node.cache_evictions > 0
        assert report.aux_evictions == node.aux_evictions > 0
        assert report.peak_resident_bytes == node.peak_resident_bytes
        assert report.total_macs_recomputed == node.total_macs_recomputed > 0
        payload = report.as_dict()
        assert payload["cache_evictions"] == node.cache_evictions
        assert payload["peak_resident_bytes"] == node.peak_resident_bytes
        json.dumps(payload)  # artifact-ready


class TestEndToEndDeterminism:
    """Serving the same ClusterSpec JSON twice is byte-for-byte identical.

    The regression the stack must never lose: every layer — model
    synthesis from seeds, stream generation, routing, scheduling,
    batching, memory eviction — is deterministic, so two fully
    independent builds of the same config produce identical reports.
    """

    CONFIGS = [
        "cluster_smoke.json",
        "cluster_batched.json",
        "cluster_memory.json",
        "cluster_continuous.json",
    ]

    @staticmethod
    def _config_path(name):
        from pathlib import Path

        return Path(__file__).resolve().parents[2] / "benchmarks" / "configs" / name

    @pytest.mark.parametrize("config", CONFIGS)
    def test_serve_twice_byte_identical(self, config):
        first = serve(None, ClusterSpec.from_json(self._config_path(config)))
        second = serve(None, ClusterSpec.from_json(self._config_path(config)))
        assert json.dumps(first.as_dict(), sort_keys=True) == json.dumps(
            second.as_dict(), sort_keys=True
        )

    def test_memory_bounded_fleet_from_json_evicts_and_completes(self):
        """Acceptance: the checked-in memory config exercises eviction."""
        spec = ClusterSpec.from_json(self._config_path("cluster_memory.json"))
        assert spec.router == "least-loaded-memory"
        assert all(node.memory_budget_bytes is not None for node in spec.nodes)
        assert {node.eviction_policy for node in spec.nodes} == {
            "lru",
            "largest-first",
            "lowest-progress",
        }
        report = serve(None, spec)
        payload = report.as_dict()
        assert payload["completed"] + payload["dropped"] == payload["num_jobs"] > 0
        assert payload["cache_evictions"] > 0  # tier 2 genuinely engaged
        assert payload["total_macs_recomputed"] > 0
        for node_spec, node_report in zip(spec.nodes, report.node_reports):
            assert node_report.peak_resident_bytes <= node_spec.memory_budget_bytes
        json.dumps(payload)  # artifact-ready


class TestBatchedFleetFromJson:
    def test_checked_in_batched_cluster_config_serves(self):
        """Acceptance criterion: batching-enabled fleet runs from checked-in JSON."""
        from pathlib import Path

        config = (
            Path(__file__).resolve().parents[2]
            / "benchmarks"
            / "configs"
            / "cluster_batched.json"
        )
        spec = ClusterSpec.from_json(config)
        assert spec.router == "least-loaded-depth"
        assert any(node.batch_policy != "none" for node in spec.nodes)
        assert any(node.num_subnets is not None for node in spec.nodes)
        report = serve(None, spec)
        payload = report.as_dict()
        assert payload["num_jobs"] > 0
        assert payload["completed"] + payload["dropped"] == payload["num_jobs"]
        assert payload["batched_steps"] > 0  # coalescing actually engaged
        json.dumps(payload)  # artifact-ready
        # The shallow node never refines past its declared cap.
        for node_spec, node_report in zip(spec.nodes, report.node_reports):
            if node_spec.num_subnets is not None:
                for job in node_report.jobs:
                    assert job.final_subnet < node_spec.num_subnets
