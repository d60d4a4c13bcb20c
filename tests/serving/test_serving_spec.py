"""Tests for the declarative serving specs (ServingSpec / ClusterSpec / StreamSpec)."""

import json

import numpy as np
import pytest

from repro.runtime.platform import PLATFORMS, get_platform
from repro.serving import (
    ClusterSpec,
    RecomputeBackend,
    ServingEngine,
    ServingSpec,
    SteppingBackend,
    StreamSpec,
    get_policy,
    poisson_stream,
)


class TestServingSpec:
    def test_json_round_trip(self):
        spec = ServingSpec(
            name="edge0",
            backend="recompute",
            scheduler="edf",
            platform="vehicle-ecu",
            trace="duty-cycle",
            trace_scale=0.5,
            policy="confidence",
            policy_params={"threshold": 0.8},
            drop_expired=True,
            dtype="float64",
        )
        blob = json.dumps(spec.to_dict())
        assert ServingSpec.from_dict(json.loads(blob)) == spec

    def test_unknown_registry_names_fail_at_construction(self):
        with pytest.raises(KeyError, match="backend"):
            ServingSpec(backend="quantum")
        with pytest.raises(KeyError, match="scheduler"):
            ServingSpec(scheduler="lottery")
        with pytest.raises(KeyError, match="platform"):
            ServingSpec(platform="datacenter-gpu")
        with pytest.raises(KeyError, match="policy"):
            ServingSpec(policy="oracle")

    def test_unknown_config_key_rejected(self):
        with pytest.raises(KeyError, match="schedulr"):
            ServingSpec.from_dict({"schedulr": "edf"})

    def test_scheduler_params_round_trip_and_build(self, stepping_network):
        from repro.serving import BatchAwareScheduler

        spec = ServingSpec(
            scheduler="batch-aware", scheduler_params={"min_slack": 0.25}
        )
        blob = json.dumps(spec.to_dict())
        assert ServingSpec.from_dict(json.loads(blob)) == spec
        scheduler = spec.build_scheduler()
        assert isinstance(scheduler, BatchAwareScheduler)
        assert scheduler.min_slack == 0.25
        engine = spec.build_engine(stepping_network)
        assert engine.scheduler.name == "batch-aware"
        assert engine.scheduler.min_slack == 0.25

    def test_scheduler_params_validated_at_construction(self):
        with pytest.raises(TypeError):
            ServingSpec(scheduler="fifo", scheduler_params={"min_slack": 0.25})
        with pytest.raises(ValueError, match="min_slack"):
            ServingSpec(scheduler="batch-aware", scheduler_params={"min_slack": -1.0})

    def test_cost_aware_schedulers_and_continuous_policy_resolve(
        self, stepping_network
    ):
        for name in ("batch-aware", "least-recompute", "utility-per-mac"):
            spec = ServingSpec(
                backend="batched", scheduler=name, batch_policy="continuous",
                max_batch_size=16,
            )
            engine = spec.build_engine(stepping_network)
            assert engine.scheduler.name == name
            assert engine.batch_policy.name == "continuous"
            assert engine.batch_policy.max_batch_size == 16
            assert engine.batch_policy.refills
        recompute = ServingSpec(
            backend="batched-recompute", batch_policy="continuous"
        ).build_engine(stepping_network)
        assert type(recompute.backend) is RecomputeBackend
        assert not recompute.backend.reuses_activations

    def test_constant_trace_requires_rate(self):
        with pytest.raises(ValueError, match="trace_rate"):
            ServingSpec(trace="constant")
        trace = ServingSpec(trace="constant", trace_rate=123.0).build_trace()
        assert trace.throughput_at(1.0) == pytest.approx(123.0)

    def test_trace_resolved_from_platform_library(self):
        spec = ServingSpec(platform="mobile-soc", trace="steady-low", trace_scale=2.0)
        platform = get_platform("mobile-soc")
        low = min(platform.power_modes.values())
        assert spec.build_trace().throughput_at(0.0) == pytest.approx(
            platform.peak_macs_per_second * low * 2.0
        )

    def test_unknown_trace_name_fails_at_build(self):
        spec = ServingSpec(trace="solar-flare")
        with pytest.raises(KeyError, match="solar-flare"):
            spec.build_trace()

    def test_overhead_defaults_to_platform_invocation_overhead(self, stepping_network):
        spec = ServingSpec(platform="embedded-mcu", trace="constant", trace_rate=1e9)
        engine = spec.build_engine(stepping_network)
        assert engine.overhead_per_step == get_platform("embedded-mcu").invocation_overhead
        explicit = ServingSpec(
            platform="embedded-mcu", trace="constant", trace_rate=1e9, overhead_per_step=0.0
        )
        assert explicit.build_engine(stepping_network).overhead_per_step == 0.0

    def test_built_engine_matches_hand_wired_engine(self, stepping_network, sample_pool):
        """The spec path reproduces the imperative path bit-for-bit."""
        from repro.serving import SteppingBackend

        images, labels = sample_pool
        largest = float(stepping_network.subnet_macs(stepping_network.num_subnets - 1))
        rate = largest / 0.4
        requests = poisson_stream(
            images, labels, rate=3.0, num_requests=12, relative_deadline=1.0, batch_size=2, seed=0
        )
        spec = ServingSpec(
            backend="stepping",
            scheduler="edf",
            trace="constant",
            trace_rate=rate,
            overhead_per_step=0.0,
        )
        from repro.runtime.platform import ResourceTrace

        manual = ServingEngine(
            SteppingBackend(stepping_network),
            ResourceTrace.constant(rate, name="constant"),
            "edf",
        )
        assert spec.build_engine(stepping_network).serve(requests).as_dict() == manual.serve(
            requests
        ).as_dict()

    def test_platform_registry_contains_paper_devices(self):
        assert {"mobile-soc", "vehicle-ecu", "embedded-mcu"} <= set(PLATFORMS)


class TestStreamSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError, match="stream"):
            StreamSpec(kind="adversarial")

    def test_builds_from_explicit_pool(self, sample_pool):
        images, labels = sample_pool
        spec = StreamSpec(kind="periodic", params={"period": 0.5, "num_requests": 5})
        requests = spec.build(images, labels)
        assert len(requests) == 5
        assert requests[1].arrival_time == pytest.approx(0.5)

    def test_synthesised_pool_is_deterministic(self):
        spec = StreamSpec(
            kind="poisson", params={"rate": 2.0, "num_requests": 6, "seed": 3}, pool_seed=7
        )
        first = spec.build(input_shape=(3, 8, 8))
        second = spec.build(input_shape=(3, 8, 8))
        for a, b in zip(first, second):
            assert a.arrival_time == b.arrival_time
            np.testing.assert_array_equal(a.inputs, b.inputs)

    def test_requires_pool_or_shape(self):
        spec = StreamSpec(kind="periodic", params={"period": 1.0, "num_requests": 2})
        with pytest.raises(ValueError, match="input_shape"):
            spec.build()


class TestClusterSpec:
    def _cluster(self):
        return ClusterSpec(
            nodes=(
                ServingSpec(platform="mobile-soc", scheduler="edf"),
                ServingSpec(platform="vehicle-ecu", scheduler="edf"),
                ServingSpec(platform="embedded-mcu", scheduler="fifo"),
            ),
            router="join-shortest-queue",
            streams=(
                StreamSpec(kind="poisson", params={"rate": 5.0, "num_requests": 8, "seed": 0}),
                StreamSpec(kind="periodic", params={"period": 0.3, "num_requests": 4}),
            ),
            model={"name": "tiny-cnn", "num_subnets": 4},
            name="fleet",
        )

    def test_json_round_trip(self):
        spec = self._cluster()
        blob = json.dumps(spec.to_dict())
        recovered = ClusterSpec.from_dict(json.loads(blob))
        assert recovered == spec
        assert recovered.to_dict() == spec.to_dict()

    def test_from_json_accepts_string_and_path(self, tmp_path):
        spec = self._cluster()
        blob = json.dumps(spec.to_dict())
        assert ClusterSpec.from_json(blob) == spec
        path = tmp_path / "fleet.json"
        path.write_text(blob)
        assert ClusterSpec.from_json(path) == spec

    def test_needs_at_least_one_node(self):
        with pytest.raises(ValueError, match="at least one node"):
            ClusterSpec(nodes=())

    def test_unknown_router_fails_at_config_load(self):
        """A router typo must fail at construction, not after the model build."""
        with pytest.raises(KeyError, match="router"):
            ClusterSpec(nodes=(ServingSpec(),), router="least-loadd")

    def test_duplicate_node_names_auto_disambiguated(self):
        spec = ClusterSpec(
            nodes=(ServingSpec(platform="mobile-soc"), ServingSpec(platform="mobile-soc"))
        )
        names = [node.node_name for node in spec.nodes]
        assert len(set(names)) == 2

    def test_disambiguation_leaves_unique_names_untouched(self):
        spec = ClusterSpec(
            nodes=(
                ServingSpec(platform="mobile-soc"),
                ServingSpec(platform="mobile-soc"),
                ServingSpec(platform="vehicle-ecu"),
            )
        )
        assert spec.nodes[2].node_name == "vehicle-ecu/stepping"
        assert len({node.node_name for node in spec.nodes}) == 3

    def test_build_network_from_model_config(self):
        network = self._cluster().build_network()
        assert network.num_subnets == 4
        macs = [network.subnet_macs(level) for level in range(4)]
        assert macs == sorted(macs) and macs[0] < macs[-1]
        assert not network.training  # eval mode: plan-compatible BN semantics

    def test_unknown_model_key_rejected(self):
        spec = ClusterSpec(
            nodes=(ServingSpec(),), model={"name": "tiny-cnn", "depth": 99}
        )
        with pytest.raises(KeyError, match="depth"):
            spec.build_network()

    def test_build_requests_merges_streams_with_unique_ids(self, sample_pool):
        images, labels = sample_pool
        requests = self._cluster().build_requests(images, labels)
        assert len(requests) == 12
        ids = [request.request_id for request in requests]
        assert len(set(ids)) == len(ids)
        arrivals = [request.arrival_time for request in requests]
        assert arrivals == sorted(arrivals)


class TestPolicyRegistry:
    def test_policies_resolve(self):
        from repro.runtime.policies import ConfidencePolicy, GreedyPolicy

        assert isinstance(get_policy("greedy"), GreedyPolicy)
        confident = get_policy("confidence", threshold=0.5)
        assert isinstance(confident, ConfidencePolicy)
        assert confident.threshold == 0.5
        full = get_policy("full-quality")
        assert full.threshold == 1.0 and not full.respect_deadline

    def test_unknown_policy(self):
        with pytest.raises(KeyError, match="policy"):
            get_policy("oracle")


class TestMemoryKnobs:
    def test_memory_fields_round_trip(self):
        spec = ServingSpec(
            memory_budget_bytes=262144.0,
            eviction_policy="largest-first",
        )
        blob = json.dumps(spec.to_dict())
        restored = ServingSpec.from_dict(json.loads(blob))
        assert restored == spec
        assert restored.memory_budget_bytes == 262144.0
        assert restored.eviction_policy == "largest-first"

    def test_unbounded_default_round_trips(self):
        spec = ServingSpec()
        blob = json.dumps(spec.to_dict())
        restored = ServingSpec.from_dict(json.loads(blob))
        assert restored.memory_budget_bytes is None
        assert restored.eviction_policy == "lru"

    def test_cluster_spec_round_trips_memory_knobs(self):
        cluster = ClusterSpec(
            nodes=(
                ServingSpec(name="tight", memory_budget_bytes=65536, eviction_policy="lowest-progress"),
                ServingSpec(name="roomy"),
            ),
            streams=(StreamSpec(kind="poisson", params={"rate": 5.0, "num_requests": 4}),),
        )
        blob = json.dumps(cluster.to_dict())
        restored = ClusterSpec.from_dict(json.loads(blob))
        assert restored == cluster
        assert restored.nodes[0].memory_budget_bytes == 65536
        assert restored.nodes[1].memory_budget_bytes is None

    def test_invalid_memory_knobs_rejected(self):
        with pytest.raises(ValueError, match="memory_budget_bytes"):
            ServingSpec(memory_budget_bytes=0)
        with pytest.raises(ValueError, match="memory_budget_bytes"):
            ServingSpec(memory_budget_bytes=-4096)
        # Values MemoryBudget cannot represent fail at config load too.
        with pytest.raises(ValueError, match="memory_budget_bytes"):
            ServingSpec(memory_budget_bytes=float("inf"))
        with pytest.raises(ValueError, match="memory_budget_bytes"):
            ServingSpec(memory_budget_bytes=0.5)  # truncates to zero bytes
        with pytest.raises(KeyError, match="eviction"):
            ServingSpec(eviction_policy="round-robin")

    def test_build_engine_wires_memory_budget(self, stepping_network):
        spec = ServingSpec(
            trace="constant",
            trace_rate=1e9,
            memory_budget_bytes=131072,
            eviction_policy="largest-first",
        )
        engine = spec.build_engine(stepping_network)
        assert engine.memory_budget.budget_bytes == 131072
        assert engine.memory_budget.policy.name == "largest-first"
        unbounded = ServingSpec(trace="constant", trace_rate=1e9).build_engine(
            stepping_network
        )
        assert unbounded.memory_budget.budget_bytes is None


class TestBatchingAndCapKnobs:
    def test_batching_fields_round_trip(self):
        spec = ServingSpec(
            backend="batched",
            batch_policy="windowed",
            max_batch_size=4,
            batch_window=0.01,
            num_subnets=2,
        )
        blob = json.dumps(spec.to_dict())
        assert ServingSpec.from_dict(json.loads(blob)) == spec

    def test_unknown_batch_policy_fails_at_config_load(self):
        with pytest.raises(KeyError, match="batch policy"):
            ServingSpec(backend="batched", batch_policy="adaptive")

    def test_invalid_batch_knobs_rejected(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            ServingSpec(backend="batched", batch_policy="same-level", max_batch_size=0)
        with pytest.raises(ValueError, match="batch_window"):
            ServingSpec(backend="batched", batch_policy="windowed", batch_window=-1.0)
        with pytest.raises(ValueError, match="num_subnets"):
            ServingSpec(num_subnets=0)

    def test_build_engine_wires_batch_policy(self, stepping_network):
        spec = ServingSpec(
            backend="batched",
            batch_policy="windowed",
            max_batch_size=4,
            batch_window=0.02,
            trace="constant",
            trace_rate=1e9,
        )
        engine = spec.build_engine(stepping_network)
        assert engine.batch_policy.name == "windowed"
        assert engine.batch_policy.max_batch_size == 4
        assert engine.batch_policy.window == pytest.approx(0.02)
        assert type(engine.backend) is SteppingBackend

    def test_num_subnets_cap_limits_served_levels(self, stepping_network, sample_pool):
        """A shallow node stops refining at its declared cap."""
        images, labels = sample_pool
        spec = ServingSpec(
            trace="constant",
            trace_rate=1e12,
            overhead_per_step=0.0,
            num_subnets=2,
        )
        engine = spec.build_engine(stepping_network)
        assert engine.backend.num_subnets == 2
        requests = poisson_stream(images, labels, rate=50.0, num_requests=6, seed=0)
        report = engine.serve(requests)
        assert report.completed_jobs
        assert all(job.final_subnet == 1 for job in report.jobs)
        assert all(job.stop_reason == "largest subnet reached" for job in report.jobs)

    def test_num_subnets_cap_shrinks_advertised_demand(self, stepping_network):
        """Routers see the capped node's smaller service demand."""
        full = ServingSpec(trace="constant", trace_rate=1e9)
        shallow = ServingSpec(trace="constant", trace_rate=1e9, num_subnets=2)
        full_backend = full.build_backend(stepping_network)
        shallow_backend = shallow.build_backend(stepping_network)
        assert shallow_backend.num_subnets == 2
        assert shallow_backend.subnet_macs(
            shallow_backend.num_subnets - 1
        ) < full_backend.subnet_macs(full_backend.num_subnets - 1)

    def test_cap_larger_than_model_is_harmless(self, stepping_network):
        spec = ServingSpec(trace="constant", trace_rate=1e9, num_subnets=99)
        backend = spec.build_backend(stepping_network)
        assert backend.num_subnets == stepping_network.num_subnets
