"""Tests for the spec codec (`repro.serving.codec`) and boundary errors.

Every declarative spec shares one JSON codec: ``to_dict`` output
round-trips through ``from_json`` (text or path), and an unknown key —
top-level or nested — raises :class:`ConfigError` naming its class.
"""

import dataclasses
import json
import math
import re
import typing
from pathlib import Path

import pytest

from repro.serving import (
    ClusterSpec,
    CrashFault,
    FaultSpec,
    ObservabilitySpec,
    PartitionFault,
    RebalanceSpec,
    RetryPolicy,
    ServingSpec,
    SlowdownFault,
    SLOSpec,
    StreamSpec,
    SweepSpec,
    TransientFault,
    get_stream,
)
from repro.serving.codec import Spec, Tagged
from repro.utils.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))

_FLEET = ClusterSpec(
    nodes=(ServingSpec(name="a"), ServingSpec(name="b", observe={"enabled": True})),
    streams=(StreamSpec("poisson", {"rate": 50.0, "num_requests": 4}),),
    model={"name": "tiny-cnn", "num_subnets": 3},
    faults={"events": [{"kind": "crash", "node": "b", "time": 0.1}]},
    slo={"max_p95_latency": 0.5},
    rebalance={"enabled": True, "interval": 0.01},
)

SPECS = [
    StreamSpec("bursty", {"num_bursts": 2, "burst_size": 3, "mean_gap": 0.1}),
    ServingSpec(name="edge", scheduler="edf", policy_params={"threshold": 0.9}),
    _FLEET,
    RebalanceSpec(enabled=True, interval=0.01, shard_max_batch=4),
    ObservabilitySpec(enabled=True, capacity=32, events=("step", "finalize")),
    RetryPolicy(kind="fixed", max_retries=2),
    CrashFault(node="a", time=0.1, recover_time=0.2),
    TransientFault(node="a", time=0.1),
    SlowdownFault(node="a", time=0.0, duration=0.1, factor=0.5),
    PartitionFault(node="a", time=0.0, duration=0.1),
    FaultSpec.random(["a", "b"], horizon=1.0, seed=1, crash_rate=2.0, transient_rate=2.0,
                     slowdown_rate=2.0, partition_rate=2.0),
    SLOSpec(name="tight", max_p99_latency=0.2, min_deadline_hit_rate=0.9),
    SweepSpec(base=_FLEET, grid={"router": ("round-robin", "least-loaded")}, slo={}),
]


@pytest.mark.parametrize(
    "source",
    [pytest.param(spec, id=type(spec).__name__) for spec in SPECS]
    + [pytest.param(path, id=path.name) for path in CONFIGS],
)
def test_codec_round_trip_path_and_unknown_key(source, tmp_path):
    if isinstance(source, Path):
        cls, text = ClusterSpec, source.read_text()
    else:
        cls, text = type(source), json.dumps(source.to_dict())
    spec = cls.from_json(text)
    assert cls.from_json(json.dumps(spec.to_dict())) == spec
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert cls.from_json(path) == spec
    assert cls.from_json(str(path)) == spec
    with pytest.raises(ConfigError, match=rf"unknown {cls.__name__} keys \['bogus'\]"):
        cls.from_dict(dict(json.loads(text), bogus=1))


@pytest.mark.parametrize(
    "path, owner",
    [
        ("nodes.0", "ServingSpec"),
        ("nodes.1.observe", "ObservabilitySpec"),
        ("streams.0", "StreamSpec"),
        ("faults", "FaultSpec"),
        ("faults.events.0", "CrashFault"),
        ("faults.retry", "RetryPolicy"),
        ("slo", "SLOSpec"),
        ("rebalance", "RebalanceSpec"),
    ],
)
def test_nested_unknown_key_names_its_class(path, owner):
    data = _FLEET.to_dict()
    target = data
    for segment in path.split("."):
        target = target[int(segment)] if isinstance(target, list) else target[segment]
    target["bogus"] = 1
    with pytest.raises(ConfigError, match=rf"unknown {owner} keys \['bogus'\]"):
        ClusterSpec.from_dict(data)


def test_missing_required_key_and_non_mapping_rejected():
    with pytest.raises(ConfigError, match=r"SweepSpec needs keys \['base'\]"):
        SweepSpec.from_dict({"grid": {}})
    with pytest.raises(ConfigError, match="ClusterSpec needs a mapping"):
        ClusterSpec.from_dict([1, 2])
    with pytest.raises(ConfigError, match="unknown fault kind"):
        FaultSpec(events=({"node": "a", "time": 0.0},))


# ----------------------------------------------------------------------
# Boundary errors are ConfigError (still KeyError / ValueError)
# ----------------------------------------------------------------------
class TestBoundaryErrors:
    def test_unknown_stream(self):
        with pytest.raises(ConfigError, match="stream"):
            get_stream("trickle")

    @pytest.mark.parametrize("knob", ["policy", "batch_policy"])
    def test_unknown_node_policy(self, knob):
        with pytest.raises(ConfigError, match="oracle"):
            ServingSpec(**{knob: "oracle"})

    def test_unknown_trace(self):
        with pytest.raises(ConfigError, match="solar-flare"):
            ServingSpec(trace="solar-flare").build_trace()

    def test_unknown_model_keys(self):
        spec = ClusterSpec(nodes=(ServingSpec(),), model={"depth": 3})
        with pytest.raises(ConfigError, match="depth"):
            spec.build_network()

    def test_cluster_without_nodes(self):
        with pytest.raises(ConfigError, match="at least one node"):
            ClusterSpec()

    def test_duplicate_node_names(self):
        with pytest.raises(ConfigError, match="unique"):
            ClusterSpec(nodes=(ServingSpec(name="a"), ServingSpec(name="a")))

    @pytest.mark.parametrize("count", [0, -1, 1.5, True])
    def test_bad_node_count(self, count):
        with pytest.raises(ConfigError, match="count"):
            ClusterSpec.from_dict({"nodes": [{"name": "a", "count": count}]})



# ----------------------------------------------------------------------
# Value checks raise ConfigError too, so one ``except ConfigError`` at the
# config boundary catches every bad knob
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "cls, data, match",
    [
        (ServingSpec, {"trace_scale": 0}, "trace_scale"),
        (ServingSpec, {"trace": "constant"}, "trace_rate"),
        (ServingSpec, {"overhead_per_step": -1.0}, "overhead_per_step"),
        (ServingSpec, {"max_batch_size": 0}, "max_batch_size"),
        (ServingSpec, {"batch_window": -1.0}, "batch_window"),
        (ServingSpec, {"num_subnets": 0}, "num_subnets"),
        (ServingSpec, {"max_service_time": 0.0}, "max_service_time"),
        (ServingSpec, {"memory_budget_bytes": -5}, "memory_budget_bytes"),
        (ServingSpec, {"dtype": "float-ish"}, "dtype"),
        (ServingSpec, {"dtype": "int8"}, "ServingSpec.dtype must name a floating dtype"),
        (ServingSpec, {"dtype": "bool"}, "ServingSpec.dtype must name a floating dtype"),
        (ServingSpec, {"dtype": "complex64"}, "ServingSpec.dtype must name a floating dtype"),
        (ServingSpec, {"platform": "toaster"}, "platform"),
        (StreamSpec, {"pool_size": 0}, "pool_size"),
        (RetryPolicy, {"base_delay": -1.0}, "base_delay"),
        (RetryPolicy, {"multiplier": 0.5}, "multiplier"),
        (RetryPolicy, {"base_delay": 0.1, "max_delay": 0.01}, "max_delay"),
        (RetryPolicy, {"max_retries": -1}, "max_retries"),
        (CrashFault, {"node": "a", "time": -1.0}, "CrashFault.time"),
        (CrashFault, {"node": "a", "time": 1.0, "recover_time": 0.5}, "recover_time"),
        (TransientFault, {"node": "a", "time": -1.0}, "TransientFault.time"),
        (SlowdownFault, {"node": "a", "time": -1.0, "duration": 1.0, "factor": 0.5},
         "SlowdownFault.time"),
        (SlowdownFault, {"node": "a", "time": 0.0, "duration": 0.0, "factor": 0.5}, "duration"),
        (SlowdownFault, {"node": "a", "time": 0.0, "duration": 1.0, "factor": 1.5}, "factor"),
        (PartitionFault, {"node": "a", "time": -1.0, "duration": 1.0}, "PartitionFault.time"),
        (PartitionFault, {"node": "a", "time": 0.0, "duration": 0.0}, "duration"),
    ],
)
def test_value_checks_raise_config_error(cls, data, match):
    with pytest.raises(ConfigError, match=match):
        cls.from_dict(data)


# ----------------------------------------------------------------------
# Every scalar field is checked by the codec against its declared kind
# ----------------------------------------------------------------------
def _concrete_specs(cls=Spec):
    for sub in cls.__subclasses__():
        if sub is not Tagged:
            yield sub
        yield from _concrete_specs(sub)


def _scalar_fields(spec):
    """``(name, kind)`` of each bool/int/float/str (or Optional) field."""
    hints = typing.get_type_hints(type(spec))
    for spec_field in dataclasses.fields(spec):
        kinds = set(typing.get_args(hints[spec_field.name]) or [hints[spec_field.name]])
        kinds.discard(type(None))
        if len(kinds) == 1 and kinds <= {bool, int, float, str}:
            yield spec_field.name, kinds.pop()


def test_specs_cover_every_spec_class():
    assert set(_concrete_specs()) == {type(spec) for spec in SPECS}


@pytest.mark.parametrize(
    "spec, name, kind",
    [
        pytest.param(spec, name, kind, id=f"{type(spec).__name__}.{name}")
        for spec in SPECS
        for name, kind in _scalar_fields(spec)
    ],
)
def test_every_scalar_field_rejects_wrong_kinds(spec, name, kind):
    bad = [math.nan, math.inf]
    if kind is not str:
        bad.append("2")
    if kind in (int, float):
        bad.append(True)
    for value in bad:
        message = rf"^{type(spec).__name__}\.{name} must be .*, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(spec, **{name: value})


_CRASH = {"node": "a", "time": 0.0}
_SLOWDOWN = {"node": "a", "time": 0.0, "duration": 1.0, "factor": 0.5}


@pytest.mark.parametrize(
    "cls, data, name",
    [
        (ServingSpec, {"trace_scale": math.nan}, "trace_scale"),
        (ServingSpec, {"batch_window": math.nan}, "batch_window"),
        (ServingSpec, {"max_service_time": math.nan}, "max_service_time"),
        (ServingSpec, {"max_batch_size": 2.5}, "max_batch_size"),
        (ServingSpec, {"max_batch_size": True}, "max_batch_size"),
        (ServingSpec, {"num_subnets": 1.5}, "num_subnets"),
        (ServingSpec, {"drop_expired": "no"}, "drop_expired"),
        (ServingSpec, {"trace": "constant", "trace_rate": -5.0}, "trace_rate"),
        (StreamSpec, {"pool_size": 2.5}, "pool_size"),
        (CrashFault, dict(_CRASH, time=math.nan), "time"),
        (SlowdownFault, dict(_SLOWDOWN, duration=math.inf), "duration"),
        (RetryPolicy, {"base_delay": math.nan}, "base_delay"),
        (RetryPolicy, {"max_retries": 1.5}, "max_retries"),
        (ServingSpec, {"trace_scale": "2"}, "trace_scale"),
        (CrashFault, dict(_CRASH, time="x"), "time"),
        (RetryPolicy, {"max_retries": "2"}, "max_retries"),
    ],
)
def test_mistyped_or_non_finite_knob_is_config_error(cls, data, name):
    with pytest.raises(ConfigError, match=rf"^{cls.__name__}\.{name} must be "):
        cls.from_dict(data)


def test_bad_nested_value_is_config_error_through_from_json():
    with pytest.raises(ConfigError, match="trace_scale"):
        ClusterSpec.from_json('{"nodes": [{"trace_scale": 0}]}')
    event = {"kind": "slowdown", "node": "a", "time": 0, "duration": 1, "factor": 2}
    events = json.dumps({"events": [event]})
    with pytest.raises(ConfigError, match="factor"):
        FaultSpec.from_json(events)


@pytest.mark.parametrize("cls", [ClusterSpec, FaultSpec, ServingSpec])
@pytest.mark.parametrize("text", ["[1, 2]", "  [\n]"])
def test_from_json_non_object_names_its_class(cls, text):
    with pytest.raises(ConfigError, match=rf"{cls.__name__} needs a mapping, got list"):
        cls.from_json(text)


def test_serving_a_fleet_without_streams_is_config_error():
    with pytest.raises(ConfigError, match="declares no request streams"):
        ClusterSpec.from_json('{"nodes": [{}]}').build_requests(input_shape=(3, 12, 12))


def test_from_json_malformed_text_is_config_error():
    with pytest.raises(ConfigError, match="ClusterSpec: invalid JSON"):
        ClusterSpec.from_json('{"nodes": [')
