"""Benchmark: anytime inference on a resource-varying platform.

This is the deployment experiment the paper motivates but does not
tabulate: a stream of frames, each with a deadline, executed on a
platform whose available throughput changes mid-stream (a power-mode
switch and a duty-cycled accelerator).  SteppingNet's computational reuse
means a step-up only pays the *delta* MACs, so under the same trace it
reaches larger subnets by the deadline than a slimmable-style platform
that must recompute from scratch.

Regenerated artefacts: per-scenario rows with the mean subnet level
reached by the deadline, the accuracy at the deadline, the deadline miss
rate and the MAC savings of reuse, saved to ``results/runtime_*.json``.
"""

import numpy as np
import pytest

from repro.analysis.experiments import SMOKE, minimum_image_size, prepare_data, prepare_spec, scaled_config
from repro.core.api import build_steppingnet
from repro.runtime import (
    AnytimeExecutor,
    GreedyPolicy,
    RecomputeExecutor,
    ResourceTrace,
    periodic_requests,
    simulate_stream,
)
from repro.runtime.traces import duty_cycle_trace, power_mode_switch_trace
from repro.runtime.platform import PlatformSpec


MODEL = "lenet-3c1l"
DATASET = "cifar10"
FRAME_PERIOD = 1.0
DEADLINE = 0.9


@pytest.fixture(scope="module")
def trained_network():
    """A constructed + retrained SteppingNet at smoke scale (runtime cost, not accuracy, is under test)."""
    scale = SMOKE
    size = max(scale.image_size, minimum_image_size(MODEL))
    train_loader, test_loader, num_classes = prepare_data(DATASET, scale, image_size=size)
    spec = prepare_spec(MODEL, num_classes, scale, image_size=size)
    config = scaled_config(MODEL, scale)
    result = build_steppingnet(spec, train_loader, test_loader, config)
    images, labels = test_loader.full_batch()
    return result.network, images, labels


def _scenarios(network):
    """Resource traces scaled to the network: the largest subnet takes ~60% of a frame at peak."""
    largest = network.subnet_macs(network.num_subnets - 1)
    peak = largest / (0.6 * DEADLINE)
    platform = PlatformSpec("bench-soc", peak, power_modes={"normal": 1.0, "saver": 0.3})
    return {
        "steady": ResourceTrace.constant(peak, name="steady"),
        "power-switch": power_mode_switch_trace(
            platform, "normal", "saver", switch_time=3.0 * FRAME_PERIOD, name="power-switch"
        ),
        "duty-cycle": duty_cycle_trace(
            peak, 0.3 * peak, period=2.0 * FRAME_PERIOD, duty=0.5, cycles=12, name="duty-cycle"
        ),
    }


def _run_scenarios(trained_network, save_result):
    network, images, labels = trained_network
    rows = []
    for name, trace in _scenarios(network).items():
        requests = periodic_requests(
            images, labels, frame_period=FRAME_PERIOD, relative_deadline=DEADLINE, batch_size=8
        )
        reuse = simulate_stream(AnytimeExecutor(network, trace, GreedyPolicy()), requests)
        recompute = simulate_stream(RecomputeExecutor(network, trace, GreedyPolicy()), requests)
        rows.append(
            {
                "scenario": name,
                "reuse_subnet_at_deadline": reuse.mean_subnet_at_deadline,
                "recompute_subnet_at_deadline": recompute.mean_subnet_at_deadline,
                "reuse_accuracy_at_deadline": reuse.mean_accuracy_at_deadline,
                "recompute_accuracy_at_deadline": recompute.mean_accuracy_at_deadline,
                "reuse_miss_rate": reuse.deadline_miss_rate,
                "recompute_miss_rate": recompute.deadline_miss_rate,
                "reuse_total_macs": reuse.total_macs,
                "recompute_total_macs": recompute.total_macs,
            }
        )
    print()
    for row in rows:
        print(
            f"{row['scenario']:>14s}: subnet@deadline reuse {row['reuse_subnet_at_deadline']:.2f} "
            f"vs recompute {row['recompute_subnet_at_deadline']:.2f}; "
            f"MACs {row['reuse_total_macs']:.3g} vs {row['recompute_total_macs']:.3g}"
        )
    save_result("runtime_reuse_vs_recompute", {"rows": rows})
    return rows


def test_runtime_reuse_vs_recompute(benchmark, trained_network, save_result):
    rows = benchmark.pedantic(
        _run_scenarios, args=(trained_network, save_result), rounds=1, iterations=1
    )
    by_name = {row["scenario"]: row for row in rows}
    for row in rows:
        # Reuse never reaches a *smaller* subnet by the deadline than recompute...
        assert row["reuse_subnet_at_deadline"] >= row["recompute_subnet_at_deadline"] - 1e-9
        # ...and never executes more MACs for it.
        assert row["reuse_total_macs"] <= row["recompute_total_macs"] + 1e-9
        assert row["reuse_miss_rate"] <= row["recompute_miss_rate"] + 1e-9
    # Under constrained scenarios the advantage is strict.
    constrained = [by_name["power-switch"], by_name["duty-cycle"]]
    assert any(
        row["reuse_subnet_at_deadline"] > row["recompute_subnet_at_deadline"] for row in constrained
    )


def test_runtime_confidence_policy_saves_macs(benchmark, trained_network, save_result):
    """A confidence-threshold policy spends fewer MACs than always stepping to the top."""
    from repro.runtime import ConfidencePolicy

    network, images, labels = trained_network
    largest = network.subnet_macs(network.num_subnets - 1)
    trace = ResourceTrace.constant(largest / (0.6 * DEADLINE), name="steady")
    requests = periodic_requests(
        images, labels, frame_period=FRAME_PERIOD, relative_deadline=DEADLINE, batch_size=8
    )

    def _run():
        greedy = simulate_stream(AnytimeExecutor(network, trace, GreedyPolicy()), requests)
        confident = simulate_stream(
            AnytimeExecutor(network, trace, ConfidencePolicy(threshold=0.8)), requests
        )
        payload = {
            "greedy": greedy.to_dict(),
            "confidence": confident.to_dict(),
        }
        save_result("runtime_policies", payload)
        return greedy, confident

    greedy, confident = benchmark.pedantic(_run, rounds=1, iterations=1)
    assert confident.total_macs <= greedy.total_macs + 1e-9
    # Early exits should not cost much accuracy at the deadline.
    if np.isfinite(greedy.mean_accuracy_at_deadline) and np.isfinite(
        confident.mean_accuracy_at_deadline
    ):
        assert confident.mean_accuracy_at_deadline >= greedy.mean_accuracy_at_deadline - 0.15
