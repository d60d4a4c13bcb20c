"""Benchmark: load-triggered work-stealing and batch sharding.

Serves ``configs/cluster_steal.json`` — a three-node fleet under a
*one-hot-node* skew: two request bursts arrive while the router is
partitioned from every node but one, so the whole backlog piles onto a
single node, then the partitions heal.  The only thing that can move
the backlog afterwards is the rebalance tick:

* **smoke study** (always, and the CI regression anchor): the skewed
  workload served three ways — the no-rebalance control, the same
  fleet with load-triggered stealing, and stealing behind the
  power-of-two-choices router.  Every number is simulated time derived
  deterministically from MAC counts, so ``bench_check.py`` compares
  the section *exactly* against the checked-in baseline and gates on
  the headline claim: stealing strictly improves the load imbalance
  (and must not lose bit-equality to solo incremental inference —
  recompute MACs for stolen in-flight work are charged honestly).
* **sharding study** (always): one oversized batch split into
  slice-view shards the router spreads across the fleet, gathered back
  at the coordinator, against serving the same batch whole.
* **trigger sweep** (full mode): the rebalance knob as a SweepSpec
  axis — off, conservative and aggressive thresholds, with and without
  in-flight stealing — reduced to one scorecard row per cell.

For scale context the smoke section also quotes the p95 of the PR 9
sweep baseline (``results/BENCH_sweep.json``) when it is present; the
fleets differ, so the quote is informational, not gated.

Regenerated artifact: ``results/BENCH_steal.json``::

    PYTHONPATH=src python benchmarks/bench_steal.py --smoke
"""

import argparse
import json
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
DEFAULT_CLUSTER = Path(__file__).parent / "configs" / "cluster_steal.json"

#: The rebalance knob of the smoke study's stealing arms.  The interval
#: is ~one full-quality job service time: the trigger re-evaluates about
#: as often as the victim can retire a job, so the post-heal backlog
#: drains in a handful of steal rounds.
REBALANCE = {
    "enabled": True,
    "interval": 0.0005,
    "imbalance_ratio": 1.5,
    "starvation_depth": 0,
    "max_steals": 4,
    "steal_in_flight": True,
}

#: Full-mode sweep axis: the trigger from off to aggressive.
SWEEP_REBALANCE_AXIS = (
    None,
    {"enabled": True, "interval": 0.001, "imbalance_ratio": 3.0, "max_steals": 2},
    dict(REBALANCE),
    dict(REBALANCE, steal_in_flight=False),
)


def _metrics(report):
    """The headline scorecard of one arm (simulated time only)."""
    data = report.as_dict()
    return {
        key: data[key]
        for key in (
            "completed",
            "num_jobs",
            "makespan",
            "p50_latency",
            "p95_latency",
            "p99_latency",
            "load_imbalance",
            "total_macs",
            "total_macs_recomputed",
            "steals",
            "inflight_steals",
            "migrations",
            "failovers",
            "lost",
        )
    }


def _bit_equal_to_solo(network, report):
    """Every completed job replays bit-identically on a solo oracle."""
    import numpy as np

    from repro.core.incremental import IncrementalInference

    for job in report.jobs:
        if job.status != "completed" or not job.steps:
            continue
        oracle = IncrementalInference(network, dtype=np.float32)
        result = oracle.run(job.request.inputs, subnet=job.steps[0].subnet)
        results = [result] + [oracle.step_to(step.subnet) for step in job.steps[1:]]
        for step, ref in zip(job.steps, results):
            if step.subnet != ref.subnet or not np.array_equal(step.logits, ref.logits):
                return False
        if not np.array_equal(job.final_logits, results[-1].logits):
            return False
    return True


def _macs_exact(network, report):
    """total == useful work + declared recompute, per executed step."""
    per_level = [float(network.subnet_macs(0))] + [
        float(network.subnet_macs(level)) - float(network.subnet_macs(level - 1))
        for level in range(1, network.num_subnets)
    ]
    expected = sum(
        per_level[step.subnet] for job in report.jobs for step in job.steps
    )
    return abs((report.total_macs - report.total_macs_recomputed) - expected) < 1e-6


def run_smoke_study(base, network):
    """Control vs stealing vs stealing-behind-p2c on the skewed workload."""
    from repro.serving import ObservabilitySpec, ServingCluster
    from repro.serving.analyze import decompose_latency, decomposition_summary
    from repro.serving.sweep import apply_overrides

    arms = {}
    reports = {}
    for arm, overrides in (
        ("control", {}),
        ("rebalance", {"rebalance": dict(REBALANCE)}),
        ("rebalance_p2c", {"rebalance": dict(REBALANCE),
                           "router": "power-of-two-choices"}),
    ):
        spec = apply_overrides(base, overrides) if overrides else base
        cluster = ServingCluster.from_spec(spec, network)
        recorder = ObservabilitySpec(enabled=True).build()
        try:
            report = cluster.serve(recorder=recorder)
        finally:
            recorder.close()
        reports[arm] = report
        arms[arm] = {
            "metrics": _metrics(report),
            "decomposition": decomposition_summary(
                decompose_latency(recorder.events)
            ),
            "num_steal_events": sum(
                1 for event in recorder.events if event["type"] == "steal"
            ),
        }

    control = reports["control"]
    payload = dict(arms)
    payload["imbalance_improvement"] = {
        arm: control.load_imbalance - reports[arm].load_imbalance
        for arm in ("rebalance", "rebalance_p2c")
    }
    payload["p95_vs_control"] = {
        arm: control.p95_latency - reports[arm].p95_latency
        for arm in ("rebalance", "rebalance_p2c")
    }
    payload["bit_equal_to_solo"] = all(
        _bit_equal_to_solo(network, report) for report in reports.values()
    )
    payload["macs_exact"] = all(
        _macs_exact(network, report) for report in reports.values()
    )
    return payload


def run_sharding_study(base, network):
    """One oversized batch: whole on one node vs sharded across the fleet."""
    import numpy as np

    from repro.serving import Request, ServingCluster
    from repro.serving.sweep import apply_overrides

    rng = np.random.default_rng(0)
    inputs = rng.standard_normal((24, 3, 16, 16)).astype(np.float32)
    workload = lambda: [Request(request_id=0, arrival_time=0.0, inputs=inputs)]

    plain = apply_overrides(base, {"faults": None})
    whole = ServingCluster.from_spec(plain, network).serve(workload())
    sharded_spec = apply_overrides(
        plain, {"rebalance": {"shard_max_batch": 8}, "router": "least-loaded"}
    )
    sharded = ServingCluster.from_spec(sharded_spec, network).serve(workload())

    gathered = sharded.gathered_logits()
    parent_logits = gathered.get(0)

    def peak_context_bytes(report):
        return max(node.peak_resident_bytes for node in report.node_reports)

    return {
        "batch_size": int(inputs.shape[0]),
        "shard_max_batch": 8,
        "shards": sharded.shards,
        "shard_groups": {
            str(parent): list(shards)
            for parent, shards in sorted(sharded.shard_groups.items())
        },
        "whole": _metrics(whole),
        "sharded": _metrics(sharded),
        # The simulated step cost is batch-size-blind (the shared-pass
        # model), so sharding's win is the *memory* axis: no single node
        # has to hold the whole batch's inference context.
        "peak_context_bytes": {
            "whole": peak_context_bytes(whole),
            "sharded": peak_context_bytes(sharded),
        },
        "makespan_ratio": sharded.makespan / whole.makespan,
        "gathered_complete": parent_logits is not None
        and int(parent_logits.shape[0]) == int(inputs.shape[0]),
        "bit_equal_to_solo": _bit_equal_to_solo(network, sharded),
    }


def run_trigger_sweep(base, network):
    """Full mode: the rebalance knob as a sweep axis."""
    from repro.serving import SweepSpec, run_sweep

    sweep = SweepSpec(
        base=base,
        grid={"rebalance": SWEEP_REBALANCE_AXIS},
        name="trigger-sweep",
    )
    result = run_sweep(sweep, network)
    payload = result.to_dict()
    for row in payload["rows"]:
        knob = row["overrides"]["rebalance"]
        row["overrides"]["rebalance"] = (
            "off" if not knob
            else f"ratio={knob['imbalance_ratio']:g}"
            + (",inflight" if knob.get("steal_in_flight") else "")
        )
    return payload


def check_smoke(payload) -> None:
    """The assertions CI runs against the smoke study."""
    control = payload["control"]["metrics"]
    for arm in ("control", "rebalance", "rebalance_p2c"):
        metrics = payload[arm]["metrics"]
        assert metrics["completed"] == metrics["num_jobs"], (
            f"{arm}: the skewed workload must complete fully"
        )
        assert metrics["lost"] == 0, f"{arm} lost requests"
    assert control["steals"] == 0, "the control arm must not steal"
    for arm in ("rebalance", "rebalance_p2c"):
        metrics = payload[arm]["metrics"]
        assert metrics["steals"] > 0, f"{arm}: the skew must trigger steals"
        assert metrics["load_imbalance"] < control["load_imbalance"], (
            f"{arm}: stealing must strictly improve the load imbalance "
            f"({metrics['load_imbalance']} vs control {control['load_imbalance']})"
        )
        assert payload[arm]["num_steal_events"] == metrics["steals"], (
            f"{arm}: every steal must be traced"
        )
        fractions = payload[arm]["decomposition"]["phase_fractions"]
        assert abs(sum(fractions.values()) - 1.0) < 1e-9, (
            f"{arm}: phase fractions must sum to 1"
        )
        assert "rebalance_hold" in fractions
    assert payload["bit_equal_to_solo"] is True, (
        "stealing may trade latency and MACs, never answers"
    )
    assert payload["macs_exact"] is True, (
        "recompute MACs must be charged honestly"
    )


def check_sharding(payload) -> None:
    assert payload["shards"] > 1, "the oversized batch must shard"
    assert payload["gathered_complete"] is True, (
        "every shard's logits must gather back into the parent answer"
    )
    assert payload["bit_equal_to_solo"] is True
    peak = payload["peak_context_bytes"]
    assert peak["sharded"] < peak["whole"], (
        "sharding must spread the batch's inference context across the fleet"
    )
    assert payload["makespan_ratio"] <= 1.0 + 1e-9, (
        "sharding must not regress the makespan"
    )


def _sweep_reference():
    """p95 quotes from the PR 9 sweep baseline, when it is checked in."""
    baseline = RESULTS_DIR / "BENCH_sweep.json"
    if not baseline.exists():
        return None
    rows = json.loads(baseline.read_text())["smoke"]["rows"]
    return {
        json.dumps(row["overrides"], sort_keys=True): row["metrics"]["p95_latency"]
        for row in rows
    }


def main() -> None:
    from repro.serving import ClusterSpec

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--cluster",
        type=Path,
        default=DEFAULT_CLUSTER,
        help="base ClusterSpec JSON (default: the checked-in skewed fleet)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="smoke + sharding studies only + assertions (CI gate)",
    )
    parser.add_argument(
        "--out-dir", type=Path, default=RESULTS_DIR, help="artifact directory"
    )
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    base = ClusterSpec.from_json(args.cluster)
    network = base.build_network()

    smoke = run_smoke_study(base, network)
    check_smoke(smoke)
    sharding = run_sharding_study(base, network)
    check_sharding(sharding)
    payload = {
        "config": {"cluster": str(args.cluster.name), "rebalance": REBALANCE},
        "smoke": smoke,
        "sharding": sharding,
    }
    reference = _sweep_reference()
    if reference is not None:
        payload["sweep_reference_p95"] = reference

    if not args.smoke:
        payload["trigger_sweep"] = run_trigger_sweep(base, network)

    out = args.out_dir / "BENCH_steal.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    for arm in ("control", "rebalance", "rebalance_p2c"):
        metrics = smoke[arm]["metrics"]
        print(
            f"{arm}: imbalance={metrics['load_imbalance']:.3f} "
            f"p95={metrics['p95_latency']:.5f} steals={metrics['steals']} "
            f"(inflight {metrics['inflight_steals']})"
        )
    peak = sharding["peak_context_bytes"]
    print(
        f"sharding: {sharding['shards']} shards, peak context "
        f"{peak['whole']} -> {peak['sharded']} bytes, "
        f"gathered={sharding['gathered_complete']}"
    )
    print(f"wrote {out}")


# ----------------------------------------------------------------------
# Pytest face: the anchor studies at smoke scale
# ----------------------------------------------------------------------
def test_steal_smoke_study():
    """Skewed fleet: steals fire, imbalance improves, answers unchanged."""
    from repro.serving import ClusterSpec

    base = ClusterSpec.from_json(DEFAULT_CLUSTER)
    network = base.build_network()
    first = run_smoke_study(base, network)
    check_smoke(first)
    again = run_smoke_study(base, network)
    assert json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_shard_study():
    from repro.serving import ClusterSpec

    base = ClusterSpec.from_json(DEFAULT_CLUSTER)
    network = base.build_network()
    check_sharding(run_sharding_study(base, network))


if __name__ == "__main__":
    main()
