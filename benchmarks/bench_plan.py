#!/usr/bin/env python
"""Benchmark: compiled inference plans vs the legacy stepping engine.

Measures what the :class:`~repro.core.plan.NetworkPlan` buys on the
serving hot path — per-step wall-clock latency, steps per second and
end-to-end serving throughput — by running the *same* network, inputs
and request stream through the legacy per-step-masking engine
(``compiled=False``, the pre-plan behaviour) and the compiled fast path.

Unlike the ``bench_*`` pytest benchmarks, this is a plain script so CI
can run it as a smoke job::

    PYTHONPATH=src python benchmarks/bench_plan.py --smoke

Results are written as machine-readable JSON (default
``benchmarks/results/BENCH_plan.json``) so per-PR perf regressions are
visible as artefact diffs.  Two sections are exact, not timings, and
``bench_check.py`` gates both: ``gemm_macs`` counts the conv GEMM MACs
one prefix ladder issues against the full-depth count, and
``equivalence`` checks that the ladder's logits are bit-equal whether
each step runs its warm edge program, its cold one (``aux`` dropped
before every step), or as one member of a 3-member ``execute_batch``,
and that all three leave byte-identical column buffers and pooled maps.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread *before* numpy loads: a ladder's GEMMs are
# interactive-sized, where thread fan-out only adds dispatch jitter.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.baselines.common import set_prefix_assignments
from repro.core import IncrementalInference, NetworkPlan, SteppingNetwork
from repro.core.plan import BatchMember, _HiddenStep
from repro.core.pruning import apply_unstructured_pruning
from repro.models import lenet_3c1l
from repro.runtime.platform import ResourceTrace
from repro.serving import ServingEngine, SteppingBackend, poisson_stream

DEFAULT_OUT = Path(__file__).parent / "results" / "BENCH_plan.json"
DTYPE = np.float32  # the serving default; the plan targets deployment inference


def build_network(width_scale: float, num_subnets: int):
    """A LeNet-3C1L stepping network with nested subnets and live pruning.

    Training is irrelevant to step latency, so the network is assembled
    directly: calibrated prefix assignments give genuinely distinct
    per-level deltas and magnitude pruning gives a realistic sparse mask.
    """
    spec = lenet_3c1l(num_classes=10, input_shape=(3, 32, 32), width_scale=width_scale)
    network = SteppingNetwork(
        spec.expand(1.5), num_subnets=num_subnets, rng=np.random.default_rng(0)
    )
    fractions = [(level + 1) / num_subnets for level in range(num_subnets)]
    set_prefix_assignments(network, fractions)
    network.assignment.validate()
    apply_unstructured_pruning(network, 3e-2)
    network.eval()
    return network


def gemm_macs(network) -> dict:
    """Exact per-sample conv GEMM MACs of one prefix ladder, from the compiled slabs.

    A step to level ``t`` multiplies its slab's rows by its depth (the
    im2col rows of the input channels active at ``t``) by the output
    pixels; ``full_depth`` counts the same rows at the layer's full
    im2col depth, the cost before depth truncation.
    """
    plan = NetworkPlan.for_network(network, dtype=DTYPE)
    issued = full_depth = 0
    for step in plan.steps:
        if not (isinstance(step, _HiddenStep) and step.kind == "conv"):
            continue
        pixels = step.out_spatial[0] * step.out_spatial[1]
        width = step.in_channels * step.kernel[0] * step.kernel[1]
        for level in range(plan.num_subnets):
            rows, depth = step.slabs.pack(level - 1, level).weight.shape
            issued += rows * depth * pixels
            full_depth += rows * width * pixels
    return {
        "ladder": list(range(plan.num_subnets)),
        "issued": issued,
        "full_depth": full_depth,
        "ratio": issued / full_depth,
    }


def equivalence(network, inputs) -> dict:
    """Exact: the prefix ladder's logits and ``aux`` buffers, bit-equal three ways.

    Against warm steps (each step's buffers left by the last), the same
    ladder with ``aux`` dropped before every step runs each edge's cold
    program, and the same inputs as one member of a 3-member
    ``execute_batch`` run through the group entry point.  After every
    step all three must hold byte-identical column buffers and pooled
    maps (``aux_equal``): a cold step zeroes only the column rows it does
    not pack.  Checked at one sample and at the benchmark's batch, so the
    in-place single-sample conv GEMM is covered too.
    """
    plan = NetworkPlan.for_network(network, dtype=DTYPE)
    ladder = range(plan.num_subnets)

    def aux_bytes(aux):
        return [aux[key].tobytes() for key in sorted(aux, key=repr) if key != "level"]

    def solo(samples, drop_aux):
        cache, aux, logits, level, out, buffers = {}, {}, None, -1, [], []
        for target in ladder:
            if drop_aux:
                aux.clear()
            logits = plan.execute(samples, cache, aux, logits, level, target)
            level = target
            out.append(logits.tobytes())
            buffers.append(aux_bytes(aux))
        return out, buffers

    def batched(samples):
        members = [
            BatchMember(inputs=x, cache={}, aux={})
            for x in (samples, samples[::-1].copy(), -samples)
        ]
        level, out, buffers = -1, [], []
        for target in ladder:
            logits = plan.execute_batch(members, level, target)
            for member, member_logits in zip(members, logits):
                member.logits = member_logits
            level = target
            out.append(logits[0].tobytes())
            buffers.append(aux_bytes(members[0].aux))
        return out, buffers

    cold = batch = aux = True
    for samples in (inputs[:1], inputs):
        samples = samples.astype(DTYPE)
        warm, warm_aux = solo(samples, drop_aux=False)
        cold_logits, cold_aux = solo(samples, drop_aux=True)
        batch_logits, batch_aux = batched(samples)
        cold &= cold_logits == warm
        batch &= batch_logits == warm
        aux &= cold_aux == warm_aux == batch_aux
    return {"warm_equals_cold": cold, "warm_equals_batched": batch, "aux_equal": aux}


def time_stepping(network, inputs, compiled: bool, repeats: int) -> dict:
    """Wall-clock of run(subnet 0) + step_to(1..N-1), averaged over repeats."""
    engine = IncrementalInference(network, dtype=DTYPE, compiled=compiled)
    num_subnets = network.num_subnets
    engine.run(inputs, subnet=0)  # warmup: builds plan / primes caches
    for level in range(1, num_subnets):
        engine.step_to(level)
    per_level = [[] for _ in range(num_subnets)]
    for _ in range(repeats):
        start = time.perf_counter()
        engine.run(inputs, subnet=0)
        per_level[0].append(time.perf_counter() - start)
        for level in range(1, num_subnets):
            start = time.perf_counter()
            engine.step_to(level)
            per_level[level].append(time.perf_counter() - start)
    steps = repeats * num_subnets
    mean_step = float(np.mean([np.mean(samples) for samples in per_level]))
    return {
        "mean_step_ms": mean_step * 1e3,
        "steps_per_second": steps / sum(float(np.sum(s)) for s in per_level),
        "per_level_ms": [float(np.mean(samples)) * 1e3 for samples in per_level],
    }


def time_serving(network, images, compiled: bool, num_requests: int) -> dict:
    """Wall-clock of one full ServingEngine run over a Poisson stream."""
    largest = float(network.subnet_macs(network.num_subnets - 1))
    trace = ResourceTrace.constant(largest / 0.25, name="steady")
    requests = poisson_stream(
        images,
        rate=8.0,
        num_requests=num_requests,
        relative_deadline=2.0,
        batch_size=2,
        seed=0,
    )
    backend = SteppingBackend(network, compiled=compiled)
    engine = ServingEngine(backend, trace, "edf")
    start = time.perf_counter()
    report = engine.serve(requests)
    wall = time.perf_counter() - start
    return {
        "wall_seconds": wall,
        "requests_per_second_wall": num_requests / wall,
        "completed": len(report.completed_jobs),
        "simulated_throughput_rps": report.throughput,
        "deadline_miss_rate": report.deadline_miss_rate,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny configuration for CI smoke runs"
    )
    parser.add_argument("--repeats", type=int, default=None, help="timing repetitions")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="JSON output path")
    args = parser.parse_args()

    if args.smoke:
        width_scale, batch, num_requests, repeats = 0.25, 4, 24, 3
    else:
        width_scale, batch, num_requests, repeats = 1.0, 8, 120, 5
    if args.repeats is not None:
        repeats = args.repeats
    num_subnets = 4

    network = build_network(width_scale, num_subnets)
    rng = np.random.default_rng(42)
    inputs = rng.standard_normal((batch, 3, 32, 32))
    serving_images = rng.standard_normal((64, 3, 32, 32))

    plan_start = time.perf_counter()
    NetworkPlan.for_network(network, dtype=DTYPE, refresh=True)
    plan_build_seconds = time.perf_counter() - plan_start

    results = {
        "config": {
            "model": "lenet-3c1l",
            "width_scale": width_scale,
            "num_subnets": num_subnets,
            "batch_size": batch,
            "dtype": np.dtype(DTYPE).name,
            "repeats": repeats,
            "num_requests": num_requests,
            "smoke": bool(args.smoke),
        },
        "plan_build_seconds": plan_build_seconds,
        "gemm_macs": gemm_macs(network),
        "equivalence": equivalence(network, inputs),
        "stepping": {},
        "serving": {},
    }
    for label, compiled in (("legacy", False), ("compiled", True)):
        results["stepping"][label] = time_stepping(network, inputs, compiled, repeats)
        results["serving"][label] = time_serving(network, serving_images, compiled, num_requests)

    step = results["stepping"]
    serve = results["serving"]
    results["speedup"] = {
        "per_step": step["legacy"]["mean_step_ms"] / step["compiled"]["mean_step_ms"],
        "steps_per_second": step["compiled"]["steps_per_second"]
        / step["legacy"]["steps_per_second"],
        "serving_wall": serve["legacy"]["wall_seconds"] / serve["compiled"]["wall_seconds"],
    }

    print(f"plan build: {plan_build_seconds * 1e3:.1f} ms (amortised over every step)")
    macs = results["gemm_macs"]
    print(
        f"conv GEMM MACs per ladder: {macs['issued']} issued vs "
        f"{macs['full_depth']} at full depth ({macs['ratio']:.3f}x)"
    )
    print(
        "ladder logits bit-equal: cold rebuild "
        f"{results['equivalence']['warm_equals_cold']}, batched member "
        f"{results['equivalence']['warm_equals_batched']}; aux buffers "
        f"{results['equivalence']['aux_equal']}"
    )
    for label in ("legacy", "compiled"):
        row = step[label]
        print(
            f"{label:>9s}: {row['mean_step_ms']:8.3f} ms/step, "
            f"{row['steps_per_second']:8.1f} steps/s | serving "
            f"{serve[label]['wall_seconds']:6.2f} s wall, "
            f"{serve[label]['requests_per_second_wall']:7.1f} req/s"
        )
    print(
        f"  speedup: {results['speedup']['per_step']:.2f}x per step, "
        f"{results['speedup']['serving_wall']:.2f}x serving wall-clock"
    )

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
