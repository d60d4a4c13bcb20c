#!/usr/bin/env python
"""Benchmark: the compiled inference plan on the serving hot path.

Measures a :class:`~repro.core.plan.NetworkPlan`'s per-step wall-clock
latency, steps per second, the ladder tax and end-to-end serving
throughput on one network, inputs and request stream.

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
that all three leave byte-identical column buffers and pooled maps, and
that every column buffer holds the bytes of the training path's
``im2col`` over its conv's input map (``columns_match_im2col``); it
checks the LeNet-3C1L ladder and a VGG-16 one (width 0.25, 32x32), whose
2x2 convs run as dense GEMMs.

The timings are host-normalised (``perfbench/probe.py``): the ladders
and ``run(x, top)`` from scratch run in interleaved rounds, each slice
bracketed by the probe and scaled by ``P_REF / probe``, so a slow host
period hits both alike.
``ladder_tax`` is a ladder's wall over ``run(x, top)``'s wall, per round:
SteppingNet promises that a full ladder costs what its largest subnet
costs, i.e. a tax of 1.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread *before* numpy loads: a ladder's GEMMs are
# interactive-sized, where thread fan-out only adds dispatch jitter.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from repro.baselines.common import set_prefix_assignments
from repro.core import IncrementalInference, NetworkPlan, SteppingNetwork
from repro.core.plan import BatchMember, _HiddenStep, _PoolStep
from repro.core.pruning import apply_unstructured_pruning
from repro.models import lenet_3c1l, vgg16
from repro.nn.functional import im2col
from repro.runtime.platform import ResourceTrace
from repro.serving import ServingEngine, SteppingBackend, poisson_stream

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.probe import Probe, SliceTimer  # noqa: E402  (the repository root's probe)

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


def build_vgg16(num_subnets: int):
    """The anytime VGG-16 (width 0.25, 32x32, prefix levels, pruned); its
    three 2x2-input convs compile to dense GEMMs."""
    network = SteppingNetwork(
        vgg16(num_classes=10, width_scale=0.25),
        num_subnets=num_subnets,
        rng=np.random.default_rng(0),
    )
    set_prefix_assignments(network, [(level + 1) / num_subnets for level in range(num_subnets)])
    network.assignment.validate()
    apply_unstructured_pruning(network, 3e-2)
    network.eval()
    return network


def gemm_macs(network) -> dict:
    """Exact per-sample conv GEMM MACs of one prefix ladder, from the compiled slabs.

    A step to level ``t`` multiplies its slab's rows by its columns (the
    bias column, which meets the column buffer's ones row, then the
    im2col rows of the input channels active at ``t``) by the output
    pixels; a dense conv's rows already span its pixels, and its bias is
    added apart.  ``full_depth`` counts the same units at the layer's full
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
            slab = step.slabs.pack(level - 1, level)
            rows, columns = slab.weight.shape
            issued += rows * (columns - 1) if step.dense else rows * columns * pixels
            full_depth += slab.units.size * width * pixels
    return {
        "ladder": list(range(plan.num_subnets)),
        "issued": issued,
        "full_depth": full_depth,
        "ratio": issued / full_depth,
    }


def _column_checker(network, plan):
    """``check(x, cache, aux, level)``: whether every im2col conv's column
    buffer holds, at the rows of the input channels active at ``level``,
    the channel-major ``im2col`` of the conv's current input map."""
    convs, read = [], lambda x, cache, aux: x
    for step in plan.steps:
        if isinstance(step, _HiddenStep):
            if step.kind == "conv" and not step.dense:
                levels = np.asarray(network.input_unit_subnet(step.param_index))
                convs.append((step, read, levels))
            read = lambda x, cache, aux, key=step.param_index: cache[key]  # noqa: E731
        elif isinstance(step, _PoolStep):
            read = lambda x, cache, aux, key=("pool", step.index): aux[key]  # noqa: E731

    def check(x, cache, aux, level) -> bool:
        for step, read_map, levels in convs:
            patches, _ = im2col(read_map(x, cache, aux), step.kernel, step.stride, step.padding)
            want = patches.reshape(-1, patches.shape[-1]).T.reshape(step.in_channels, -1)
            rows = aux[("cols", step.param_index)][1:].reshape(step.in_channels, -1)
            active = np.flatnonzero(levels <= level)
            if rows[active].tobytes() != want[active].tobytes():
                return False
        return True

    return check


def equivalence(network, inputs) -> dict:
    """Exact: the prefix ladder's logits and ``aux`` buffers, bit-equal three ways.

    Against warm steps (each step's buffers left by the last), the same
    ladder with ``aux`` dropped before every step runs each edge's cold
    program, and the same inputs as one member of a 3-member
    ``execute_batch`` run through the group entry point.  After every
    step all three must hold byte-identical column buffers and pooled
    maps (``aux_equal``): a cold step zeroes only the column rows it does
    not pack.  After every step each column buffer's active channel rows
    must also equal the ``im2col`` of its conv's input map
    (``columns_match_im2col``), in either scratch geometry.  Checked at one
    sample and at the benchmark's batch, so the in-place single-sample
    conv GEMM is covered too.
    """
    plan = NetworkPlan.for_network(network, dtype=DTYPE)
    ladder = range(plan.num_subnets)
    check_columns, columns = _column_checker(network, plan), True

    def aux_bytes(aux):
        return [aux[key].tobytes() for key in sorted(aux, key=repr) if key != "level"]

    def solo(samples, drop_aux):
        nonlocal columns
        cache, aux, logits, level, out, buffers = {}, {}, None, -1, [], []
        for target in ladder:
            if drop_aux:
                aux.clear()
            logits = plan.execute(samples, cache, aux, logits, level, target)
            level = target
            columns &= check_columns(samples, cache, aux, level)
            out.append(logits.tobytes())
            buffers.append(aux_bytes(aux))
        return out, buffers

    def batched(samples):
        nonlocal columns
        members = [
            BatchMember(inputs=x, cache={}, aux={})
            for x in (samples, samples[::-1].copy(), -samples)
        ]
        level, out, buffers = -1, [], []
        for target in ladder:
            logits = plan.execute_batch(members, level, target)
            for member, member_logits in zip(members, logits):
                member.logits = member_logits
                columns &= check_columns(member.inputs, member.cache, member.aux, target)
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
    return {
        "warm_equals_cold": cold,
        "warm_equals_batched": batch,
        "aux_equal": aux,
        "columns_match_im2col": columns,
    }


def _quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "iqr": [float(q1), float(q3)]}


def time_stepping(network, inputs, rounds: int, slice_seconds: float = 0.02) -> dict:
    """Host-normalised ladders and top runs, in interleaved rounds.

    A ladder is ``run(subnet 0)`` then ``step_to(1..N-1)``.  Each round
    times one slice of ladders and one slice of ``run(x, top)`` from
    scratch (the order alternates between rounds); a slice repeats its
    work often enough to last ``slice_seconds``, is bracketed by the
    probe, and its walls are scaled by the slice's normalisation factor.
    Per level, the median over every timed ladder.
    """
    top = network.num_subnets - 1
    engine = IncrementalInference(network, dtype=DTYPE)

    def ladder(engine):
        walls, start = [], time.perf_counter()
        engine.run(inputs, subnet=0)
        for level in range(1, top + 1):
            walls.append(time.perf_counter() - start)
            start = time.perf_counter()
            engine.step_to(level)
        walls.append(time.perf_counter() - start)
        return walls

    ladder(engine)  # warm-up: primes caches and BLAS
    engine.run(inputs, subnet=top)
    start = time.perf_counter()
    ladder(engine)
    repeat = max(1, int(np.ceil(slice_seconds / (time.perf_counter() - start))))
    slices = {"ladder": partial(ladder, engine), "top": partial(engine.run, inputs, subnet=top)}
    timer = SliceTimer(Probe())
    levels = []
    walls = {label: [] for label in slices}
    for round_index in range(rounds):
        order = list(slices) if round_index % 2 == 0 else list(slices)[::-1]
        for label in order:
            runs, wall, factor = timer.time(lambda: [slices[label]() for _ in range(repeat)])
            walls[label].append(wall * factor / repeat)
            if label == "ladder":
                levels.extend([w * factor for w in run] for run in runs)
    ladder_ms = 1e3 * float(np.median(walls["ladder"]))
    compiled = {
        "mean_step_ms": ladder_ms / (top + 1),
        "steps_per_second": 1e3 * (top + 1) / ladder_ms,
        "ladder_ms": ladder_ms,
        "per_level_ms": [1e3 * float(ms) for ms in np.median(np.asarray(levels), axis=0)],
        "top_run_ms": 1e3 * float(np.median(walls["top"])),
    }
    ladder_tax = _quartiles(np.asarray(walls["ladder"]) / np.asarray(walls["top"]))
    return {"compiled": compiled, "ladder_tax": ladder_tax}


def time_serving(network, images, rounds: int, num_requests: int) -> dict:
    """Host-normalised wall of full ServingEngine runs over one Poisson
    stream (median over ``rounds``)."""
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
    engine = ServingEngine(SteppingBackend(network), trace, "edf")
    report = engine.serve(requests)
    timer = SliceTimer(Probe())
    walls = []
    for _ in range(rounds):
        _, wall, factor = timer.time(lambda: engine.serve(requests))
        walls.append(wall * factor)
    wall = float(np.median(walls))
    return {
        "compiled": {
            "wall_seconds": wall,
            "requests_per_second_wall": num_requests / wall,
            "completed": len(report.completed_jobs),
            "simulated_throughput_rps": report.throughput,
            "deadline_miss_rate": report.deadline_miss_rate,
        }
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny configuration for CI smoke runs"
    )
    parser.add_argument("--repeats", type=int, default=None, help="interleaved timing rounds")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="JSON output path")
    args = parser.parse_args()

    if args.smoke:
        width_scale, batch, num_requests, repeats = 0.25, 4, 24, 9
    else:
        width_scale, batch, num_requests, repeats = 1.0, 8, 120, 31
    if args.repeats is not None:
        repeats = args.repeats
    serve_rounds = max(1, repeats // 4)
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
        "equivalence": {
            **equivalence(network, inputs),
            **{
                f"vgg16_{check}": equal
                for check, equal in equivalence(build_vgg16(num_subnets), inputs).items()
            },
        },
        "stepping": time_stepping(network, inputs, repeats),
        "serving": time_serving(network, serving_images, serve_rounds, num_requests),
    }
    results["ladder_tax"] = results["stepping"].pop("ladder_tax")

    print(f"plan build: {plan_build_seconds * 1e3:.1f} ms (amortised over every step)")
    macs = results["gemm_macs"]
    print(
        f"conv GEMM MACs per ladder: {macs['issued']} issued vs "
        f"{macs['full_depth']} at full depth ({macs['ratio']:.3f}x)"
    )
    for model, prefix in (("lenet-3c1l", ""), ("vgg-16", "vgg16_")):
        equal = results["equivalence"]
        print(
            f"{model} ladder logits bit-equal: cold rebuild "
            f"{equal[prefix + 'warm_equals_cold']}, batched member "
            f"{equal[prefix + 'warm_equals_batched']}; aux buffers "
            f"{equal[prefix + 'aux_equal']}; columns match im2col "
            f"{equal[prefix + 'columns_match_im2col']}"
        )
    step, serve = results["stepping"]["compiled"], results["serving"]["compiled"]
    print(
        f"compiled: {step['mean_step_ms']:8.3f} ms/step, "
        f"{step['steps_per_second']:8.1f} steps/s | serving "
        f"{serve['wall_seconds']:6.2f} s wall, "
        f"{serve['requests_per_second_wall']:7.1f} req/s"
    )
    tax = results["ladder_tax"]
    print(
        f"ladder tax (ladder / run(x, top), per round): {tax['median']:.3f} "
        f"(IQR {tax['iqr'][0]:.3f}-{tax['iqr'][1]:.3f})"
    )

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
