"""Run loops: the untraced end-to-end run and the traced per-layer run.

Both follow the same rules:

* every slice of work is bracketed by the host-speed probe and reported
  normalised (:mod:`perfbench.probe`); raw values go to the diagnostics;
* ``gc.collect()`` runs before timing and between units, outside the
  timed slices, and the collector stays enabled while slices run;
* each unit is verified after it ran, outside the timed region.

The traced run interleaves untraced and traced units of the same work,
so the span timers' own cost (``host.wrapper_overhead``) is measured on
the same host state as the spans.  On a workload that traces the
program (``fleet-chaos``) the rest of the run interleaves units with the
program's observability on and off, span timers removed, for
``observe.overhead_ratio``.
"""

from __future__ import annotations

import gc
import json
import math
import resource
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import numpy as np

from .probe import Probe, SliceTimer
from .spans import SpanRecorder, layer_metrics, layer_targets, plan_work_counters
from .workloads import Checks, Unit, matmul_ceiling

BENCHMARK_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: ``setup_s`` is the median of this many set-ups in one run.
SETUP_REPEATS = 3
#: Share of a traced run given to traced/untraced pairs when the rest
#: measures the program's own tracing overhead.
PAIR_SHARE_WITH_OBSERVE = 0.6

Result = Tuple[dict, dict]


def _run_for(seconds: float, step: Callable[[int], None]) -> None:
    """Call ``step(0)``, ``step(1)``, ... until ``seconds`` passed; at least once."""
    end = perf_counter() + seconds
    index = 0
    while index == 0 or perf_counter() < end:
        step(index)
        index += 1


def _throughput(units: List[Unit], raw: bool = False) -> float:
    """Requests per second from the median wall of each kind of sample."""
    walls: Dict[int, Tuple[int, List[float]]] = {}
    for unit in units:
        for key, requests, wall, norm_wall in unit.samples:
            walls.setdefault(key, (requests, []))[1].append(wall if raw else norm_wall)
    requests = sum(count for count, _ in walls.values())
    return requests / sum(median(samples) for _, samples in walls.values())


def _percentiles(latencies: Dict[str, List[float]]) -> Dict[str, float]:
    values = {}
    for family, samples in latencies.items():
        p50, p90 = np.percentile(samples, [50, 90])
        values[f"{family}_p50"] = float(p50)
        values[f"{family}_p90"] = float(p90)
    return values


def _result(checks: Checks, values: Dict[str, float], kind: str) -> dict:
    """The result object, with the metric set and units BENCHMARK.json declares."""
    declared = {
        entry["name"]: entry["unit"] for entry in json.loads(BENCHMARK_FILE.read_text())[kind]
    }
    if set(declared) != set(values):
        raise RuntimeError(
            f"measured {kind} metrics differ from BENCHMARK.json: {sorted(set(declared) ^ set(values))}"
        )
    metrics = {}
    for name, unit in declared.items():
        value = float(values[name])
        checks.require(math.isfinite(value), f"metric {name} is not finite")
        metrics[name] = {"value": value if math.isfinite(value) else 0.0, "unit": unit}
    return {
        "correct": not checks.problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }


def measure(workload, seconds: float) -> Result:
    """The untraced run: every end-to-end metric."""
    probe = Probe()
    timer = SliceTimer(probe)
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        timer.rebase()
        _, wall, factor = timer.time(workload.setup)
        setups.append((wall * factor, wall))
    workload.prepare_checks()
    checks = Checks()
    units: List[Unit] = []

    def step(index: int) -> None:
        gc.collect()
        timer.rebase()
        unit = workload.run_unit(timer, index)
        workload.verify(unit, checks)
        units.append(unit)

    _run_for(seconds, step)
    workload.check_mechanisms(checks)
    latencies, raw_latencies, hit_rate, delivered = workload.summary(units)
    values = _percentiles(latencies)
    values.update(
        setup_s=median(norm for norm, _ in setups),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        serve_rps=_throughput(units),
        delivered_level_mean=delivered,
        deadline_hit_rate=hit_rate,
    )
    raw = _percentiles(raw_latencies)
    raw.update(setup_s=median(wall for _, wall in setups), serve_rps=_throughput(units, raw=True))
    diagnostics = {
        "raw": raw,
        "units": len(units),
        "problems": checks.problems,
        "probe_ms_p50": 1e3 * median(probe.samples),
    }
    return _result(checks, values, "end_to_end"), diagnostics


def measure_traced(workload, seconds: float) -> Result:
    """The traced run: every per-layer metric."""
    probe = Probe()
    timer = SliceTimer(probe)
    workload.setup()
    workload.prepare_checks()
    ceiling = matmul_ceiling(workload.gemm_shapes)
    recorder = SpanRecorder(layer_targets(), plan_work_counters())
    checks = Checks()

    def unit(index: int, traced: bool = False, observe: bool = True) -> Unit:
        gc.collect()
        timer.rebase()
        if traced:
            recorder.install()
            timer.around = lambda work: recorder.call("harness", work)
        try:
            result = workload.run_unit(timer, index, observe)
        finally:
            if traced:
                timer.around = None
                recorder.uninstall()
        workload.verify(result, checks)
        return result

    pairs: List[Tuple[Unit, Unit]] = []
    observe_ratios: List[float] = []

    def pair(index: int) -> None:
        pairs.append((unit(index), unit(index, traced=True)))

    def observe_pair(index: int) -> None:
        on, off = unit(index), unit(index, observe=False)
        observe_ratios.append(on.norm_wall / off.norm_wall)

    if workload.measures_observe:
        _run_for(seconds * PAIR_SHARE_WITH_OBSERVE, pair)
        _run_for(seconds * (1.0 - PAIR_SHARE_WITH_OBSERVE), observe_pair)
    else:
        _run_for(seconds, pair)
    workload.check_mechanisms(checks)
    traced = [traced_unit for _, traced_unit in pairs]
    counters = {
        key: float(np.mean([traced_unit.counters[key] for traced_unit in traced]))
        for key in traced[0].counters
    }
    values = layer_metrics(
        recorder,
        wall=sum(traced_unit.wall for traced_unit in traced),
        requests=sum(traced_unit.requests for traced_unit in traced),
        counters=counters,
        ceiling=ceiling,
        probe_samples=probe.samples,
        wrapper_overhead=median(t.norm_wall / p.norm_wall for p, t in pairs) - 1.0,
        observe_ratio=median(observe_ratios) if observe_ratios else 0.0,
    )
    diagnostics = {
        "pairs": len(pairs),
        "observe_pairs": len(observe_ratios),
        "problems": checks.problems,
        "spans": recorder.stats,
    }
    return _result(checks, values, "per_layer"), diagnostics
