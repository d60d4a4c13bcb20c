"""The benchmark's three workloads.

Each workload makes its inputs from the run's seed, runs units of work
through a :class:`~perfbench.probe.SliceTimer` (every slice bracketed by
the host-speed probe) and verifies each unit after it ran, outside the
timed region:

* final logits -- all of them, or a seeded sample -- are bit-equal to
  solo ``IncrementalInference`` on the same network and dtype, and a
  repeat of the same inputs reproduces every logit and every simulated
  counter exactly;
* every request is accounted for: one record each, and
  ``attempted = completed + lost + rejected + dropped``;
* each mechanism a workload exists to exercise fired, checked once per
  run by ``check_mechanisms``.

``anytime-vgg16``
    One closed-loop client sends batch-1 32x32 inputs through a pruned
    float32 VGG-16 (width 0.25, 4 subnets): ``IncrementalInference.run``
    at subnet 0, then ``step_to(1..3)``.  Every ladder does milliseconds
    of host work, so request latency is measured host time.  There are
    no deadlines: every delivered ladder counts as a hit.
``serve-continuous``
    One EDF ``ServingEngine`` with continuous batching (16 wide) over the
    32-level tiny-CNN early-exit ladder under a deadline-respecting
    confidence policy.  Open-loop Poisson arrivals at about the trace's
    capacity are pushed and run in ``run_until`` slices.  Request latency
    is simulated time (a model output); host cost is throughput.
``fleet-chaos``
    Six nodes behind the power-of-two-choices router: four batched
    continuous mobile-soc nodes and two memory-bounded LRU vehicle-ecu
    stepping nodes, with published depths, degrade admission,
    work-stealing, a seeded chaos schedule (crash with recovery,
    transient, slowdown, partition) and program tracing on.  Each unit is
    one short ``serve()``; units cycle through a few seeded scenarios.
    Latency is simulated, as on ``serve-continuous``.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.common import set_prefix_assignments
from repro.core import IncrementalInference, SteppingNetwork
from repro.core.pruning import apply_unstructured_pruning
from repro.models import ConvSpec, PoolSpec, tiny_cnn, vgg16
from repro.runtime.platform import ResourceTrace
from repro.runtime.policies import ConfidencePolicy
from repro.serving import (
    BatchedSteppingBackend,
    ClusterSpec,
    ContinuousBatching,
    FaultSpec,
    ObservabilitySpec,
    RebalanceSpec,
    RetryPolicy,
    ServingCluster,
    ServingEngine,
    ServingSpec,
    StreamSpec,
    poisson_stream,
)

DTYPE = np.float32
STATUSES = frozenset({"completed", "dropped", "rejected", "lost"})
LATENCY_FAMILIES = ("first_pred_ms", "step_ms", "full_ms")


class Checks:
    """Correctness bookkeeping of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def require(self, condition: bool, problem: str) -> None:
        if not condition and problem not in self.problems:
            self.problems.append(problem)


@dataclass
class Unit:
    """One timed unit of a workload and what it produced."""

    requests: int = 0
    wall: float = 0.0
    norm_wall: float = 0.0
    #: ``(key, requests, raw wall, normalised wall)`` per throughput
    #: sample; samples sharing a key did identical work.
    samples: List[Tuple[int, int, float, float]] = field(default_factory=list)
    #: Measured host latencies in ms, normalised and raw.
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    raw_latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: The unit's outputs, until ``verify`` consumes them.
    outcome: object = None
    #: Simulated counters the per-layer metrics read.
    counters: Dict[str, float] = field(default_factory=dict)

    def add(self, wall: float, factor: float) -> None:
        self.wall += wall
        self.norm_wall += wall * factor


@dataclass
class Quality:
    """Simulated request outcomes: latencies (ms), deadline hits, levels."""

    latencies: Dict[str, List[float]] = field(
        default_factory=lambda: {family: [] for family in LATENCY_FAMILIES}
    )
    requests: int = 0
    hits: int = 0
    levels: int = 0

    def add_jobs(self, jobs) -> None:
        for job in jobs:
            # Rejected, lost and dropped requests have no steps: they
            # miss their deadline and deliver level 0.
            self.requests += 1
            self.hits += job.deadline_met
            self.levels += job.subnet_at_deadline + 1
            if not job.steps or not math.isfinite(job.completion_time):
                continue
            arrival = job.request.arrival_time
            self.latencies["first_pred_ms"].append(1e3 * (job.first_result_time - arrival))
            self.latencies["full_ms"].append(1e3 * (job.completion_time - arrival))
            last = job.steps[0].finish_time
            for step in job.steps[1:]:
                # Levels caught up inside one dispatch reach the client
                # together; only a later finish is a new refinement.
                if step.finish_time > last:
                    self.latencies["step_ms"].append(1e3 * (step.finish_time - last))
                    last = step.finish_time

    def merge(self, other: "Quality") -> None:
        for family in LATENCY_FAMILIES:
            self.latencies[family].extend(other.latencies[family])
        self.requests += other.requests
        self.hits += other.hits
        self.levels += other.levels

    def summary(self):
        """``(latencies, raw latencies, hit rate, mean delivered level)``."""
        return self.latencies, self.latencies, self.hits / self.requests, self.levels / self.requests


def _replay(oracle: IncrementalInference, inputs, levels: Sequence[int]) -> List[np.ndarray]:
    """Per-level logits of a solo walk over ``levels`` on a fresh context."""
    logits = [oracle.run(inputs, levels[0]).logits]
    logits.extend(oracle.step_to(level).logits for level in levels[1:])
    return logits


def _mismatches(oracle: IncrementalInference, jobs, rng, size: int) -> int:
    """Requests in a seeded sample whose logits differ from solo inference."""
    served = [job for job in jobs if job.steps]
    if not served:
        return 0
    picks = rng.choice(len(served), size=min(size, len(served)), replace=False)
    mismatched = 0
    for index in sorted(int(pick) for pick in picks):
        job = served[index]
        expected = _replay(oracle, job.request.inputs, [step.subnet for step in job.steps])
        same = all(
            step.logits is None or np.array_equal(step.logits, reference)
            for step, reference in zip(job.steps, expected)
        )
        mismatched += not (same and np.array_equal(job.final_logits, expected[-1]))
    return mismatched


def _accounting(jobs, requests, checks: Checks, label: str) -> Counter:
    """Check one record per request and the status partition."""
    checks.require(
        sorted(job.request.request_id for job in jobs)
        == sorted(request.request_id for request in requests),
        f"{label}: not exactly one record per request",
    )
    statuses = Counter(job.status for job in jobs)
    checks.require(
        set(statuses) <= STATUSES, f"{label}: statuses outside {sorted(STATUSES)}: {sorted(statuses)}"
    )
    return statuses


def conv_gemm_shapes(arch, num_subnets: int) -> List[Tuple[int, int, int]]:
    """Batch-1 conv GEMM shapes ``(rows, depth, columns)`` of one subnet step.

    Derived from the public ``ArchitectureSpec``: a step adds about
    ``1/num_subnets`` of each conv layer's filters, multiplied against
    the layer's full-depth im2col columns.
    """
    channels, height, width = arch.input_shape
    shapes = []
    for layer in arch.layers:
        if isinstance(layer, ConvSpec):
            height = (height + 2 * layer.padding - layer.kernel_size) // layer.stride + 1
            width = (width + 2 * layer.padding - layer.kernel_size) // layer.stride + 1
            rows = max(1, layer.out_channels // num_subnets)
            shapes.append((rows, channels * layer.kernel_size ** 2, height * width))
            channels = layer.out_channels
        elif isinstance(layer, PoolSpec):
            stride = layer.stride or layer.kernel_size
            height = (height - layer.kernel_size) // stride + 1
            width = (width - layer.kernel_size) // stride + 1
    return shapes


def matmul_ceiling(shapes: Sequence[Tuple[int, int, int]], repeats: int = 30) -> float:
    """Best ``np.matmul`` rate in GMAC/s over one pass of ``shapes``."""
    rng = np.random.default_rng(0)
    operands = [
        (rng.standard_normal((rows, depth)).astype(DTYPE), rng.standard_normal((depth, columns)).astype(DTYPE))
        for rows, depth, columns in shapes
    ]
    macs = sum(rows * depth * columns for rows, depth, columns in shapes)
    best = math.inf
    for _ in range(repeats):
        start = perf_counter()
        for left, right in operands:
            np.matmul(left, right)
        best = min(best, perf_counter() - start)
    return macs / best / 1e9


class AnytimeVGG16:
    """The paper's own model and use: one closed-loop anytime client."""

    name = "anytime-vgg16"
    measures_observe = False
    LEVELS = 4
    WIDTH_SCALE = 0.25
    PRUNE_THRESHOLD = 3e-2
    POOL = 64
    LADDERS_PER_SLICE = 10
    SLICES_PER_UNIT = 10

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        network = SteppingNetwork(
            vgg16(num_classes=10, width_scale=self.WIDTH_SCALE),
            num_subnets=self.LEVELS,
            rng=np.random.default_rng(0),
        )
        set_prefix_assignments(network, [(level + 1) / self.LEVELS for level in range(self.LEVELS)])
        network.assignment.validate()
        apply_unstructured_pruning(network, self.PRUNE_THRESHOLD)
        network.eval()
        engine = IncrementalInference(network, dtype=DTYPE)
        engine.plan  # compile now: a set-up cost, not the first request's
        rng = np.random.default_rng(self.seed)
        self.images = rng.standard_normal((self.POOL, 1) + network.spec.input_shape).astype(DTYPE)
        self.network, self.engine = network, engine
        self.cursor = 0
        self.completed = self.levels = 0

    def prepare_checks(self) -> None:
        oracle = IncrementalInference(self.network, dtype=DTYPE)
        ladder = list(range(self.LEVELS))
        self.expected = [_replay(oracle, image, ladder)[-1] for image in self.images]
        reused = sum(step.macs_reused for step in oracle.steps)
        self.reuse_fraction = reused / sum(step.macs_reused + step.macs_executed for step in oracle.steps)
        self.gemm_shapes = conv_gemm_shapes(self.network.spec, self.LEVELS)

    def _ladders(self):
        engine, images = self.engine, self.images
        times: Dict[str, List[float]] = {family: [] for family in LATENCY_FAMILIES}
        finals = []
        for _ in range(self.LADDERS_PER_SLICE):
            index = self.cursor % self.POOL
            self.cursor += 1
            start = perf_counter()
            result = engine.run(images[index], 0)
            mark = perf_counter()
            times["first_pred_ms"].append(mark - start)
            for level in range(1, self.LEVELS):
                result = engine.step_to(level)
                now = perf_counter()
                times["step_ms"].append(now - mark)
                mark = now
            times["full_ms"].append(mark - start)
            finals.append((index, result))
        return times, finals

    def run_unit(self, timer, index: int = 0, observe: bool = True) -> Unit:
        unit = Unit(outcome=[])
        for _ in range(self.SLICES_PER_UNIT):
            (times, finals), wall, factor = timer.time(self._ladders)
            unit.add(wall, factor)
            unit.requests += len(finals)
            unit.samples.append((0, len(finals), wall, wall * factor))
            for family, seconds in times.items():
                unit.raw_latencies.setdefault(family, []).extend(1e3 * s for s in seconds)
                unit.latencies.setdefault(family, []).extend(1e3 * factor * s for s in seconds)
            unit.outcome.extend(finals)
        return unit

    def verify(self, unit: Unit, checks: Checks) -> None:
        finals, unit.outcome = unit.outcome, None
        mismatched = sum(
            not np.array_equal(result.logits, self.expected[index]) for index, result in finals
        )
        checks.count(len(finals), mismatched)
        checks.require(
            all(result.macs_reused > 0 for _, result in finals),
            f"{self.name}: a step recomputed the smaller subnet's work",
        )
        self.completed += sum(result.subnet == self.LEVELS - 1 for _, result in finals)
        self.levels += sum(result.subnet + 1 for _, result in finals)
        unit.counters = {"reuse_fraction": self.reuse_fraction}

    def check_mechanisms(self, checks: Checks) -> None:
        """Reuse is checked on every ladder by :meth:`verify`."""

    def summary(self, units: List[Unit]):
        requests = sum(unit.requests for unit in units)
        pooled = {
            attribute: {
                family: [value for unit in units for value in getattr(unit, attribute)[family]]
                for family in LATENCY_FAMILIES
            }
            for attribute in ("latencies", "raw_latencies")
        }
        return pooled["latencies"], pooled["raw_latencies"], self.completed / requests, self.levels / requests


class ServeContinuous:
    """The event-loop workload: one EDF node with continuous batching."""

    name = "serve-continuous"
    measures_observe = False
    NUM_SUBNETS = 32
    ENTRY_FRACTION = 1.0 / 16.0
    SECONDS_FOR_LARGEST = 0.04
    OVERHEAD_PER_STEP = 5e-4
    #: Below saturation, so queueing mixes fast and a seed's outcome is
    #: steady; deadlines still cut the quiet requests' refinement.
    UTILIZATION = 0.7
    RELATIVE_DEADLINE = 0.06
    MAX_BATCH_SIZE = 16
    MAX_CATCHUP_LEVELS = 7
    CONFIDENCE_THRESHOLD = 0.9
    #: Two-class early-exit images: loud inputs are confident at subnet
    #: 0, near-zero ones never get confident and climb the ladder.
    FRAC_LOUD = 0.9
    LOUD_SCALE = 400.0
    QUIET_SCALE = 1e-3
    POOL = 1024
    NUM_REQUESTS = 8000
    PROBE_REQUESTS = 128
    REQUESTS_PER_SLICE = 800
    LOGIT_SAMPLE = 64

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        spec = tiny_cnn(num_classes=10, input_shape=(3, 12, 12), width_scale=0.5).expand(1.5)
        network = SteppingNetwork(spec, num_subnets=self.NUM_SUBNETS, rng=np.random.default_rng(0))
        set_prefix_assignments(
            network,
            [
                self.ENTRY_FRACTION + level * (1.0 - self.ENTRY_FRACTION) / (self.NUM_SUBNETS - 1)
                for level in range(self.NUM_SUBNETS)
            ],
        )
        network.assignment.validate()
        apply_unstructured_pruning(network, 3e-2)
        network.eval()
        rng = np.random.default_rng(self.seed)
        images = rng.standard_normal((self.POOL,) + spec.input_shape) * self.QUIET_SCALE
        images[: int(self.POOL * self.FRAC_LOUD)] *= self.LOUD_SCALE / self.QUIET_SCALE
        rng.shuffle(images, axis=0)
        images = images.astype(DTYPE)
        capacity = float(network.subnet_macs(self.NUM_SUBNETS - 1)) / self.SECONDS_FOR_LARGEST
        policy = ConfidencePolicy(threshold=self.CONFIDENCE_THRESHOLD, respect_deadline=True)
        engine = ServingEngine(
            BatchedSteppingBackend(network, policy=policy, dtype=DTYPE),
            ResourceTrace.constant(capacity, name="steady"),
            "edf",
            batch_policy=ContinuousBatching(self.MAX_BATCH_SIZE, self.MAX_CATCHUP_LEVELS),
            overhead_per_step=self.OVERHEAD_PER_STEP,
        )
        # Offered load follows the MACs a request consumes under early
        # exit, measured on an unloaded, deadline-free probe stream.
        probe = engine.serve(poisson_stream(images, rate=1.0, num_requests=self.PROBE_REQUESTS, seed=self.seed))
        rate = self.UTILIZATION * capacity * self.PROBE_REQUESTS / probe.total_macs
        requests = poisson_stream(
            images,
            rate=rate,
            num_requests=self.NUM_REQUESTS,
            relative_deadline=self.RELATIVE_DEADLINE,
            seed=self.seed,
        )
        last = len(requests) - 1
        self.slices = [
            (lo, min(lo + self.REQUESTS_PER_SLICE, len(requests)),
             requests[min(lo + self.REQUESTS_PER_SLICE, last)].arrival_time)
            for lo in range(0, len(requests), self.REQUESTS_PER_SLICE)
        ]
        self.network, self.engine, self.requests = network, engine, requests
        self.reference: Optional[Tuple[str, list]] = None

    def prepare_checks(self) -> None:
        self.oracle = IncrementalInference(self.network, dtype=DTYPE)
        self.gemm_shapes = conv_gemm_shapes(self.network.spec, self.NUM_SUBNETS)

    def run_unit(self, timer, index: int = 0, observe: bool = True) -> Unit:
        run = self.engine.open_run()
        requests = self.requests
        unit = Unit(requests=len(requests))

        def advance(lo: int, hi: int, until: float) -> None:
            for request in requests[lo:hi]:
                run.push(request)
            run.run_until(until)

        for lo, hi, until in self.slices:
            _, wall, factor = timer.time(lambda: advance(lo, hi, until))
            unit.add(wall, factor)
        report, wall, factor = timer.time(run.finish)
        unit.add(wall, factor)
        unit.samples.append((0, unit.requests, unit.wall, unit.norm_wall))
        unit.outcome = report
        return unit

    def verify(self, unit: Unit, checks: Checks) -> None:
        report, unit.outcome = unit.outcome, None
        jobs = report.jobs
        statuses = _accounting(jobs, self.requests, checks, self.name)
        signature = json.dumps(report.to_dict(), sort_keys=True)
        finals = [job.final_logits for job in jobs]
        if self.reference is None:
            mismatched = _mismatches(self.oracle, jobs, np.random.default_rng(self.seed), self.LOGIT_SAMPLE)
            self.reference = (signature, finals)
            self.quality = Quality()
            self.quality.add_jobs(jobs)
            self.mechanisms = (report.refilled_jobs, report.mean_batch_occupancy)
        else:
            checks.require(
                signature == self.reference[0], f"{self.name}: simulated counters changed between repeats"
            )
            mismatched = sum(not np.array_equal(a, b) for a, b in zip(finals, self.reference[1]))
        checks.count(len(self.requests), mismatched + statuses.get("lost", 0))
        unit.counters = {
            "reuse_fraction": report.reuse_fraction,
            "recompute_share": report.recompute_overhead,
            "occupancy_mean": report.mean_batch_occupancy,
            "dispatches": report.num_dispatches,
            "refilled_jobs": report.refilled_jobs,
            "evictions": report.aux_evictions + report.cache_evictions,
        }

    def check_mechanisms(self, checks: Checks) -> None:
        refills, occupancy = self.mechanisms
        checks.require(refills > 0, f"{self.name}: continuous batching never refilled a wave")
        checks.require(occupancy > 1.0, f"{self.name}: mean batch occupancy is not above 1")

    def summary(self, units: List[Unit]):
        return self.quality.summary()


@dataclass
class _Scenario:
    """One seeded fleet scenario and the reference its first serve set."""

    spec: ClusterSpec
    cluster: ServingCluster
    requests: list
    quiet: Optional[ServingCluster] = None
    reference: Optional[Tuple[str, list]] = None
    quality: Optional[Quality] = None
    counters: Dict[str, float] = field(default_factory=dict)


class FleetChaos:
    """The only load on cluster, faults, rebalance, memory and observe."""

    name = "fleet-chaos"
    measures_observe = True
    LEVELS = 4
    SOC_NODES = 4
    ECU_NODES = 2
    #: Seeded scenarios per run: per-scenario chaos outcomes vary a lot,
    #: so the simulated metrics pool many scenarios to stay steady.
    SCENARIOS = 24
    #: Simulated seconds one full ladder takes on each node kind.
    SOC_LADDER_SECONDS = 2e-3
    ECU_LADDER_SECONDS = 1e-3
    LOAD = 1.2
    POISSON_REQUESTS = 320
    BURSTS = 4
    BURST_SIZE = 20
    TIGHT_DEADLINE = 0.012
    LOOSE_DEADLINE = 0.04
    PUBLISH_INTERVAL = 5e-4
    BUDGET_CONTEXTS = 2.5
    CHAOS = {
        "crash_rate": 8.0,
        "recover_fraction": 1.0,
        "transient_rate": 25.0,
        "slowdown_rate": 5.0,
        "partition_rate": 5.0,
    }
    FAULT_KINDS = frozenset({"crash", "transient", "slowdown", "partition"})
    RETRY = RetryPolicy(base_delay=5e-4, max_delay=4e-3, max_retries=4)
    POOL = 32
    LOGIT_SAMPLE = 32

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _chaos(self, names: Sequence[str], horizon: float, seed: int) -> FaultSpec:
        """A seeded chaos schedule that holds every fault kind.

        Sub-seeds are drawn in order until one schedule contains each
        kind, so the schedule stays a pure function of the seed.
        """
        for attempt in range(1000):
            faults = FaultSpec.random(
                names, horizon=horizon, seed=seed * 1000 + attempt, retry=self.RETRY, **self.CHAOS
            )
            if self.FAULT_KINDS <= {event.kind for event in faults.events}:
                return faults
        raise RuntimeError(f"{self.name}: no chaos schedule holds every fault kind")

    def setup(self) -> None:
        model = {"name": "tiny-cnn", "num_subnets": self.LEVELS}
        network = ClusterSpec(nodes=(ServingSpec(),), model=model).build_network()
        ladder = float(network.subnet_macs(self.LEVELS - 1))
        soc = ServingSpec(
            platform="mobile-soc",
            backend="batched",
            scheduler="edf",
            batch_policy="continuous",
            max_batch_size=8,
            policy="greedy",
            trace="constant",
            trace_rate=ladder / self.SOC_LADDER_SECONDS,
        )
        # Utility-per-MAC serves every waiting first step before any
        # refinement, so suspended contexts pile up against the budget.
        ecu = ServingSpec(
            platform="vehicle-ecu",
            backend="stepping",
            scheduler="utility-per-mac",
            policy="greedy",
            trace="constant",
            trace_rate=ladder / self.ECU_LADDER_SECONDS,
            eviction_policy="lru",
        )
        budget = self.BUDGET_CONTEXTS * ecu.build_backend(network).context_nbytes(1)
        nodes = tuple(replace(soc, name=f"soc{i}") for i in range(self.SOC_NODES)) + tuple(
            replace(ecu, name=f"ecu{i}", memory_budget_bytes=budget) for i in range(self.ECU_NODES)
        )
        names = [node.name for node in nodes]
        rate = self.LOAD * (self.SOC_NODES / self.SOC_LADDER_SECONDS + self.ECU_NODES / self.ECU_LADDER_SECONDS)
        horizon = self.POISSON_REQUESTS / rate
        self.scenarios: List[_Scenario] = []
        for k in range(self.SCENARIOS):
            seed = self.seed * self.SCENARIOS + k
            spec = ClusterSpec(
                nodes=nodes,
                router="power-of-two-choices",
                publish_interval=self.PUBLISH_INTERVAL,
                admission="degrade",
                rebalance=RebalanceSpec(enabled=True, steal_in_flight=True),
                faults=self._chaos(names, horizon, seed),
                observe=ObservabilitySpec(enabled=True),
                streams=(
                    StreamSpec("poisson", {
                        "rate": rate,
                        "num_requests": self.POISSON_REQUESTS,
                        "relative_deadline": self.TIGHT_DEADLINE,
                        "seed": seed,
                    }),
                    StreamSpec("bursty", {
                        "num_bursts": self.BURSTS,
                        "burst_size": self.BURST_SIZE,
                        "mean_gap": horizon / self.BURSTS,
                        "relative_deadline": self.LOOSE_DEADLINE,
                        "seed": seed,
                    }),
                ),
                name=f"{self.name}-{k}",
            )
            images = np.random.default_rng(seed).standard_normal((self.POOL,) + network.spec.input_shape)
            requests = spec.build_requests(images.astype(DTYPE))
            self.scenarios.append(_Scenario(spec, ServingCluster.from_spec(spec, network), requests))
        self.network = network
        self.level_macs = [network.subnet_macs(0)] + [
            network.subnet_macs(level) - network.subnet_macs(level - 1) for level in range(1, self.LEVELS)
        ]

    def prepare_checks(self) -> None:
        self.oracle = IncrementalInference(self.network, dtype=DTYPE)
        self.gemm_shapes = conv_gemm_shapes(self.network.spec, self.LEVELS)

    def run_unit(self, timer, index: int = 0, observe: bool = True) -> Unit:
        key = index % len(self.scenarios)
        scenario = self.scenarios[key]
        if observe:
            cluster, recorder = scenario.cluster, scenario.cluster.observe.build()
        else:
            if scenario.quiet is None:
                quiet = replace(scenario.spec, observe=None)
                scenario.quiet = ServingCluster.from_spec(quiet, self.network)
            cluster, recorder = scenario.quiet, None
        report, wall, factor = timer.time(lambda: cluster.serve(scenario.requests, recorder=recorder))
        unit = Unit(requests=len(scenario.requests))
        unit.add(wall, factor)
        unit.samples.append((key, unit.requests, wall, wall * factor))
        unit.outcome = (scenario, report, recorder)
        return unit

    def verify(self, unit: Unit, checks: Checks) -> None:
        (scenario, report, recorder), unit.outcome = unit.outcome, None
        jobs = [job for node in report.node_reports for job in node.jobs] + list(report.extra_jobs)
        statuses = _accounting(jobs, scenario.requests, checks, self.name)
        steps = [step for job in jobs for step in job.steps]
        charged = sum(step.macs_charged for step in steps)
        recomputed = sum(step.macs_recomputed for step in steps)
        reused = sum(step.macs_reused for step in steps)
        baseline = sum(self.level_macs[step.subnet] for step in steps)
        checks.require(
            charged == baseline + recomputed, f"{self.name}: charged MACs are not baseline + recomputed"
        )
        # Reports are bit-identical with the program's tracing on or off,
        # so one reference serves both arms of the overhead measurement.
        signature = json.dumps(report.to_dict(), sort_keys=True)
        finals = [job.final_logits for job in jobs]
        if scenario.reference is None:
            mismatched = _mismatches(self.oracle, jobs, np.random.default_rng(self.seed), self.LOGIT_SAMPLE)
            scenario.reference = (signature, finals)
            scenario.quality = Quality()
            scenario.quality.add_jobs(jobs)
            events = recorder.events
            scenario.counters = {
                "reuse_fraction": reused / (charged + reused),
                "recompute_share": recomputed / charged,
                "occupancy_mean": report.mean_batch_occupancy,
                "dispatches": sum(node.num_dispatches for node in report.node_reports),
                "refilled_jobs": sum(node.refilled_jobs for node in report.node_reports),
                "evictions": report.aux_evictions + report.cache_evictions,
                "migrations": report.migrations,
                "failovers": report.failovers,
                "retries": report.retries,
                "degraded": report.degraded_admissions,
                "steals": report.steals,
                "crashes": sum(event["type"] == "crash" for event in events),
                "events_per_request": len(events) / len(scenario.requests),
            }
        else:
            checks.require(
                signature == scenario.reference[0], f"{self.name}: simulated counters changed between repeats"
            )
            mismatched = sum(not np.array_equal(a, b) for a, b in zip(finals, scenario.reference[1]))
        if recorder is not None:
            recorder.close()
        checks.count(len(scenario.requests), mismatched + statuses.get("lost", 0))
        unit.counters = scenario.counters

    def check_mechanisms(self, checks: Checks) -> None:
        served = [scenario.counters for scenario in self.scenarios if scenario.reference is not None]

        def total(key: str) -> float:
            return sum(counters[key] for counters in served)

        for key, what in (
            ("crashes", "no node crashed"),
            ("evictions", "no context was evicted"),
            ("steals", "no job was stolen"),
            ("degraded", "no admission was degraded"),
        ):
            checks.require(total(key) > 0, f"{self.name}: {what}")
        checks.require(total("failovers") + total("migrations") > 0, f"{self.name}: no failover or migration")

    def summary(self, units: List[Unit]):
        quality = Quality()
        for scenario in self.scenarios:
            if scenario.quality is not None:
                quality.merge(scenario.quality)
        return quality.summary()


WORKLOADS = {workload.name: workload for workload in (AnytimeVGG16, ServeContinuous, FleetChaos)}
