"""Platform descriptions and piecewise-constant resource traces.

A *platform* is characterised by its peak MAC throughput and a small
per-invocation overhead.  A *resource trace* describes how much of that
throughput is actually available to the neural network over time — the
rest is consumed by co-running tasks, power-saving modes, thermal
throttling, and so on.  Traces are piecewise constant: a sorted list of
:class:`ResourcePhase` entries, each starting at a point in time and
granting a MAC/second rate until the next phase begins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..utils.errors import ConfigError


@dataclass(frozen=True)
class PlatformSpec:
    """Static description of an execution platform.

    Attributes
    ----------
    name:
        Human-readable identifier (``"mobile-soc"``, ``"vehicle-ecu"``).
    peak_macs_per_second:
        MAC throughput with all resources granted to the network.
    invocation_overhead:
        Fixed time (seconds) added to every partial execution — kernel
        launch, cache warm-up, scheduling.  Charged once per executed
        subnet step.
    power_modes:
        Mapping from mode name to the fraction of peak throughput
        available in that mode (e.g. ``{"normal": 1.0, "saver": 0.25}``).
    """

    name: str
    peak_macs_per_second: float
    invocation_overhead: float = 0.0
    power_modes: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.peak_macs_per_second <= 0:
            raise ValueError("peak_macs_per_second must be positive")
        if self.invocation_overhead < 0:
            raise ValueError("invocation_overhead must be non-negative")
        for mode, fraction in self.power_modes.items():
            if not 0.0 < fraction <= 1.0:
                raise ValueError(f"power mode '{mode}' fraction must be in (0, 1]")

    def throughput(self, mode: Optional[str] = None) -> float:
        """Available MAC/s in ``mode`` (default: peak)."""
        if mode is None:
            return self.peak_macs_per_second
        if mode not in self.power_modes:
            raise KeyError(f"unknown power mode '{mode}'; available: {sorted(self.power_modes)}")
        return self.peak_macs_per_second * self.power_modes[mode]


#: Name-based registry of platform specs, mirroring ``models.registry``:
#: declarative serving configs (:class:`~repro.serving.spec.ServingSpec`)
#: refer to platforms by name and resolve them here.
PLATFORMS: Dict[str, "PlatformSpec"] = {}


def register_platform(spec: "PlatformSpec", overwrite: bool = False) -> None:
    """Register ``spec`` under its ``name`` (case-insensitive)."""
    key = spec.name.lower()
    if key in PLATFORMS and not overwrite:
        raise ValueError(f"platform '{spec.name}' is already registered")
    PLATFORMS[key] = spec


def get_platform(name: str) -> "PlatformSpec":
    """Resolve a platform by registry name (``mobile-soc``, ``vehicle-ecu``, ...)."""
    try:
        return PLATFORMS[name.lower()]
    except KeyError as exc:
        raise ConfigError(f"unknown platform '{name}'; available: {sorted(PLATFORMS)}") from exc


# Representative platforms for the examples and benchmarks.  Numbers are
# indicative of the classes of devices the paper's introduction mentions;
# absolute values only set the time scale of the simulation.
MOBILE_SOC = PlatformSpec(
    name="mobile-soc",
    peak_macs_per_second=2.0e9,
    invocation_overhead=1.0e-4,
    power_modes={"normal": 1.0, "balanced": 0.6, "saver": 0.25},
)

VEHICLE_ECU = PlatformSpec(
    name="vehicle-ecu",
    peak_macs_per_second=8.0e9,
    invocation_overhead=5.0e-5,
    power_modes={"exclusive": 1.0, "shared": 0.5, "congested": 0.2},
)

EMBEDDED_MCU = PlatformSpec(
    name="embedded-mcu",
    peak_macs_per_second=5.0e7,
    invocation_overhead=2.0e-4,
    power_modes={"active": 1.0, "low-power": 0.3},
)

for _spec in (MOBILE_SOC, VEHICLE_ECU, EMBEDDED_MCU):
    register_platform(_spec)
del _spec


@dataclass(frozen=True)
class ResourcePhase:
    """One segment of a piecewise-constant resource trace."""

    start_time: float
    macs_per_second: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.start_time < 0:
            raise ValueError("start_time must be non-negative")
        if self.macs_per_second < 0:
            raise ValueError("macs_per_second must be non-negative")


class ResourceTrace:
    """Available MAC throughput over time (piecewise constant).

    The trace starts at the first phase's ``start_time`` (usually 0) and
    the last phase extends to infinity.  Querying before the first phase
    returns a throughput of zero.
    """

    def __init__(self, phases: Sequence[ResourcePhase], name: str = "trace") -> None:
        if not phases:
            raise ValueError("a ResourceTrace needs at least one phase")
        ordered = sorted(phases, key=lambda phase: phase.start_time)
        for first, second in zip(ordered, ordered[1:]):
            if second.start_time <= first.start_time:
                raise ValueError("phase start times must be strictly increasing")
        self.phases: Tuple[ResourcePhase, ...] = tuple(ordered)
        self.name = name

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, macs_per_second: float, name: str = "constant") -> "ResourceTrace":
        """A trace with a single, never-changing throughput."""
        return cls([ResourcePhase(0.0, macs_per_second, label="constant")], name=name)

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[Tuple[float, float]], name: str = "trace"
    ) -> "ResourceTrace":
        """Build a trace from ``(start_time, macs_per_second)`` pairs."""
        return cls([ResourcePhase(start, rate) for start, rate in pairs], name=name)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def throughput_at(self, time: float) -> float:
        """Available MAC/s at an instant."""
        if time < self.phases[0].start_time:
            return 0.0
        current = self.phases[0].macs_per_second
        for phase in self.phases:
            if phase.start_time <= time:
                current = phase.macs_per_second
            else:
                break
        return current

    def phase_at(self, time: float) -> ResourcePhase:
        """The phase governing ``time`` (the first phase for earlier times)."""
        selected = self.phases[0]
        for phase in self.phases:
            if phase.start_time <= time:
                selected = phase
            else:
                break
        return selected

    def boundaries(self) -> List[float]:
        """Start times of all phases."""
        return [phase.start_time for phase in self.phases]

    def available_macs(self, start_time: float, end_time: float) -> float:
        """MACs that can be executed between two points in time."""
        if end_time < start_time:
            raise ValueError("end_time must not precede start_time")
        if end_time == start_time:
            return 0.0
        total = 0.0
        time = max(start_time, self.phases[0].start_time)
        if time >= end_time:
            return 0.0
        for index, phase in enumerate(self.phases):
            phase_end = (
                self.phases[index + 1].start_time if index + 1 < len(self.phases) else math.inf
            )
            if phase_end <= time:
                continue
            if phase.start_time >= end_time:
                break
            segment_start = max(time, phase.start_time)
            segment_end = min(end_time, phase_end)
            if segment_end > segment_start:
                total += (segment_end - segment_start) * phase.macs_per_second
                time = segment_end
            if time >= end_time:
                break
        return total

    def time_to_execute(self, macs: float, start_time: float) -> float:
        """Finish time of ``macs`` worth of work started at ``start_time``.

        Returns ``math.inf`` if the remaining trace never provides enough
        throughput (e.g. all later phases have rate zero).
        """
        if macs < 0:
            raise ValueError("macs must be non-negative")
        if macs == 0:
            return start_time
        remaining = float(macs)
        time = max(start_time, self.phases[0].start_time)
        for index, phase in enumerate(self.phases):
            phase_end = (
                self.phases[index + 1].start_time if index + 1 < len(self.phases) else math.inf
            )
            if phase_end <= time:
                continue
            segment_start = max(time, phase.start_time)
            if phase.macs_per_second <= 0:
                time = phase_end
                continue
            capacity = (phase_end - segment_start) * phase.macs_per_second
            if capacity >= remaining:
                return segment_start + remaining / phase.macs_per_second
            remaining -= capacity
            time = phase_end
        return math.inf

    def scaled(self, factor: float, name: Optional[str] = None) -> "ResourceTrace":
        """A copy of the trace with every rate multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        phases = [
            ResourcePhase(phase.start_time, phase.macs_per_second * factor, phase.label)
            for phase in self.phases
        ]
        return ResourceTrace(phases, name=name or f"{self.name}-x{factor:g}")

    def shifted(self, offset: float, name: Optional[str] = None) -> "ResourceTrace":
        """A copy of the trace with all start times moved by ``offset`` (clipped at 0)."""
        phases = [
            ResourcePhase(max(0.0, phase.start_time + offset), phase.macs_per_second, phase.label)
            for phase in self.phases
        ]
        deduplicated: List[ResourcePhase] = []
        for phase in phases:
            if deduplicated and phase.start_time <= deduplicated[-1].start_time:
                deduplicated[-1] = phase
            else:
                deduplicated.append(phase)
        return ResourceTrace(deduplicated, name=name or f"{self.name}-shift{offset:g}")

    def mean_throughput(self, start_time: float, end_time: float) -> float:
        """Average MAC/s over a window."""
        if end_time <= start_time:
            raise ValueError("end_time must be after start_time")
        return self.available_macs(start_time, end_time) / (end_time - start_time)

    def __len__(self) -> int:
        return len(self.phases)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"(t={phase.start_time:g}, {phase.macs_per_second:g} MAC/s)" for phase in self.phases
        )
        return f"ResourceTrace({self.name}: {parts})"
