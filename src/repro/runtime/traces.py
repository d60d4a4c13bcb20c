"""Generators for representative resource traces.

Each generator returns a :class:`~repro.runtime.platform.ResourceTrace`
modelling one of the resource-variation patterns the paper's introduction
motivates:

* a mobile phone switching between normal and power-saving mode
  (:func:`power_mode_switch_trace`),
* an accelerator shared with bursty co-running tasks
  (:func:`bursty_trace`),
* a periodic duty cycle, e.g. a perception stack that yields the
  accelerator to planning every other slot (:func:`duty_cycle_trace`),
* a gradual ramp while the system warms up or throttles
  (:func:`ramp_trace`).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..utils.rng import new_generator
from .platform import PlatformSpec, ResourcePhase, ResourceTrace


def constant_trace(macs_per_second: float, name: str = "constant") -> ResourceTrace:
    """A trace whose throughput never changes."""
    return ResourceTrace.constant(macs_per_second, name=name)


def power_mode_switch_trace(
    platform: PlatformSpec,
    high_mode: str,
    low_mode: str,
    switch_time: float,
    recover_time: Optional[float] = None,
    name: str = "power-mode-switch",
) -> ResourceTrace:
    """Full throughput until ``switch_time``, reduced mode afterwards.

    With ``recover_time`` the platform returns to the high mode, modelling
    a temporary power-saving episode.
    """
    if switch_time <= 0:
        raise ValueError("switch_time must be positive")
    phases = [
        ResourcePhase(0.0, platform.throughput(high_mode), label=high_mode),
        ResourcePhase(switch_time, platform.throughput(low_mode), label=low_mode),
    ]
    if recover_time is not None:
        if recover_time <= switch_time:
            raise ValueError("recover_time must be after switch_time")
        phases.append(ResourcePhase(recover_time, platform.throughput(high_mode), label=high_mode))
    return ResourceTrace(phases, name=name)


def duty_cycle_trace(
    high_rate: float,
    low_rate: float,
    period: float,
    duty: float = 0.5,
    cycles: int = 8,
    name: str = "duty-cycle",
) -> ResourceTrace:
    """Alternate between a high and a low rate with a fixed period.

    ``duty`` is the fraction of each period spent at the high rate.
    """
    if period <= 0:
        raise ValueError("period must be positive")
    if not 0.0 < duty < 1.0:
        raise ValueError("duty must be in (0, 1)")
    if cycles < 1:
        raise ValueError("cycles must be at least 1")
    phases = []
    for cycle in range(cycles):
        start = cycle * period
        phases.append(ResourcePhase(start, high_rate, label="high"))
        phases.append(ResourcePhase(start + duty * period, low_rate, label="low"))
    return ResourceTrace(phases, name=name)


def bursty_trace(
    base_rate: float,
    burst_rate: float,
    duration: float,
    mean_burst_length: float,
    burst_fraction: float = 0.3,
    seed: Optional[int] = None,
    name: str = "bursty",
) -> ResourceTrace:
    """Random alternation between a base rate and a degraded burst rate.

    A co-running task occupies the accelerator in bursts whose lengths are
    exponentially distributed with mean ``mean_burst_length``; during a
    burst only ``burst_rate`` MAC/s remain for the network.
    ``burst_fraction`` is the long-run fraction of time spent in bursts.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if mean_burst_length <= 0:
        raise ValueError("mean_burst_length must be positive")
    if not 0.0 < burst_fraction < 1.0:
        raise ValueError("burst_fraction must be in (0, 1)")
    rng = new_generator(seed)
    mean_gap = mean_burst_length * (1.0 - burst_fraction) / burst_fraction
    phases = [ResourcePhase(0.0, base_rate, label="base")]
    time = 0.0
    while time < duration:
        gap = float(rng.exponential(mean_gap))
        burst = float(rng.exponential(mean_burst_length))
        burst_start = time + max(gap, 1e-9)
        burst_end = burst_start + max(burst, 1e-9)
        if burst_start >= duration:
            break
        phases.append(ResourcePhase(burst_start, burst_rate, label="burst"))
        phases.append(ResourcePhase(min(burst_end, duration), base_rate, label="base"))
        time = burst_end
    return ResourceTrace(phases, name=name)


def ramp_trace(
    start_rate: float,
    end_rate: float,
    duration: float,
    steps: int = 8,
    name: str = "ramp",
) -> ResourceTrace:
    """Piecewise-constant approximation of a linear throughput ramp."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    rates = np.linspace(start_rate, end_rate, steps)
    times = np.linspace(0.0, duration, steps, endpoint=False)
    phases = [
        ResourcePhase(float(t), float(max(rate, 0.0)), label=f"ramp{i}")
        for i, (t, rate) in enumerate(zip(times, rates))
    ]
    return ResourceTrace(phases, name=name)


def trace_library(platform: PlatformSpec, seed: int = 0) -> Dict[str, ResourceTrace]:
    """A small named collection of traces for one platform.

    Used by the runtime benchmark and the platform examples so that all of
    them exercise the same scenarios.
    """
    peak = platform.peak_macs_per_second
    modes = platform.power_modes or {"normal": 1.0, "saver": 0.25}
    mode_names = sorted(modes, key=modes.get, reverse=True)
    high = mode_names[0]
    low = mode_names[-1]
    return {
        "steady-high": constant_trace(peak, name="steady-high"),
        "steady-low": constant_trace(peak * modes[low], name="steady-low"),
        "power-switch": power_mode_switch_trace(
            platform, high, low, switch_time=0.4 * peak_to_seconds(peak), name="power-switch"
        ),
        "duty-cycle": duty_cycle_trace(
            peak, peak * modes[low], period=0.5 * peak_to_seconds(peak), cycles=16, name="duty-cycle"
        ),
        "bursty": bursty_trace(
            peak,
            peak * modes[low],
            duration=8.0 * peak_to_seconds(peak),
            mean_burst_length=0.3 * peak_to_seconds(peak),
            seed=seed,
            name="bursty",
        ),
    }


def peak_to_seconds(peak_macs_per_second: float, reference_macs: float = 1.0e6) -> float:
    """A natural time unit for a platform: seconds to run ``reference_macs``.

    Trace generators use it so that the same scenario definitions work for
    platforms whose absolute throughputs differ by orders of magnitude.
    """
    if peak_macs_per_second <= 0:
        raise ValueError("peak_macs_per_second must be positive")
    return reference_macs / peak_macs_per_second
