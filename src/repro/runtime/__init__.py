"""Resource-varying platform simulation.

The paper motivates SteppingNet with platforms whose computational
resources change while an inference is in flight (mobile phones switching
power modes, autonomous vehicles sharing an accelerator between tasks).
This package provides the substrate to *evaluate* that scenario:

* :mod:`repro.runtime.platform` — platform descriptions and piecewise-
  constant resource traces (available MAC throughput over time);
* :mod:`repro.runtime.traces` — generators for representative traces
  (power-mode switches, bursty co-running tasks, periodic duty cycles);
* :mod:`repro.runtime.latency` — MAC-to-latency conversion and per-subnet
  latency tables;
* :mod:`repro.runtime.policies` — step-up decision policies (greedy,
  confidence-threshold, deadline-aware);
* :mod:`repro.runtime.executor` — anytime execution of a single input
  under a trace, with and without SteppingNet's computational reuse;
* :mod:`repro.runtime.simulation` — stream-level simulation (a periodic
  sequence of frames with deadlines).

The executors hold a single-tenant
:class:`~repro.serving.engine.ServingEngine` (FIFO, policy-driven
stopping): ``execute`` serves one request through it and returns its
:class:`~repro.serving.engine.JobRecord`, ``simulate_stream`` serves a
frame stream and returns the :class:`~repro.serving.engine.ServingReport`.

Everything operates on plain numbers and numpy arrays; the only model
dependency is a :class:`~repro.core.network.SteppingNetwork` (or any
object exposing the same ``subnet_macs``/incremental-inference
interface).
"""

from .executor import AnytimeExecutor, RecomputeExecutor
from .latency import LatencyModel, latency_table, subnet_latencies
from .platform import PlatformSpec, ResourcePhase, ResourceTrace
from .policies import (
    ConfidencePolicy,
    DeadlineAwarePolicy,
    FixedSubnetPolicy,
    GreedyPolicy,
    LoadAdaptivePolicy,
    PolicyDecision,
    PolicyState,
    SteppingPolicy,
)
from .simulation import periodic_requests, simulate_stream
from .traces import (
    bursty_trace,
    constant_trace,
    duty_cycle_trace,
    power_mode_switch_trace,
    ramp_trace,
    trace_library,
)

__all__ = [
    "AnytimeExecutor",
    "RecomputeExecutor",
    "LatencyModel",
    "latency_table",
    "subnet_latencies",
    "PlatformSpec",
    "ResourcePhase",
    "ResourceTrace",
    "ConfidencePolicy",
    "DeadlineAwarePolicy",
    "FixedSubnetPolicy",
    "GreedyPolicy",
    "LoadAdaptivePolicy",
    "PolicyDecision",
    "PolicyState",
    "SteppingPolicy",
    "periodic_requests",
    "simulate_stream",
    "bursty_trace",
    "constant_trace",
    "duty_cycle_trace",
    "power_mode_switch_trace",
    "ramp_trace",
    "trace_library",
]
