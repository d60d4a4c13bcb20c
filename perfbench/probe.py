"""Host-speed reference probe and the normalisation it drives.

On a shared host the raw wall-clock drifts: a fixed pure-Python loop and
a fixed-shape matmul can both run 1.5-1.9x slower for seconds at a time.
Every timed slice of benchmark work is therefore bracketed by
:meth:`Probe.measure` -- a short pure-Python loop plus small fixed-shape
numpy ops -- and each wall-clock metric is reported as
``wall * P_REF_SECONDS / p_slice``, where ``p_slice`` is the mean of the
probe durations taken right before and right after the slice.  The probe
and ``P_REF_SECONDS`` belong to the benchmark: a change under test never
edits them.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Callable, List, Optional, Tuple, TypeVar

import numpy as np

#: Probe duration in seconds on the reference host (2-vCPU x86-64 VM,
#: numpy 2.4 with one BLAS thread), pinned once.  It fixes the unit of
#: the normalised timings; ratios between them do not depend on it.
P_REF_SECONDS = 2.0e-4

_LOOP_ITERATIONS = 2000
_NUMPY_ROUNDS = 12
_REPEATS = 3

T = TypeVar("T")


class Probe:
    """The fixed reference work; remembers every duration it measured."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20230417)
        self._a = rng.standard_normal((48, 48)).astype(np.float32)
        self._b = rng.standard_normal((48, 48)).astype(np.float32)
        self._v = rng.standard_normal(2048).astype(np.float32)
        self.samples: List[float] = []

    def _kernel(self) -> float:
        acc = 0
        for i in range(_LOOP_ITERATIONS):
            acc += (i * 7) % 13
        c, v = self._a, self._v
        for _ in range(_NUMPY_ROUNDS):
            c = np.tanh((c @ self._b) * 0.01)
            v = np.maximum(v * 0.5 + 0.25, 0.0)
        return acc + float(c[0, 0]) + float(v[0])

    def measure(self) -> float:
        """The fastest of a few kernel runs, in seconds."""
        best = math.inf
        for _ in range(_REPEATS):
            start = perf_counter()
            self._kernel()
            best = min(best, perf_counter() - start)
        self.samples.append(best)
        return best


class SliceTimer:
    """Wall-clock of slices of work, each bracketed by the probe.

    The probe taken after one slice doubles as the bracket before the
    next; call :meth:`rebase` after untimed work so the next bracket is
    fresh.  ``around``, when set, wraps each slice's call (the traced
    pass opens its root span there) inside the measured interval.
    """

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        self.around: Optional[Callable[[Callable[[], T]], T]] = None
        self._before = probe.measure()

    def rebase(self) -> None:
        self._before = self.probe.measure()

    def time(self, work: Callable[[], T]) -> Tuple[T, float, float]:
        """Run ``work``; return its result, the raw wall seconds and the
        normalisation factor ``P_REF_SECONDS / p_slice``."""
        around = self.around
        start = perf_counter()
        result = work() if around is None else around(work)
        wall = perf_counter() - start
        after = self.probe.measure()
        factor = P_REF_SECONDS / (0.5 * (self._before + after))
        self._before = after
        return result, wall, factor
