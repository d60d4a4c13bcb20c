"""Wall-clock timing shared by the serving benchmarks.

``bench_batching.py`` and ``bench_continuous.py`` compare whole
``ServingEngine.serve`` runs that differ only in their batch policy;
both time them here, in interleaved rounds, so a slow host period hits
every engine alike.  Import it from a script in this directory::

    from timing import time_engines
"""

from __future__ import annotations

import gc
import time


def time_engines(engines: dict, requests, repeats: int, settle_rounds: int = 6):
    """Interleaved best-of-N walls per engine, GC parked.

    One warm-up serve per engine first (buffer allocation, BLAS
    warm-up), then each round times every engine back to back so slow
    host periods hit all of them alike; the GC is collected before each
    timed serve and disabled during it — a mid-run generational sweep
    otherwise dominates the millisecond-scale differences measured here.

    The per-engine wall is the *minimum* over rounds — the floor is the
    only estimator immune to one-sided host noise.  After the base
    ``repeats`` rounds, timing continues until no engine's floor has
    improved for ``settle_rounds`` consecutive rounds (capped at
    ``4 * repeats``): on a contended host the mins keep sharpening,
    while on a quiet one this exits after exactly ``settle_rounds``
    extra rounds.  More rounds can only lower floors, never manufacture
    a difference that is not there.
    """
    reports = {name: engine.serve(requests) for name, engine in engines.items()}
    walls = {name: [] for name in engines}

    def one_round() -> bool:
        improved = False
        for name, engine in engines.items():
            gc.collect()
            start = time.perf_counter()
            engine.serve(requests)
            wall = time.perf_counter() - start
            if not walls[name] or wall < min(walls[name]):
                improved = True
            walls[name].append(wall)
        return improved

    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            one_round()
        stale = 0
        for _ in range(max(3 * repeats, settle_rounds)):
            if stale >= settle_rounds:
                break
            stale = 0 if one_round() else stale + 1
    finally:
        gc.enable()
    return reports, {name: min(times) for name, times in walls.items()}
