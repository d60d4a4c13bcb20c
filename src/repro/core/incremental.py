"""Incremental (anytime) inference with exact activation reuse.

This is the run-time payoff of SteppingNet's structural constraint: once
subnet ``i`` has been executed, switching to a larger subnet ``j`` only
requires computing the units that first appear in subnets ``i+1 .. j`` —
every activation already computed for subnet ``i`` is reused verbatim,
and the classifier logits are updated additively with the new features'
contributions.  The number of extra MACs is exactly
``subnet_macs(j) - subnet_macs(i)``.

The engine operates purely on numpy arrays (no autograd graph) and uses
the batch-norm running statistics, i.e. it models deployment-time
inference on a resource-varying platform.  Every step executes over a
compiled :class:`~repro.core.plan.NetworkPlan` — pre-packed per-level
weight slabs with masks applied and batch norm folded in — so the step
loop itself is nothing but matmuls.  A network no plan can represent
raises :class:`~repro.utils.errors.ConfigError` when the engine is
built.  The tests check every step against a per-step-masking walk over
the network's blocks (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..utils.errors import ConfigError
from .network import SteppingNetwork
from .plan import NetworkPlan


@dataclass
class InferenceState:
    """Execution state of one in-flight anytime inference.

    The serving engine multiplexes many requests over one accelerator;
    when a request is preempted at a subnet boundary its activation cache
    must survive until it is scheduled again, so every serving session
    owns one of these for the request's whole life.  ``export_state`` /
    ``import_state`` move a state in and out of an
    :class:`IncrementalInference` engine in O(1) (references only), so
    one engine can step many states in turn.  Use :meth:`copy` when an
    isolated snapshot (e.g. for speculative execution) is needed instead.
    """

    input: Optional[np.ndarray]
    cache: Dict[int, np.ndarray]
    logits: Optional[np.ndarray]
    current_subnet: int
    steps: List["StepResult"]
    #: Private incremental buffers of the compiled plan (column buffers,
    #: pooled maps), shaped to this request's own sample batch.  Pure
    #: caches: an empty dict is always valid and is rebuilt transparently
    #: on the next step; a ``"level"`` tag records the subnet the buffers
    #: were last advanced to, so a state whose cache advanced without
    #: them (another engine, the tests' masked walk) self-invalidates its
    #: stale buffers instead of serving from them.
    aux: Dict = field(default_factory=dict)

    @classmethod
    def fresh(cls, inputs: Optional[np.ndarray]) -> "InferenceState":
        """A not-yet-started state for one input batch.

        Every serving session starts from one.  Stepping it from level
        -1 — through :meth:`~repro.core.plan.NetworkPlan.execute_batch`,
        which runs each member through the compiled edge program
        ``run()`` runs, or through ``import_state`` and ``step_to`` on an
        engine — is semantically identical to ``run()`` on a fresh
        engine.
        ``inputs`` must already be validated and cast to the inference
        dtype, as ``run()`` does; ``None`` is an engine's empty state.
        """
        return cls(input=inputs, cache={}, logits=None, current_subnet=-1, steps=[])

    def nbytes(self) -> int:
        """Measured byte footprint of this suspended context.

        Counts everything a suspended context pins in accelerator memory:
        the (dtype-cast) input copy, the full-width activation caches, the
        last logits and the plan's ``aux`` buffers — the quantity a
        bounded "resident contexts" budget charges per suspended request
        (see :mod:`repro.serving.memory`).
        """
        total = self.aux_nbytes() + sum(value.nbytes for value in self.cache.values())
        for array in (self.input, self.logits):
            if array is not None:
                total += array.nbytes
        return total

    def aux_nbytes(self) -> int:
        """Bytes held by the plan's auxiliary buffers alone (tier-1 evictable).

        Non-array entries (the ``"level"`` tag) are free.
        """
        return sum(
            value.nbytes for value in self.aux.values() if isinstance(value, np.ndarray)
        )

    def drop_aux(self) -> int:
        """Release the plan's auxiliary buffers; returns the bytes freed.

        The cheap eviction tier: aux buffers are pure caches that the
        compiled plan rebuilds transparently from the activation cache on
        the next step, so dropping them changes no logits and charges no
        extra MACs — only memory comes back.
        """
        freed = self.aux_nbytes()
        self.aux.clear()
        return freed

    def copy(self) -> "InferenceState":
        """Deep copy of the cached activations (for isolated snapshots)."""
        return InferenceState(
            input=None if self.input is None else self.input.copy(),
            cache={key: value.copy() for key, value in self.cache.items()},
            logits=None if self.logits is None else self.logits.copy(),
            current_subnet=self.current_subnet,
            steps=list(self.steps),
            aux={
                key: value.copy() if isinstance(value, np.ndarray) else value
                for key, value in self.aux.items()
            },
        )


@dataclass
class StepResult:
    """Outcome of executing one subnet level (initial run or expansion)."""

    subnet: int
    logits: np.ndarray
    macs_executed: int
    macs_reused: int
    cumulative_macs: int

    @classmethod
    def from_macs(
        cls, subnet: int, logits: np.ndarray, macs_to: int, macs_from: int
    ) -> "StepResult":
        """The canonical accounting of one ``from -> to`` expansion.

        Single source of truth for the executed/reused/cumulative split,
        shared by the solo engine step and the backends' group advance so
        their records can never drift apart.
        """
        return cls(
            subnet=subnet,
            logits=logits,
            macs_executed=macs_to - macs_from,
            macs_reused=macs_from,
            cumulative_macs=macs_to,
        )

    @property
    def predictions(self) -> np.ndarray:
        return self.logits.argmax(axis=-1)

    @property
    def reuse_fraction(self) -> float:
        total = self.macs_executed + self.macs_reused
        return self.macs_reused / total if total else 0.0


class IncrementalInference:
    """Stateful anytime-inference engine over a trained :class:`SteppingNetwork`.

    Typical usage::

        engine = IncrementalInference(network)
        first = engine.run(images, subnet=0)        # fast preliminary decision
        better = engine.step_to(2)                  # more resources arrived
        best = engine.step_to(network.num_subnets - 1)

    ``step_to`` never recomputes a previously evaluated unit; a test in
    ``tests/core/test_incremental.py`` asserts that the stepped logits
    equal a from-scratch forward pass of the target subnet bit-for-bit
    (up to floating-point associativity).

    The engine compiles a private :class:`NetworkPlan` when it is built
    (it snapshots the current weights; see :meth:`refresh_plan`), and
    raises :class:`~repro.utils.errors.ConfigError` for a network no plan
    can represent, e.g. the ``enforce_incremental=False`` slimmable
    baseline.
    """

    def __init__(
        self,
        network: SteppingNetwork,
        apply_prune: bool = True,
        dtype=None,
    ) -> None:
        self.network = network
        self.apply_prune = apply_prune
        # float64 reproduces the training-time forward pass bit-for-bit;
        # float32 halves the memory traffic of deployment-style serving.
        self.dtype = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)
        self.refresh_plan()
        self.reset()

    def refresh_plan(self) -> None:
        """Recompile the plan (call after mutating the network)."""
        self.plan = NetworkPlan(self.network, apply_prune=self.apply_prune, dtype=self.dtype)

    def reset(self) -> None:
        """Forget all cached activations (start a new input batch)."""
        self._state = InferenceState.fresh(None)

    # ------------------------------------------------------------------
    @property
    def current_subnet(self) -> int:
        """Index of the last executed subnet (-1 before :meth:`run`)."""
        return self._state.current_subnet

    @property
    def steps(self) -> List[StepResult]:
        """Every step of the current input batch, in order."""
        return self._state.steps

    def state_nbytes(self) -> int:
        """Byte footprint of the currently resident execution state."""
        return self._state.nbytes()

    def export_state(self) -> InferenceState:
        """Detach the in-flight execution state (suspend).

        The engine is reset afterwards and can immediately serve another
        input batch; the returned state re-enters via
        :meth:`import_state`.  References are moved, not copied.
        """
        state = self._state
        self.reset()
        return state

    def import_state(self, state: Optional[InferenceState]) -> None:
        """Re-attach a previously exported execution state (resume).

        The engine steps ``state`` itself from then on, not a copy.
        """
        if state is None:
            self.reset()
        else:
            self._state = state

    def run(self, inputs: np.ndarray, subnet: int = 0) -> StepResult:
        """Execute ``subnet`` from scratch on a new input batch.

        Raises :class:`~repro.utils.errors.ConfigError` unless ``inputs``
        is a batch of samples of the network's input shape and ``subnet``
        an integer level (:class:`IndexError` when it is out of range).
        A rejected call leaves the engine as it was.
        """
        subnet = self._level(subnet)
        inputs = np.asarray(inputs, dtype=self.dtype)
        problem = self.network.spec.input_shape_problem(inputs.shape)
        if problem is not None:
            raise ConfigError(f"inputs {problem}")
        self._state = InferenceState.fresh(inputs)
        return self._expand(-1, subnet)

    def step_to(self, subnet: int) -> StepResult:
        """Expand the current execution to a larger subnet, reusing the cache."""
        if self._state.input is None:
            raise RuntimeError("call run() before step_to()")
        subnet = self._level(subnet)
        current = self._state.current_subnet
        if subnet <= current:
            raise ValueError(
                f"step_to target ({subnet}) must be larger than the current subnet "
                f"({current}); use run() to start over"
            )
        return self._expand(current, subnet)

    def step_up(self) -> StepResult:
        """Expand to the next larger subnet."""
        return self.step_to(self._state.current_subnet + 1)

    # ------------------------------------------------------------------
    def _level(self, subnet) -> int:
        """``subnet`` as a level index, checked before any state changes.

        A ``bool`` or a float (even ``2.0``) is a caller's mistake, not a
        level: it raises :class:`ConfigError` instead of failing deep in
        the plan or aliasing level ``int(subnet)``.
        """
        if isinstance(subnet, (bool, np.bool_)) or not isinstance(subnet, (int, np.integer)):
            raise ConfigError(f"subnet must be an integer level, got {subnet!r}")
        if not 0 <= subnet < self.network.num_subnets:
            raise IndexError(f"subnet index {subnet} out of range")
        return int(subnet)

    def _expand(self, from_subnet: int, to_subnet: int) -> StepResult:
        # Pure numpy over the pre-packed plan: weights, masks, folded
        # batch norm and MAC counts were all prepared at compile time.
        state, plan = self._state, self.plan
        logits = plan.execute(
            state.input, state.cache, state.aux, state.logits, from_subnet, to_subnet
        )
        macs_from = plan.subnet_macs[from_subnet] if from_subnet >= 0 else 0
        result = StepResult.from_macs(to_subnet, logits, plan.subnet_macs[to_subnet], macs_from)
        state.logits = logits
        state.current_subnet = to_subnet
        state.steps.append(result)
        return result


def anytime_schedule(
    network: SteppingNetwork,
    inputs: np.ndarray,
    subnets: Optional[List[int]] = None,
    apply_prune: bool = True,
) -> List[StepResult]:
    """Convenience helper: run subnet 0 then step through ``subnets`` in order.

    Returns one :class:`StepResult` per executed level, mirroring the
    "refine the decision as resources arrive" scenario from the paper's
    introduction.
    """
    if subnets is None:
        subnets = list(range(network.num_subnets))
    if not subnets:
        raise ValueError("subnets must contain at least one level")
    engine = IncrementalInference(network, apply_prune=apply_prune)
    results = [engine.run(inputs, subnet=subnets[0])]
    for level in subnets[1:]:
        results.append(engine.step_to(level))
    return results
