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
inference on a resource-varying platform.  By default steps execute over
a compiled :class:`~repro.core.plan.NetworkPlan` — pre-packed per-level
weight slabs with masks applied and batch norm folded in — so the step
loop itself is nothing but matmuls; pass ``compiled=False`` for the
legacy per-step-masking path (the correctness oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..nn import functional as F
from ..nn.functional import activation_infer
from ..nn.tensor import Tensor, default_dtype, no_grad
from ..utils.errors import ConfigError
from .network import Block, SteppingNetwork
from .plan import NetworkPlan


def _buffers_nbytes(
    input: Optional[np.ndarray],
    cache: Dict[int, np.ndarray],
    logits: Optional[np.ndarray],
    aux: Dict,
) -> int:
    """Byte footprint of one in-flight inference's resident buffers.

    Counts everything a suspended context pins in accelerator memory:
    the engine's (possibly dtype-cast) input copy, the full-width
    activation caches, the last logits and the plan's auxiliary buffers
    (im2col column buffers, pooled maps).  Non-array aux entries (the
    ``"level"`` tag) are free.
    """
    total = 0
    if input is not None:
        total += input.nbytes
    for value in cache.values():
        total += value.nbytes
    if logits is not None:
        total += logits.nbytes
    for value in aux.values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
    return total


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
    #: on the next compiled step; a ``"level"`` tag records the subnet
    #: the buffers were last advanced to, so a state that progressed
    #: through another path (legacy steps, another engine) self-
    #: invalidates its stale buffers instead of serving from them.
    aux: Dict = field(default_factory=dict)

    @classmethod
    def fresh(cls, inputs: np.ndarray) -> "InferenceState":
        """A not-yet-started state for one input batch.

        Every serving session starts from one.  Stepping it from level
        -1 — through :meth:`~repro.core.plan.NetworkPlan.execute_batch`,
        which runs each member through the compiled edge program
        ``run()`` runs, or through ``import_state`` and ``step_to`` on an
        engine — is semantically identical to ``run()`` on a fresh
        engine.
        ``inputs`` must already be validated and cast to the inference
        dtype, as ``run()`` does.
        """
        return cls(input=inputs, cache={}, logits=None, current_subnet=-1, steps=[])

    def nbytes(self) -> int:
        """Measured byte footprint of this suspended context.

        Input copy + activation caches + logits + plan ``aux`` buffers —
        the quantity a bounded "resident contexts" budget charges per
        suspended request (see :mod:`repro.serving.memory`).
        """
        return _buffers_nbytes(self.input, self.cache, self.logits, self.aux)

    def aux_nbytes(self) -> int:
        """Bytes held by the plan's auxiliary buffers alone (tier-1 evictable)."""
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


def _batch_norm_eval(z: np.ndarray, norm, channels: np.ndarray) -> np.ndarray:
    """Apply eval-mode batch norm to the selected channels of ``z``.

    ``z`` holds only the selected channels (in the order of ``channels``).
    """
    dtype = z.dtype
    gamma = norm.gamma.data[channels].astype(dtype, copy=False)
    beta = norm.beta.data[channels].astype(dtype, copy=False)
    mean = norm.running_mean[channels].astype(dtype, copy=False)
    var = norm.running_var[channels].astype(dtype, copy=False)
    if z.ndim == 4:
        shape = (1, -1, 1, 1)
    else:
        shape = (1, -1)
    inv_std = 1.0 / np.sqrt(var + norm.eps)
    return gamma.reshape(shape) * (z - mean.reshape(shape)) * inv_std.reshape(shape) + beta.reshape(shape)


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
    """

    def __init__(
        self,
        network: SteppingNetwork,
        apply_prune: bool = True,
        dtype=None,
        compiled: bool = True,
        plan: Optional[NetworkPlan] = None,
    ) -> None:
        self.network = network
        self.apply_prune = apply_prune
        # float64 reproduces the training-time forward pass bit-for-bit;
        # float32 halves the memory traffic of deployment-style serving.
        self.dtype = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)
        # ``compiled`` routes every step through a pre-packed
        # :class:`NetworkPlan` (no per-step masking/casting/BN
        # arithmetic); the uncompiled path is kept as the numerics
        # oracle, for networks mutated between steps, and as the
        # automatic fallback for networks a plan cannot represent
        # (e.g. enforce_incremental=False baselines).
        self.compiled = (compiled and NetworkPlan.supports(network)) or plan is not None
        if plan is not None:
            if plan.network_ref() is not network:
                raise ValueError("plan was compiled for a different network")
            if plan.dtype != self.dtype or plan.apply_prune != bool(apply_prune):
                raise ValueError(
                    "plan was compiled for "
                    f"(dtype={plan.dtype}, apply_prune={plan.apply_prune}), engine wants "
                    f"(dtype={self.dtype}, apply_prune={bool(apply_prune)})"
                )
        self._plan = plan
        self.reset()

    @property
    def plan(self) -> NetworkPlan:
        """The compiled plan (built lazily so it snapshots current weights)."""
        if self._plan is None:
            self._plan = NetworkPlan(
                self.network, apply_prune=self.apply_prune, dtype=self.dtype
            )
        return self._plan

    def refresh_plan(self) -> None:
        """Drop the compiled plan (call after mutating the network)."""
        self._plan = None

    def reset(self) -> None:
        """Forget all cached activations (start a new input batch)."""
        self._input: Optional[np.ndarray] = None
        self._cache: Dict[int, np.ndarray] = {}
        self._aux: Dict = {}
        self._logits: Optional[np.ndarray] = None
        self._current_subnet: int = -1
        self.steps: List[StepResult] = []

    # ------------------------------------------------------------------
    @property
    def current_subnet(self) -> int:
        """Index of the last executed subnet (-1 before :meth:`run`)."""
        return self._current_subnet

    def state_nbytes(self) -> int:
        """Byte footprint of the currently resident execution state.

        Same accounting as :meth:`InferenceState.nbytes`, measured on the
        engine's live buffers.
        """
        return _buffers_nbytes(self._input, self._cache, self._logits, self._aux)

    def export_state(self) -> InferenceState:
        """Detach the in-flight execution state (suspend).

        The engine is reset afterwards and can immediately serve another
        input batch; the returned state re-enters via
        :meth:`import_state`.  References are moved, not copied.
        """
        state = InferenceState(
            input=self._input,
            cache=self._cache,
            logits=self._logits,
            current_subnet=self._current_subnet,
            steps=self.steps,
            aux=self._aux,
        )
        self.reset()
        return state

    def import_state(self, state: Optional[InferenceState]) -> None:
        """Re-attach a previously exported execution state (resume)."""
        if state is None:
            self.reset()
            return
        self._input = state.input
        self._cache = state.cache
        self._aux = state.aux
        self._logits = state.logits
        self._current_subnet = state.current_subnet
        self.steps = state.steps

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
        self.reset()
        self._input = inputs
        return self._expand(-1, subnet)

    def step_to(self, subnet: int) -> StepResult:
        """Expand the current execution to a larger subnet, reusing the cache."""
        if self._input is None:
            raise RuntimeError("call run() before step_to()")
        subnet = self._level(subnet)
        if subnet <= self._current_subnet:
            raise ValueError(
                f"step_to target ({subnet}) must be larger than the current subnet "
                f"({self._current_subnet}); use run() to start over"
            )
        return self._expand(self._current_subnet, subnet)

    def step_up(self) -> StepResult:
        """Expand to the next larger subnet."""
        return self.step_to(self._current_subnet + 1)

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
        network = self.network
        if self.compiled:
            # Fast path: pure numpy over the pre-packed plan.  Weights,
            # masks, folded batch norm and MAC counts were all prepared
            # once at compile time; the step only does matmuls.
            plan = self.plan
            logits = plan.execute(
                self._input, self._cache, self._aux, self._logits, from_subnet, to_subnet
            )
            macs_to = plan.subnet_macs[to_subnet]
            macs_from = plan.subnet_macs[from_subnet] if from_subnet >= 0 else 0
        else:
            was_training = network.training
            network.eval()
            try:
                with no_grad(), default_dtype(self.dtype):
                    logits = self._walk(from_subnet, to_subnet)
            finally:
                network.train(was_training)
            macs_to = network.subnet_macs(to_subnet, apply_prune=self.apply_prune)
            macs_from = (
                network.subnet_macs(from_subnet, apply_prune=self.apply_prune)
                if from_subnet >= 0
                else 0
            )
        result = StepResult.from_macs(to_subnet, logits, macs_to, macs_from)
        self._logits = logits
        self._current_subnet = to_subnet
        self.steps.append(result)
        return result

    def _walk(self, from_subnet: int, to_subnet: int) -> np.ndarray:
        """Legacy step path: per-step masking over the block list.

        Kept as the numerics oracle for the compiled plan (see
        :mod:`repro.core.plan`); produces the same cache layout, so the
        two paths are interchangeable mid-flight.
        """
        network = self.network
        current = self._input
        if current.ndim == 4 and not network.spec._has_conv():
            current = current.reshape(current.shape[0], -1)
        logits: Optional[np.ndarray] = None
        for block in network.blocks:
            if block.kind == "conv" or (block.kind == "linear" and not block.is_output):
                current = self._expand_hidden_block(block, current, from_subnet, to_subnet)
            elif block.kind == "linear" and block.is_output:
                logits = self._expand_output_block(block, current, from_subnet, to_subnet)
            elif block.kind == "pool":
                tensor = Tensor(current)
                pool = F.max_pool2d if block.pool_kind == "max" else F.avg_pool2d
                current = pool(tensor, block.pool_size, block.pool_stride).data
            elif block.kind == "flatten":
                current = current.reshape(current.shape[0], -1)
            elif block.kind == "dropout":
                pass  # identity at inference time
        if logits is None:
            raise RuntimeError("network has no output layer")
        return logits

    def _expand_hidden_block(
        self, block: Block, current: np.ndarray, from_subnet: int, to_subnet: int
    ) -> np.ndarray:
        network = self.network
        layer = block.layer
        assignment = layer.assignment.unit_subnet
        in_subnet = network.input_unit_subnet(block.param_index)
        new_units = np.where((assignment > from_subnet) & (assignment <= to_subnet))[0]

        # Fetch or create the cached full-width output map for this layer.
        cached = self._cache.get(block.param_index)
        if cached is None:
            shape = (current.shape[0], layer.assignment.num_units) + (
                () if block.kind == "linear" else layer.output_spatial_size(*block.in_spatial)
            )
            cached = np.zeros(shape, dtype=self.dtype)
            self._cache[block.param_index] = cached

        if new_units.size:
            bias = layer.bias.data[new_units].astype(self.dtype, copy=False)
            if block.kind == "conv":
                mask = layer.channel_mask(to_subnet, in_subnet, self.apply_prune)[new_units]
                weight = (layer.weight.data[new_units] * mask).astype(self.dtype, copy=False)
                z = F.conv2d(
                    Tensor(current), Tensor(weight), bias=None, stride=layer.stride, padding=layer.padding
                ).data
                z = z + bias.reshape(1, -1, 1, 1)
            else:
                mask = layer.weight_mask(to_subnet, in_subnet, self.apply_prune)[new_units]
                weight = (layer.weight.data[new_units] * mask).astype(self.dtype, copy=False)
                z = current @ weight.T + bias.reshape(1, -1)
            if block.norm is not None:
                z = _batch_norm_eval(z, block.norm, new_units)
            z = activation_infer(z, block.activation)
            cached[:, new_units] = z

        # The combined map exposes exactly the units of ``to_subnet``.
        active = (assignment <= to_subnet)
        combined = cached * active.reshape((1, -1) + (1,) * (cached.ndim - 2))
        return combined

    def _expand_output_block(
        self, block: Block, current: np.ndarray, from_subnet: int, to_subnet: int
    ) -> np.ndarray:
        network = self.network
        layer = block.layer
        in_subnet = network.input_unit_subnet(block.param_index)
        if from_subnet < 0 or self._logits is None:
            mask = layer.weight_mask(to_subnet, in_subnet, self.apply_prune)
            weight = (layer.weight.data * mask).astype(self.dtype, copy=False)
            bias = layer.bias.data.astype(self.dtype, copy=False)
            return current @ weight.T + bias.reshape(1, -1)
        new_features = np.where((in_subnet > from_subnet) & (in_subnet <= to_subnet))[0]
        if new_features.size == 0:
            return self._logits.copy()
        # Slice the added feature columns *before* masking/casting — the
        # full (C, F) masked weight matrix is never materialised for a
        # delta update.
        weight = layer.weight_columns(
            new_features, to_subnet, in_subnet, self.apply_prune
        ).astype(self.dtype, copy=False)
        delta = current[:, new_features] @ weight.T
        return self._logits + delta


def anytime_schedule(
    network: SteppingNetwork,
    inputs: np.ndarray,
    subnets: Optional[List[int]] = None,
    apply_prune: bool = True,
    compiled: bool = True,
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
    engine = IncrementalInference(network, apply_prune=apply_prune, compiled=compiled)
    results = [engine.run(inputs, subnet=subnets[0])]
    for level in subnets[1:]:
        results.append(engine.step_to(level))
    return results
