"""The tests' numerics oracle: a per-step-masking walk over the network.

Production steps every inference through a compiled
:class:`~repro.core.plan.NetworkPlan`.  :func:`masked_walk` advances the
same :class:`~repro.core.incremental.InferenceState` without one: per
step it masks the weights of the units that first appear, runs them
through the autograd-free functional ops and eval-mode batch norm, and
updates the logits additively.  It shares no code with the plan, so the
two check each other.

It writes the plan's cache layout (``param_index`` to the full-width
activation map, zeros at not-yet-computed units) and leaves ``aux``
untouched, so a state moves between the two mid-flight: the plan sees
``aux``'s stale ``"level"`` tag and rebuilds its buffers from the cache.

:func:`patch_columns` is the oracle of a plan's column buffers: the
channel-major im2col rows of a conv's input map, built from the training
path's :func:`~repro.nn.functional.im2col`.

Import them as ``from oracles import masked_ladder, masked_walk,
patch_columns``; the test root is on ``sys.path`` through its
``conftest.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.incremental import InferenceState
from repro.nn import functional as F
from repro.nn.functional import activation_infer
from repro.nn.tensor import Tensor, default_dtype, no_grad


def masked_walk(
    network, state: InferenceState, to_subnet: int, apply_prune: bool = True
) -> np.ndarray:
    """Advance ``state`` from its current subnet to ``to_subnet``; return the logits.

    Computes in ``state.input``'s dtype, sets ``state.logits`` and
    ``state.current_subnet`` and leaves ``state.aux`` and ``state.steps``
    as they are.
    """
    step = (network, state, state.current_subnet, to_subnet, apply_prune)
    was_training = network.training
    network.eval()
    try:
        with no_grad(), default_dtype(state.input.dtype):
            current = state.input
            if current.ndim == 4 and not network.spec._has_conv():
                current = current.reshape(current.shape[0], -1)
            logits: Optional[np.ndarray] = None
            for block in network.blocks:
                if block.kind == "conv" or (block.kind == "linear" and not block.is_output):
                    current = _hidden_block(*step, block, current)
                elif block.kind == "linear":
                    logits = _output_block(*step, block, current)
                elif block.kind == "pool":
                    pool = F.max_pool2d if block.pool_kind == "max" else F.avg_pool2d
                    current = pool(Tensor(current), block.pool_size, block.pool_stride).data
                elif block.kind == "flatten":
                    current = current.reshape(current.shape[0], -1)
                # dropout is the identity at inference time
    finally:
        network.train(was_training)
    if logits is None:
        raise RuntimeError("network has no output layer")
    state.logits = logits
    state.current_subnet = to_subnet
    return logits


def masked_ladder(
    network, inputs, levels: Sequence[int], dtype=np.float64, apply_prune: bool = True
) -> List[np.ndarray]:
    """Per-level logits of one fresh state walked through ``levels`` in order."""
    state = InferenceState.fresh(np.asarray(inputs, dtype=dtype))
    return [masked_walk(network, state, level, apply_prune) for level in levels]


def patch_columns(images: np.ndarray, kernel, stride, padding) -> np.ndarray:
    """The ``(C*kh*kw, N*oh*ow)`` channel-major im2col columns of ``images``.

    :func:`~repro.nn.functional.im2col`'s ``(N, oh, ow, C*kh*kw)``
    patches, transposed: no code shared with the plan's pack.  A plan
    column buffer holds these rows, for the channels it has packed,
    below its ones row.
    """
    cols, _ = F.im2col(np.asarray(images), tuple(kernel), tuple(stride), tuple(padding))
    return np.ascontiguousarray(cols.reshape(-1, cols.shape[-1]).T)


def _batch_norm_eval(z: np.ndarray, norm, channels: np.ndarray) -> np.ndarray:
    """Eval-mode batch norm of ``z``, which holds only ``channels`` (in order)."""
    dtype = z.dtype
    gamma, beta, mean, var = (
        values[channels].astype(dtype, copy=False)
        for values in (norm.gamma.data, norm.beta.data, norm.running_mean, norm.running_var)
    )
    shape = (1, -1, 1, 1) if z.ndim == 4 else (1, -1)
    inv_std = 1.0 / np.sqrt(var + norm.eps)
    scaled = gamma.reshape(shape) * (z - mean.reshape(shape)) * inv_std.reshape(shape)
    return scaled + beta.reshape(shape)


def _hidden_block(network, state, from_subnet, to_subnet, apply_prune, block, current):
    """Compute the block's units new in ``(from, to]`` into its cache; return the ``to`` map."""
    dtype = state.input.dtype
    layer = block.layer
    assignment = layer.assignment.unit_subnet
    in_subnet = network.input_unit_subnet(block.param_index)
    new_units = np.where((assignment > from_subnet) & (assignment <= to_subnet))[0]

    cached = state.cache.get(block.param_index)
    if cached is None:
        shape = (current.shape[0], layer.assignment.num_units) + (
            () if block.kind == "linear" else layer.output_spatial_size(*block.in_spatial)
        )
        cached = np.zeros(shape, dtype=dtype)
        state.cache[block.param_index] = cached

    if new_units.size:
        bias = layer.bias.data[new_units].astype(dtype, copy=False)
        if block.kind == "conv":
            mask = layer.channel_mask(to_subnet, in_subnet, apply_prune)[new_units]
            weight = (layer.weight.data[new_units] * mask).astype(dtype, copy=False)
            z = F.conv2d(
                Tensor(current),
                Tensor(weight),
                bias=None,
                stride=layer.stride,
                padding=layer.padding,
            ).data
            z = z + bias.reshape(1, -1, 1, 1)
        else:
            mask = layer.weight_mask(to_subnet, in_subnet, apply_prune)[new_units]
            weight = (layer.weight.data[new_units] * mask).astype(dtype, copy=False)
            z = current @ weight.T + bias.reshape(1, -1)
        if block.norm is not None:
            z = _batch_norm_eval(z, block.norm, new_units)
        cached[:, new_units] = activation_infer(z, block.activation)

    # The combined map exposes exactly the units of ``to_subnet``.
    active = assignment <= to_subnet
    return cached * active.reshape((1, -1) + (1,) * (cached.ndim - 2))


def _output_block(network, state, from_subnet, to_subnet, apply_prune, block, current):
    """``to_subnet``'s logits: from scratch, or the stored ones plus the new features' delta."""
    dtype = state.input.dtype
    layer = block.layer
    in_subnet = network.input_unit_subnet(block.param_index)
    if from_subnet < 0 or state.logits is None:
        mask = layer.weight_mask(to_subnet, in_subnet, apply_prune)
        weight = (layer.weight.data * mask).astype(dtype, copy=False)
        return current @ weight.T + layer.bias.data.astype(dtype, copy=False).reshape(1, -1)
    new_features = np.where((in_subnet > from_subnet) & (in_subnet <= to_subnet))[0]
    if new_features.size == 0:
        return state.logits.copy()
    # Slice the added feature columns before masking and casting: the
    # full masked weight matrix is never built for a delta update.
    weight = layer.weight_columns(new_features, to_subnet, in_subnet, apply_prune)
    weight = weight.astype(dtype, copy=False)
    return state.logits + current[:, new_features] @ weight.T
