"""Compiled inference plans: ahead-of-time preparation of stepping inference.

Every piece of work the incremental engine used to redo on *every*
``step_to`` — deriving weight masks, casting dense weights to the
inference dtype, applying eval-mode batch norm channel by channel,
re-deriving per-subnet MAC counts — is invariant across steps for a
fixed ``(network, dtype, apply_prune)``.  A :class:`NetworkPlan` hoists
all of it out of the step loop, the way slimmable-network deployments
pre-slice per-width weights and NN-serving systems compile a model into
an execution plan before taking traffic:

* per hidden layer and per subnet level, the **packed new-unit weight
  slab** — the rows of the units that first appear at that level, with
  the membership/incremental/pruning mask already applied, batch norm
  folded into the weights and bias (exact at eval time) and the result
  cast to the inference dtype (conv slabs are pre-flattened to a GEMM
  layout whose column 0 is the folded bias, see below);
* the **new-unit indices** used to scatter freshly computed
  activations into the full-width layer cache, and per conv and pooling
  step the per-level set of input channels a fresh buffer packs;
* per output-head level, the **delta column slices** (packed masked
  columns of the classifier for the features added at that level);
* the per-level **subnet MAC counts** used for step accounting.

Execution over the plan (:meth:`NetworkPlan.execute`) is pure numpy: no
autograd ``Tensor`` wrapping, no per-step masking or casting, and no
full-width ``cached * active`` copies — new units are written into the
cache in place, and the cache itself (zeros at not-yet-computed units)
*is* the combined activation map of the current subnet.

The step loop also exploits the structural invariant that a computed
activation never changes: per conv layer a persistent **column buffer**
holds the im2col patches of its input in channel-major layout, and per
pooling stage a persistent **pooled map** holds the downsampled cache —
both updated only at the channels a step activates, so over a full walk
every input channel is packed and pooled exactly once instead of once
per step.  These buffers live in the inference state's ``aux`` and move
with it; they are pure caches, rebuilt transparently when absent.

A column buffer is ``(1 + C*kh*kw, N*oh*ow)``: one leading **row of
ones**, written when the buffer is created and never packed, over the
channel rows ``(C, kh, kw)``.  Every conv level slab carries its folded
bias as column 0, so the product of a slab with the buffer's leading
rows adds the bias inside the GEMM: no separate bias pass.

A conv step multiplies only the inputs it can see.  Per conv layer and
level the plan records the GEMM **depth** ``span*(last input channel
active at the level + 1)`` (0 when none is), where ``span`` is the
columns one input channel feeds (``kh*kw`` here): every weight column
past it is masked to zero, and every operand row past it holds a channel
not yet computed.  A level's slab is stored at its own depth, the
concatenated slab of a step ``from -> to`` is zero-padded to
``1 + depth[to]`` columns, and the GEMM reads the buffer's leading
``1 + depth[to]`` rows — a contiguous prefix, so no copy.  The depth is
computed from the unit sets, not from whether they compile to a slice,
and it is a function of ``(from, to)`` alone, so warm and rebuilt-buffer
steps run the same product and stay bit-equal to each other.

A conv whose input map is no larger than its kernel window
(``in_h*in_w <= kh*kw``, VGG-16's 2x2 convs at 32x32) is compiled
**dense** instead: one GEMM ``(N, depth) @ (depth, new_units*oh*ow)``
over the contiguous prefix ``x.reshape(N, -1)[:, :depth]`` of its
channel-major input map, with ``span = in_h*in_w``.  Its slab rows are
ordered ``(unit, oh, ow)`` and each entry holds the kernel tap joining
that output pixel to that input pixel (zero where none does), so the
product needs no scratch pad, patch view, pack or column buffer, and a
one-sample step over a slice of units writes straight into
``cached[0, units]``; its bias column is added after the product.  Per
output pixel the dense form multiplies ``in_h*in_w`` inputs per channel
where im2col multiplies ``kh*kw``, so under the rule it never issues
more MACs (2x2 maps: 4 against 9).  The choice is made at compile time.

The bias column, the depth cut and the dense form each change only the
order of a float sum: against the masked-walk oracle of the tests
(``tests/oracles.py``) compiled logits hold the documented tolerance (float64 rtol 1e-9, float32 rtol 2e-3), not
bit-identity, while warm, cold and batched steps run the same kernels and
stay bit-equal to each other.

Packing allocates nothing either: each conv step owns a **scratch**
full-channel padded input map whose padding stays zero, one flat buffer
grown to the largest sample count seen.  Per sample count the plan
builds three views of it once — its interior, the channel-major patch
view and the column buffer's wrap entries — and rebuilds them only when
the map grows.  A pack copies just the updated channels into the
interior at their own positions, ``interior[:, update] = src[:,
update]``, then their patches into the column buffer's channel rows,
``rows[update] = patches[update]``; other channels' stale interior
reaches no entry the pack keeps.  The scratch has one of two geometries,
fixed at compile time by the conv's shape (:meth:`NetworkPlan._patch_views`):

* **rows**, for a stride-1 conv whose output row is as wide as its input
  row ("same" padding: VGG-16's 3x3 convs that are not dense, the tiny
  CNN, LeNet-3C1L).
  The map keeps its vertical padding rows but no horizontal padding:
  each channel is ``H + 2*ph`` rows of ``W``, with ``pw`` zeros at each
  end of the buffer.  A tap's ``oh*ow`` patch pixels are then one
  unit-stride run of the map, and a channel's interior one contiguous
  run, so the copies move whole rows (the lowering of MEC, Cho & Brand,
  ICML 2017, inside the column buffer).  Only the pixels whose input
  column lies in the padding read the neighbouring row instead: for a
  3x3 conv, tap ``j=0`` at ``w=0`` and tap ``j=2`` at ``w=W-1``.  One
  precomputed strided view per padding column covers them, and the pack
  sets them to zero.
* **padded**, for every other conv (LeNet-5's 5x5 "valid" convs, strided
  convs): ``(N, C, H + 2*ph, W + 2*pw)`` with a zero border, the patch
  view :func:`~repro.nn.functional.channel_major_view`, no wrap entries.

Both leave the same bytes in the column buffer.  The scratch is plan
state, not request state — it is not in ``aux`` and not in
:meth:`NetworkPlan.state_nbytes` — so a plan is not re-entrant: it runs
on one thread at a time, as every caller in this package does.

A cold step takes a fresh column buffer from ``np.empty`` and zeroes
only the rows of the input channels inactive at ``to``: its pack writes
every other row, so the buffer holds the bytes a zeroed one would.
Zeroing less is unsound: a gap row of a shuffled assignment lies inside
the GEMM depth, where a zero weight times garbage (NaN, inf) is not
zero, and a row past the depth would change the buffer's bytes, which
warm, cold and batched steps must agree on.  Fresh conv output caches
and pooled maps come from ``np.empty`` the same way, with only the units
or channels the cold GEMMs and pools do not write zeroed.

Every step runs a compiled **edge program**.  The first step over an
edge ``(from, to)`` compiles a flat tuple of ops, which the plan keeps
for reuse.  Each op is a closure whose slab, unit index, GEMM depth,
pixel count, update set and ``cache``/``aux`` keys are fixed at compile
time; a conv block is **one** op (cold set-up, pack, and GEMM +
activation).  A step is then one dict lookup and a loop of calls, with
no per-block dispatch.  Each edge has two programs, built by one
compiler from the same kernels:

* The **warm** program runs when ``aux``'s ``"level"`` tag equals
  ``from``.  The tag is written only after a complete pass, and dropping
  ``aux`` clears it, so every buffer exists.  The program leaves out
  every op with nothing to do, and a conv op its pack when no input
  channel changed or its GEMM when the slab is empty.  On a 32-level
  ladder most edges add no unit to a narrow first layer, and some add
  none anywhere.
* The **cold** program serves fresh, dropped and imported states.  It
  creates any missing buffer and packs every channel active at ``to``,
  as a rebuilt buffer always has.

Both programs run the same kernels on the same values, so they are
bit-equal to each other.  Two kernels write in place, where that stores
the same values:

* A one-sample conv whose new units form a slice runs its GEMM with
  ``out=`` set to its contiguous cache block ``cached[0, units]``.  The
  activation (and a dense conv's bias) then runs there: no temporary and
  no scatter.  It is the same BLAS call on the same operands; only the
  output lands elsewhere.
* A 2x2/stride-2 max pool over a slice of channels writes its second
  ``np.maximum`` straight into the pooled map.  An element-wise max
  gives the same values wherever it stores them.

Every unit set is compiled to the cheapest numpy index that selects it
(:data:`Index`): a basic ``slice`` when the units form one ascending run
— always the case for prefix assignments, and for the concatenation of
adjacent levels' runs — else the index array, and ``None`` when empty.
Indexing syntax is the same for both, so one execution body serves
either; a slice just skips the per-call fancy-indexing overhead, which
dominates at the small shapes of an incremental step.  Copying through a
slice or an index array moves the same values, so the choice is
bit-identical for packing, pooling and scattering.  The one exception is
the output head: it gathers its delta features as a contiguous *copy*
(``current[:, slab.units]``) even for a run, because a BLAS product on a
strided view can round differently from the same product on a
contiguous operand (observed on float64 logits).

A group of in-flight inferences at one subnet edge advances in one call
(:meth:`NetworkPlan.execute_batch`), the unit a serving backend
dispatches.  The call runs each member through the edge's program on
the member's own ``cache`` and ``aux``, so every member's logits are
:meth:`NetworkPlan.execute`'s by construction.  No host work is shared
between members: packing, pooling and every GEMM run per member.

Plans assume eval-mode semantics (batch-norm running statistics) and the
structure that makes stepping inference sound in the first place: the
no-new-to-old-synapse rule on every hidden layer, an output layer in
every subnet and a conv layer before every pool.  A network that breaks
one (the slimmable baseline, a pool-first spec) raises
:class:`~repro.utils.errors.ConfigError` at compile time, so no engine
or backend can be built on it.  Plans are snapshots — mutate the
network's weights, masks or assignments and a new plan must be built
(see :meth:`NetworkPlan.for_network` and its ``refresh`` flag).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union
from weakref import WeakKeyDictionary, ref

import numpy as np

from ..nn.functional import (
    avg_pool2d_infer,
    channel_major_view,
    max_pool2d_infer,
    resolve_activation,
)
from ..utils.errors import ConfigError

_EMPTY = np.empty(0, dtype=np.int64)

#: A unit set as the hot path indexes it: ``None`` when empty, a basic
#: ``slice`` when contiguous, the ascending index array otherwise.
Index = Optional[Union[slice, np.ndarray]]


def _as_slice(units: np.ndarray) -> Optional[slice]:
    """``slice(lo, hi)`` if ``units`` is the run ``lo, lo+1, ..., hi-1``, else ``None``."""
    lo, hi = int(units[0]), int(units[-1]) + 1
    if hi - lo == units.size and np.array_equal(units, np.arange(lo, hi)):
        return slice(lo, hi)
    return None


def _index(units: np.ndarray) -> Index:
    """The cheapest numpy index selecting exactly ``units`` (see :data:`Index`)."""
    if not units.size:
        return None
    contiguous = _as_slice(units)
    return units if contiguous is None else contiguous


def _active(in_levels: np.ndarray, num_subnets: int, active: bool = True) -> Tuple[Index, ...]:
    """Per subnet level, the index of the incoming channels active (or not) at it."""
    return tuple(
        _index(np.where((in_levels <= level) == active)[0]) for level in range(num_subnets)
    )


def _depths(in_levels: np.ndarray, num_subnets: int, span: int) -> Tuple[int, ...]:
    """Per subnet level, the conv GEMM depth a step to it multiplies.

    ``span * (last input channel active at the level + 1)``, or 0 when no
    input channel is active, where ``span`` is the GEMM columns one input
    channel feeds: its ``kh*kw`` taps (im2col) or its ``h*w`` pixels
    (dense).  Past it every weight column is masked to zero, and every
    operand row holds a channel not yet computed.
    """
    depths = []
    for level in range(num_subnets):
        active = np.flatnonzero(in_levels <= level)
        depths.append(span * (int(active[-1]) + 1) if active.size else 0)
    return tuple(depths)


def _dense_taps(
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    in_spatial: Tuple[int, int],
    out_spatial: Tuple[int, int],
) -> np.ndarray:
    """``(oh*ow, h*w)`` map from (output pixel, input pixel) to the kernel tap
    ``i*kw + j`` joining them, or ``kh*kw`` (no tap) where none does."""
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    (height, width), (out_h, out_w) = in_spatial, out_spatial
    i = (np.arange(height)[None, :] - sh * np.arange(out_h)[:, None] + ph)[:, None, :, None]
    j = (np.arange(width)[None, :] - sw * np.arange(out_w)[:, None] + pw)[None, :, None, :]
    inside = (i >= 0) & (i < kh) & (j >= 0) & (j < kw)
    return np.where(inside, i * kw + j, kh * kw).reshape(out_h * out_w, height * width)


def _conv_slab(
    weight: np.ndarray, bias: np.ndarray, taps: Optional[np.ndarray], dtype: np.dtype
) -> np.ndarray:
    """A conv level's GEMM slab in ``dtype``: the folded bias as column 0,
    then the columns of the input channels ``weight`` keeps.

    im2col (``taps`` is ``None``): rows are units, columns ``(c, i, j)``.
    Dense: rows are ``(unit, oh, ow)`` and columns ``(c, h, w)``; each entry
    is the kernel tap ``taps`` names, or zero where the kernel does not
    reach.  One copy of every unit's and channel's tap per joined (output
    pixel, input pixel) pair, at most ``(kh*kw)**2`` copies.
    """
    units, channels, kh, kw = weight.shape
    if taps is None:
        slab = np.empty((units, 1 + channels * kh * kw), dtype=dtype)
        slab[:, 0] = bias
        slab[:, 1:] = weight.reshape(units, channels * kh * kw)
        return slab
    pixels, spread = taps.shape
    slab = np.zeros((units * pixels, 1 + channels * spread), dtype=dtype)
    slab[:, 0] = np.repeat(bias, pixels)
    body = slab[:, 1:].reshape(units, pixels, channels, spread)
    kernel = weight.astype(dtype).reshape(units, channels, kh * kw)
    for pixel, source in zip(*np.nonzero(taps < kh * kw)):
        body[:, pixel, :, source] = kernel[:, :, taps[pixel, source]]
    return slab


def _wrap_views(
    kernel: Tuple[int, int], pw: int, width: int, channels: int, lines: int, item: int
) -> Tuple[Tuple[Tuple[int, ...], int, Tuple[int, ...]], ...]:
    """The ``(shape, offset, strides)`` of each wrap view of a rows-geometry
    column buffer (see :meth:`NetworkPlan._patch_views`).

    ``lines`` is ``N*oh``: with ``ow == width`` the buffer's channel rows
    are ``(C, kh, kw)`` over ``lines`` runs of ``width`` pixels, below the
    ones row.  Per distance ``d`` in ``1..pw`` one ``(C, kh, 2, lines,
    min(d, width))`` view covers tap ``j = pw - d`` at each run's first
    ``d`` pixels and tap ``j = pw + d`` at its last ``d``: the pixels
    whose input column lies in the padding.  Offset and strides are in
    bytes, for the ``np.ndarray`` constructor over the buffer.
    """
    (kh, kw), pixels = kernel, lines * width
    views = []
    for d in range(1, pw + 1):
        edge = min(d, width)
        steps = (kh * kw * pixels, kw * pixels, 2 * d * pixels + width - edge, width, 1)
        offset = (1 + pw - d) * pixels  # past the ones row, at tap j = pw - d
        shape = (channels, kh, 2, lines, edge)
        views.append((shape, item * offset, tuple(item * n for n in steps)))
    return tuple(views)


def _widen(weight: np.ndarray, width: int) -> np.ndarray:
    """``weight`` with zero columns appended up to ``width`` columns."""
    if weight.shape[1] == width:
        return weight
    wide = np.zeros((weight.shape[0], width), dtype=weight.dtype)
    wide[:, : weight.shape[1]] = weight
    return wide


def _bn_fold(norm, units: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-unit ``(scale, shift)`` so that ``BN(z) == scale * z + shift``.

    Eval-mode batch norm is affine in its input:
    ``gamma * (z - mean) / sqrt(var + eps) + beta``; folding it into the
    preceding layer's weights and bias is exact up to float associativity.
    """
    scale = norm.gamma.data[units] / np.sqrt(norm.running_var[units] + norm.eps)
    shift = norm.beta.data[units] - norm.running_mean[units] * scale
    return scale, shift


@dataclass
class _Slab:
    """Packed ready-to-execute weights for a contiguous range of levels."""

    units: np.ndarray  # output-unit (or input-feature) indices
    weight: np.ndarray  # masked, folded, cast — rows (hidden) or columns (output)
    bias: Optional[np.ndarray] = None
    index: Index = field(init=False)  # ``units`` as the hot path indexes it

    def __post_init__(self) -> None:
        self.index = _index(self.units)


class _RangeCache:
    """Lazily memoised concatenation of per-level slabs over ``(from, to]``.

    Stepping patterns are arbitrary ``i -> j`` jumps, but the set of
    distinct ranges is at most ``O(num_subnets^2)`` and in serving
    practice dominated by ``i -> i+1``; concatenations are built once on
    first use and reused for the lifetime of the plan.

    With ``depths`` (conv steps) each level's slab holds its bias column
    and its first ``depths[level]`` GEMM columns, and a range's rows are
    zero-padded to ``1 + depths[to]`` columns: the depth of a step's GEMM
    is a function of ``(from, to)`` alone.
    """

    def __init__(self, levels: List[_Slab], depths: Optional[Tuple[int, ...]] = None) -> None:
        self.levels = levels
        self.depths = depths
        self._ranges: Dict[Tuple[int, int], _Slab] = {}

    def pack(self, from_subnet: int, to_subnet: int) -> _Slab:
        key = (from_subnet, to_subnet)
        hit = self._ranges.get(key)
        if hit is not None:
            return hit
        slabs = [s for s in self.levels[from_subnet + 1 : to_subnet + 1] if s.units.size]
        width = None if self.depths is None else 1 + self.depths[to_subnet]
        if len(slabs) == 1 and (width is None or slabs[0].weight.shape[1] == width):
            hit = slabs[0]
        elif slabs:
            hit = _Slab(
                units=np.concatenate([s.units for s in slabs]),
                weight=np.concatenate(
                    [s.weight if width is None else _widen(s.weight, width) for s in slabs],
                    axis=0,
                ),
                bias=(
                    np.concatenate([s.bias for s in slabs])
                    if slabs[0].bias is not None
                    else None
                ),
            )
        else:
            empty = self.levels[0]
            columns = empty.weight.shape[1:] if width is None else (width,)
            hit = _Slab(
                units=_EMPTY,
                weight=np.empty((0,) + columns, dtype=empty.weight.dtype),
                bias=(
                    np.empty((0,) + empty.bias.shape[1:], dtype=empty.weight.dtype)
                    if empty.bias is not None
                    else None
                ),
            )
        self._ranges[key] = hit
        return hit


@dataclass
class _HiddenStep:
    """A parametric hidden block compiled to per-level packed slabs."""

    kind: str  # "conv" | "linear"
    param_index: int
    activate: Callable[..., np.ndarray]  # resolved activation, ``f(z, out)``
    num_units: int
    slabs: _RangeCache
    # conv only
    dense: bool = False  # one GEMM over the flattened input map, no column buffer
    rows: bool = False  # "same" stride-1 conv: scratch rows unpadded (see _patch_views)
    in_channels: int = 0
    active: Tuple[Index, ...] = ()  # per level: input channels to pack first
    inactive: Tuple[Index, ...] = ()  # per level: column rows a cold step zeroes
    kernel: Tuple[int, int] = (1, 1)
    stride: Tuple[int, int] = (1, 1)
    padding: Tuple[int, int] = (1, 1)
    in_spatial: Tuple[int, int] = (1, 1)
    out_spatial: Tuple[int, int] = (1, 1)
    # The flat zeroed buffer packs go through (a full-channel padded input
    # map, grown to the largest sample count seen), and per sample count
    # its (interior, patches, wrap) views: plan scratch, never request state.
    scratch: Optional[np.ndarray] = field(default=None, repr=False)
    views: Dict[int, Tuple[np.ndarray, np.ndarray, Tuple]] = field(
        default_factory=dict, repr=False
    )


@dataclass
class _OutputStep:
    """The classifier head compiled to per-level packed column slices."""

    param_index: int
    bias: np.ndarray
    slabs: _RangeCache


@dataclass
class _PoolStep:
    kind: str
    size: int
    stride: int
    index: int  # aux-state key (position in the plan)
    num_channels: int  # width of the incoming full-width map
    active: Tuple[Index, ...]  # per level: incoming channels to pool first
    channel_levels: np.ndarray  # per incoming channel, the level it first appears at
    out_spatial: Tuple[int, int] = (1, 1)  # pooled-map dims (footprint accounting)


@dataclass
class _FlattenStep:
    pass


def _fold(x: np.ndarray, op, size: int, axis: int) -> np.ndarray:
    """``op``-reduce non-overlapping windows of ``size`` along ``axis`` (pairwise)."""
    lead = (slice(None),) * axis
    out = x[lead + (slice(0, None, size),)]
    for offset in range(1, size):
        out = op(out, x[lead + (slice(offset, None, size),)])
    return out


def _head_full(current: np.ndarray, slab: _Slab, bias: np.ndarray) -> np.ndarray:
    """Logits from scratch.  The gather uses ``slab.units`` even for a run:
    a contiguous copy, because the product on a strided view can round
    differently."""
    return current[:, slab.units] @ slab.weight + bias


def _head_delta(current: np.ndarray, slab: _Slab, logits: np.ndarray) -> np.ndarray:
    """Logits updated with the contribution of the features ``slab`` adds."""
    if slab.index is None:
        return logits.copy()
    return logits + current[:, slab.units] @ slab.weight


#: One op of an edge program, ``op(inputs, cache, aux)``: it reads and
#: writes one member's buffers under keys fixed at compile time.
_Op = Callable[[np.ndarray, Dict[int, np.ndarray], Dict], None]
#: Where an op reads its input map: ``source(inputs, cache, aux)``.
_Source = Callable[[np.ndarray, Dict[int, np.ndarray], Dict], np.ndarray]
#: The classifier head, ``head(inputs, cache, aux, logits) -> logits``.
_Head = Callable[[np.ndarray, Dict[int, np.ndarray], Dict, Optional[np.ndarray]], np.ndarray]


@dataclass(frozen=True)
class _Program:
    """One ``(from, to)`` edge compiled to a flat op list (warm or cold)."""

    ops: Tuple[_Op, ...]
    head: _Head


def _input_map(inputs: np.ndarray, cache: Dict, aux: Dict) -> np.ndarray:
    return inputs


# Sources are interned: every program reading the same map shares one.
@lru_cache(maxsize=None)
def _cache_map(param_index: int) -> _Source:
    return lambda inputs, cache, aux: cache[param_index]


@lru_cache(maxsize=None)
def _aux_map(key: Tuple[str, int]) -> _Source:
    return lambda inputs, cache, aux: aux[key]


@lru_cache(maxsize=None)
def _flat_map(source: _Source) -> _Source:
    def flat(inputs: np.ndarray, cache: Dict, aux: Dict) -> np.ndarray:
        current = source(inputs, cache, aux)
        return current.reshape(current.shape[0], -1)

    return flat


def _head_op(step: _OutputStep, source: _Source, from_subnet: int, to_subnet: int) -> _Head:
    """The head of one edge: from scratch at a run's start, else a delta.

    A caller that steps a started state without its logits gets them
    from scratch.
    """
    full, bias = step.slabs.pack(-1, to_subnet), step.bias

    def start(inputs: np.ndarray, cache: Dict, aux: Dict, logits) -> np.ndarray:
        return _head_full(source(inputs, cache, aux), full, bias)

    if from_subnet < 0:
        return start
    delta = step.slabs.pack(from_subnet, to_subnet)

    def head(inputs: np.ndarray, cache: Dict, aux: Dict, logits) -> np.ndarray:
        if logits is None:
            return start(inputs, cache, aux, logits)
        return _head_delta(source(inputs, cache, aux), delta, logits)

    return head


@dataclass
class BatchMember:
    """One request's execution state inside a batched step.

    Holds *references* to the request's live state (the same arrays an
    :class:`~repro.core.incremental.InferenceState` carries): ``cache``
    and ``aux`` are updated in place by :meth:`NetworkPlan.execute_batch`
    exactly as :meth:`NetworkPlan.execute` would, so a member can leave
    the batch after any step and continue solo (or vice versa) with no
    state conversion.  ``inputs`` must already be in the plan dtype —
    the same contract as ``execute``.
    """

    inputs: np.ndarray
    cache: Dict[int, np.ndarray]
    aux: Dict
    logits: Optional[np.ndarray] = None


class NetworkPlan:
    """Ahead-of-time compiled stepping-inference plan for one network.

    Build once per ``(network, dtype, apply_prune)`` and execute many
    times; the weights are read-only at serving time, so any number of
    engines, sessions and backends on one platform can share it.  The
    im2col scratch maps are the only state execution writes, so calls
    must not overlap: one thread at a time.
    """

    _shared: "WeakKeyDictionary" = WeakKeyDictionary()

    def __init__(self, network, apply_prune: bool = True, dtype=np.float64) -> None:
        # Deliberately no strong reference to ``network`` is kept: the
        # plan is a self-contained snapshot, and keeping the network
        # alive would defeat the weak-keyed ``for_network`` cache.  The
        # weak ref lets profilers find the network a plan was built for.
        self.network_ref = ref(network)
        self.apply_prune = bool(apply_prune)
        self.dtype = np.dtype(dtype)
        self.num_subnets = network.num_subnets
        self.flatten_input = not network.spec._has_conv()
        self.input_shape: Tuple[int, ...] = tuple(network.spec.input_shape)
        self.steps: List[object] = []
        #: Exact per-level MAC counts (what a step from ``i`` to ``j`` charges).
        self.subnet_macs: Tuple[int, ...] = tuple(
            network.subnet_macs(level, apply_prune=self.apply_prune)
            for level in range(self.num_subnets)
        )
        #: Compiled edge programs, built on first use: ``(from, to, warm)``.
        self._programs: Dict[Tuple[int, int, bool], _Program] = {}
        self._compile(network)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _compile(self, network) -> None:
        prev_layer = None
        spatial: Optional[Tuple[int, int]] = None
        for block in network.blocks:
            if block.kind in ("conv", "linear") and not block.is_output:
                step = self._compile_hidden(network, block)
                self.steps.append(step)
                prev_layer = block.layer
                if block.kind == "conv":
                    spatial = step.out_spatial
            elif block.kind == "linear" and block.is_output:
                self.steps.append(self._compile_output(network, block))
            elif block.kind == "pool":
                if prev_layer is None:
                    raise ConfigError("compiled plans require a parametric layer before pooling")
                if spatial is None:
                    raise ConfigError("compiled plans require a conv layer before pooling")
                spatial = (
                    (spatial[0] - block.pool_size) // block.pool_stride + 1,
                    (spatial[1] - block.pool_size) // block.pool_stride + 1,
                )
                self.steps.append(
                    _PoolStep(
                        kind=block.pool_kind,
                        size=block.pool_size,
                        stride=block.pool_stride,
                        index=len(self.steps),
                        num_channels=prev_layer.assignment.num_units,
                        active=_active(prev_layer.assignment.unit_subnet, self.num_subnets),
                        channel_levels=np.asarray(prev_layer.assignment.unit_subnet),
                        out_spatial=spatial,
                    )
                )
            elif block.kind == "flatten":
                self.steps.append(_FlattenStep())
            # dropout is identity at inference time: compiled away entirely

    def _compile_hidden(self, network, block) -> _HiddenStep:
        layer = block.layer
        if not layer.enforce_incremental:
            # Without the no-new-to-old-synapse rule a unit's inputs grow
            # with the executing subnet, so per-level slabs (masked at the
            # unit's own level) would silently drop weights.
            raise ConfigError(
                "compiled plans require the incremental no-new-to-old-synapse "
                f"rule; hidden layer '{layer.layer_name}' was built with "
                "enforce_incremental=False"
            )
        in_subnet = np.asarray(network.input_unit_subnet(block.param_index))
        conv = block.kind == "conv"
        geometry, depths, taps = {}, None, None
        if conv:
            kernel = (layer.kernel_size, layer.kernel_size)
            stride, padding = (layer.stride, layer.stride), (layer.padding, layer.padding)
            in_spatial = tuple(block.in_spatial)
            out_spatial = layer.output_spatial_size(*in_spatial)
            # A map no larger than the kernel window costs no more MACs as
            # one dense product than as im2col columns.
            window, pixels = kernel[0] * kernel[1], in_spatial[0] * in_spatial[1]
            dense = pixels <= window
            span = pixels if dense else window  # GEMM columns per input channel
            depths = _depths(in_subnet, self.num_subnets, span)
            if dense:
                taps = _dense_taps(kernel, stride, padding, in_spatial, out_spatial)
            geometry = dict(
                dense=dense,
                rows=not dense and stride == (1, 1) and out_spatial[1] == in_spatial[1],
                in_channels=layer.in_channels,
                active=_active(in_subnet, self.num_subnets),
                inactive=_active(in_subnet, self.num_subnets, active=False),
                kernel=kernel,
                stride=stride,
                padding=padding,
                in_spatial=in_spatial,
                out_spatial=out_spatial,
            )
        levels: List[_Slab] = []
        for level in range(self.num_subnets):
            units = layer.assignment.units_in_exactly(level)
            weight = layer.weight_rows(units, level, in_subnet, self.apply_prune)
            bias = layer.bias.data[units]
            if conv:
                # Cut to the level's depth: the cut channels are masked to zero.
                weight = weight[:, : depths[level] // span]
            if block.norm is not None:
                scale, shift = _bn_fold(block.norm, units)
                weight = weight * scale.reshape((-1,) + (1,) * (weight.ndim - 1))
                bias = bias * scale + shift
            if conv:
                weight, bias = _conv_slab(weight, bias, taps, self.dtype), None
            levels.append(
                _Slab(
                    units=units,
                    weight=np.ascontiguousarray(weight, dtype=self.dtype),
                    bias=None if bias is None else np.ascontiguousarray(bias, dtype=self.dtype),
                )
            )
        return _HiddenStep(
            kind=block.kind,
            param_index=block.param_index,
            activate=resolve_activation(block.activation),
            num_units=layer.assignment.num_units,
            slabs=_RangeCache(levels, depths),
            **geometry,
        )

    def _compile_output(self, network, block) -> _OutputStep:
        layer = block.layer
        if not np.all(layer.assignment.unit_subnet == 0):
            raise ConfigError(
                "compiled plans require the output layer in every subnet "
                "(frozen assignment at level 0)"
            )
        in_subnet = np.asarray(network.input_unit_subnet(block.param_index))
        levels: List[_Slab] = []
        for level in range(self.num_subnets):
            features = np.where(in_subnet == level)[0]
            columns = layer.weight_columns(
                features, self.num_subnets - 1, in_subnet, self.apply_prune
            )
            # Stored transposed — (features, classes) — so level slabs
            # concatenate along axis 0 like the hidden row slabs.
            levels.append(
                _Slab(
                    units=features,
                    weight=np.ascontiguousarray(columns.T, dtype=self.dtype),
                )
            )
        return _OutputStep(
            param_index=block.param_index,
            bias=layer.bias.data.astype(self.dtype),
            slabs=_RangeCache(levels),
        )

    # ------------------------------------------------------------------
    # Footprint accounting
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Bytes held by the packed per-level weight slabs themselves.

        The plan's own (shared, read-only) footprint — excluded from the
        per-request resident-context budget, which charges only private
        state; reported so deployments can size total memory.
        """
        total = 0
        for step in self.steps:
            if isinstance(step, (_HiddenStep, _OutputStep)):
                for slab in step.slabs.levels:
                    total += slab.weight.nbytes
                    if slab.bias is not None:
                        total += slab.bias.nbytes
            if isinstance(step, _OutputStep):
                total += step.bias.nbytes
        return total

    def state_nbytes(self, batch_size: int = 1) -> int:
        """Predicted resident footprint of one started inference context.

        Input copy + full-width activation caches + plan ``aux`` buffers
        (im2col columns with their ones row, pooled maps) + logits, for a request of
        ``batch_size`` samples.  Caches and aux buffers are allocated at
        full width on first touch regardless of the executing subnet
        level, so the prediction is level-independent and matches
        :meth:`~repro.core.incremental.IncrementalInference.state_nbytes`
        exactly for a compiled context that has taken at least one step.
        Every buffer has the batch as a factor, so the footprint is
        ``batch_size`` times the per-sample bytes the plan computes once.
        Serving layers use it to size memory budgets and to estimate a
        node's resident bytes before any request has run.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        return batch_size * self._sample_nbytes

    @cached_property
    def _sample_nbytes(self) -> int:
        """Resident bytes of one sample's context (the plan is read-only)."""
        elements = int(np.prod(self.input_shape))
        for step in self.steps:
            if isinstance(step, _HiddenStep):
                if step.kind == "conv":
                    out_h, out_w = step.out_spatial
                    elements += step.num_units * out_h * out_w  # cache
                    if not step.dense:
                        kh, kw = step.kernel
                        elements += (1 + step.in_channels * kh * kw) * out_h * out_w  # im2col
                else:
                    elements += step.num_units  # cache (no aux)
            elif isinstance(step, _PoolStep):
                out_h, out_w = step.out_spatial
                elements += step.num_channels * out_h * out_w  # pooled map
            elif isinstance(step, _OutputStep):
                elements += step.bias.shape[0]  # logits
        return elements * self.dtype.itemsize

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        inputs: np.ndarray,
        cache: Dict[int, np.ndarray],
        aux: Dict,
        logits: Optional[np.ndarray],
        from_subnet: int,
        to_subnet: int,
    ) -> np.ndarray:
        """Advance one in-flight inference from ``from_subnet`` to ``to_subnet``.

        ``cache`` maps ``param_index`` to the full-width activation map of
        each hidden layer (zeros at not-yet-computed units) and is
        updated in place.  ``aux`` holds the plan's private incremental
        buffers (column buffers, pooled maps); missing entries are rebuilt
        from the cache, so an empty dict — e.g. a state another engine
        advanced — is always valid.  Returns the logits of ``to_subnet``.

        The step runs the edge's compiled program: the warm one when
        ``aux`` was last advanced to ``from_subnet`` by a complete pass,
        else the cold one, which rebuilds ``aux`` from the cache.
        """
        return self._run(inputs, cache, aux, logits, from_subnet, to_subnet)

    def execute_batch(
        self,
        members: Sequence[BatchMember],
        from_subnet: int,
        to_subnet: int,
    ) -> List[np.ndarray]:
        """Advance every member from ``from_subnet`` to ``to_subnet``.

        All members sit at the same subnet edge (the batching policy
        guarantees this).  Each member runs the edge's compiled program
        on its own ``cache``/``aux``, exactly as :meth:`execute` would, so
        the returned logits are :meth:`execute`'s by construction and a
        member may differ from the others in sample count or in whether
        its buffers are warm.  A lone member enters through
        :meth:`execute`; a larger group runs the same program per member
        without calling :meth:`execute`, so a wrapper counting work on
        both entry points counts each member once.
        """
        if not members:
            raise ValueError("execute_batch needs at least one member")
        if len(members) == 1:
            member = members[0]
            return [
                self.execute(
                    member.inputs, member.cache, member.aux, member.logits,
                    from_subnet, to_subnet,
                )
            ]
        return [
            self._run(m.inputs, m.cache, m.aux, m.logits, from_subnet, to_subnet)
            for m in members
        ]

    def _run(
        self,
        inputs: np.ndarray,
        cache: Dict[int, np.ndarray],
        aux: Dict,
        logits: Optional[np.ndarray],
        from_subnet: int,
        to_subnet: int,
    ) -> np.ndarray:
        """Run one member's step over its edge program (the body of
        :meth:`execute`, which :meth:`execute_batch` loops)."""
        warm = from_subnet >= 0 and aux.pop("level", None) == from_subnet
        if not warm:
            aux.clear()
        program = self._programs.get((from_subnet, to_subnet, warm))
        if program is None:
            program = self._compile_program(from_subnet, to_subnet, warm)
        if self.flatten_input and inputs.ndim == 4:
            inputs = inputs.reshape(inputs.shape[0], -1)
        for op in program.ops:
            op(inputs, cache, aux)
        out = program.head(inputs, cache, aux, logits)
        aux["level"] = to_subnet
        return out

    def _compile_program(self, from_subnet: int, to_subnet: int, warm: bool) -> _Program:
        """Compile (and memoise) the warm or cold program of one edge.

        The walk threads, per block, where its input map lives and which
        of that map's channels this step changed; both are fixed by
        ``(from, to, warm)``, so every op's slab, index, depth, update set
        and buffer keys are too.  A warm program omits every op with
        nothing to do; a cold one allocates ``aux`` and packs every
        channel active at ``to_subnet``.
        """
        ops: List[_Op] = []
        source: _Source = _input_map
        changed: Index = None  # the network input never changes within a run
        head: Optional[_Head] = None
        for step in self.steps:
            if isinstance(step, _HiddenStep):
                slab = step.slabs.pack(from_subnet, to_subnet)
                if step.kind == "conv":
                    update = changed if warm else step.active[to_subnet]
                    ops.extend(self._conv_ops(step, slab, source, update, warm, to_subnet))
                else:
                    ops.extend(self._linear_ops(step, slab, source, warm))
                source, changed = _cache_map(step.param_index), slab.index
            elif isinstance(step, _PoolStep):
                update = changed if warm else step.active[to_subnet]
                ops.extend(self._pool_ops(step, source, update, warm, to_subnet))
                source = _aux_map(("pool", step.index))
            elif isinstance(step, _OutputStep):
                head = _head_op(step, source, from_subnet, to_subnet)
            else:  # flatten
                source = _flat_map(source)
        if head is None:
            raise RuntimeError("network has no output layer")
        program = _Program(tuple(ops), head)
        self._programs[(from_subnet, to_subnet, warm)] = program
        return program

    def _conv_ops(
        self, step: _HiddenStep, slab: _Slab, source: _Source, update: Index, warm: bool, to: int
    ) -> List[_Op]:
        """A conv block as one op: buffer set-up (cold), pack, GEMM + activation.

        A cold op takes a missing output cache from ``np.empty`` and
        zeroes the units its GEMM does not write (at a run's start, the
        units inactive at ``to``).  The persistent column buffer is
        ``(1 + C*kh*kw, N*oh*ow)``: a row of ones, written when the buffer
        is created, over the channel-major rows ``(C, kh, kw)``.  A cold
        op takes it from ``np.empty`` and zeroes the rows of the channels
        inactive at ``to``; its pack writes every other row, so the
        buffer holds what a zeroed one packed would.  The pack copies the
        updated channels into the scratch map's interior at their own
        positions, then their patches into the buffer, then zeroes their
        wrap entries: in the rows geometry the pixels a patch run reads
        from a neighbouring row where the padding would be, none in the
        padded one (see :meth:`_patch_views`).  One body serves both.

        The GEMM is ``(new_units, 1 + depth) @ (1 + depth, N*oh*ow)``
        over the buffer's leading rows, a contiguous prefix: the slab's
        column 0 meets the ones row, so the product carries the bias.
        Weights on the left keep the activation and scatter contiguous.
        For one sample and a slice of units the product's layout *is* the
        cache block ``cached[0, units]``, so the GEMM writes there
        (``out=``): the same BLAS call, only stored elsewhere.
        """
        if step.dense:
            return self._dense_ops(step, slab, source, warm)
        pack, gemm = update is not None, slab.index is not None
        if warm and not (pack or gemm):
            return []
        param, key, dtype = step.param_index, ("cols", step.param_index), self.dtype
        zero, out = step.inactive[to], step.out_spatial
        fresh_cache = None if warm else self._fresh_conv_cache(step, slab)
        channels, pixels = (step.in_channels,) + step.kernel, out[0] * out[1]
        height = 1 + step.in_channels * step.kernel[0] * step.kernel[1]
        weight, index, activate = slab.weight, slab.index, step.activate
        rows, width, in_place = weight.shape[0], weight.shape[1], isinstance(index, slice)

        def conv(x: np.ndarray, cache: Dict, aux: Dict) -> None:
            samples = x.shape[0]
            if warm:
                cols = aux[key]
            else:
                fresh_cache(samples, cache)
                aux[key] = cols = np.empty((height, samples * pixels), dtype=dtype)
                cols[0] = 1
                if zero is not None:
                    cols[1:].reshape(channels + (samples,) + out)[zero] = 0
            if pack:
                interior, patches, wrap = (
                    step.views.get(samples) or self._patch_views(step, samples)
                )
                interior[:, update] = source(x, cache, aux)[:, update]
                cols[1:].reshape(patches.shape)[update] = patches[update]
                for shape, offset, strides in wrap:
                    np.ndarray(shape, dtype, cols, offset, strides)[update] = 0
            if gemm:
                cached = cache[param]
                block = cached[0, index].reshape(rows, -1) if samples == 1 and in_place else None
                z = np.matmul(weight, cols[:width], out=block)
                activate(z, z)
                if block is None:
                    cached[:, index] = z.reshape(rows, samples, *out).transpose(1, 0, 2, 3)

        return [conv]

    def _dense_ops(self, step: _HiddenStep, slab: _Slab, source: _Source, warm: bool) -> List[_Op]:
        """A dense conv block as one op: cache set-up (cold), GEMM + bias + activation.

        The GEMM is ``(N, depth) @ (depth, new_units*oh*ow)`` over the
        contiguous prefix of the flattened channel-major input map: no
        scratch pad, no patch view, no pack and no column buffer.  Its
        rows come out ordered ``(unit, oh, ow)``, the cache's layout, so a
        one-sample step over a slice of units writes straight into
        ``cached[0, units]``.
        """
        gemm = slab.index is not None
        if warm and not gemm:
            return []
        param, index, activate = step.param_index, slab.index, step.activate
        fresh_cache = None if warm else self._fresh_conv_cache(step, slab)
        weight_t, bias = slab.weight[:, 1:].T, np.ascontiguousarray(slab.weight[:, 0])
        depth, in_place, out = weight_t.shape[0], isinstance(index, slice), step.out_spatial

        def dense(x: np.ndarray, cache: Dict, aux: Dict) -> None:
            samples = x.shape[0]
            if not warm:
                fresh_cache(samples, cache)
            if gemm:
                cached = cache[param]
                block = cached[0, index].reshape(1, -1) if samples == 1 and in_place else None
                current = source(x, cache, aux).reshape(samples, -1)
                z = np.matmul(current[:, :depth], weight_t, out=block)
                z += bias
                activate(z, z)
                if block is None:
                    cached[:, index] = z.reshape((samples, -1) + out)

        return [dense]

    def _fresh_conv_cache(self, step: _HiddenStep, slab: _Slab) -> Callable[[int, Dict], None]:
        """Cold set-up of one member's conv output cache, if it is missing.

        From ``np.empty``, with only the units outside the edge's slab
        zeroed: the step's GEMM writes the rest.
        """
        param, shape, dtype = step.param_index, (step.num_units,) + step.out_spatial, self.dtype
        written = np.zeros(step.num_units, dtype=bool)
        written[slab.units] = True
        blank = _index(np.flatnonzero(~written))

        def fresh(samples: int, cache: Dict) -> None:
            if param not in cache:
                cache[param] = created = np.empty((samples,) + shape, dtype=dtype)
                if blank is not None:
                    created[:, blank] = 0

        return fresh

    def _linear_ops(
        self, step: _HiddenStep, slab: _Slab, source: _Source, warm: bool
    ) -> List[_Op]:
        """A linear block's ops: cache set-up (cold) and GEMM.

        Unwritten units are exactly the ones outside ``to_subnet`` and
        they are zero, so the cache *is* the combined activation map.
        """
        ops: List[_Op] = []
        param = step.param_index
        if not warm:

            def buffer(x: np.ndarray, cache: Dict, aux: Dict) -> None:
                self._linear_cache(step, x.shape[0], cache)

            ops.append(buffer)
        if slab.index is not None:
            index, weight_t, bias, activate = slab.index, slab.weight.T, slab.bias, step.activate

            def gemm(x: np.ndarray, cache: Dict, aux: Dict) -> None:
                z = source(x, cache, aux) @ weight_t
                z += bias
                cache[param][:, index] = activate(z, z)

            ops.append(gemm)
        return ops

    def _pool_ops(
        self, step: _PoolStep, source: _Source, update: Index, warm: bool, to: int
    ) -> List[_Op]:
        """A pooling block's ops: pooled-map set-up (cold) and the pool itself.

        A 2x2/stride-2 max pool over a slice of channels writes its second
        ``np.maximum`` straight into the pooled map: an element-wise max
        moves the same values wherever it stores them.
        """
        ops: List[_Op] = []
        key = ("pool", step.index)
        if not warm:
            zero = _index(np.flatnonzero(step.channel_levels > to))

            def buffer(x: np.ndarray, cache: Dict, aux: Dict) -> None:
                self._pool_buffer(step, x.shape[0], zero, aux)

            ops.append(buffer)
        if update is None:
            return ops
        channels = (slice(None), update)
        if isinstance(update, slice) and step.kind == "max" and step.size == step.stride == 2:
            height, width = (2 * extent for extent in step.out_spatial)
            even = channels + (slice(0, height, 2), slice(0, width))
            odd = channels + (slice(1, height, 2), slice(0, width))

            def pool(x: np.ndarray, cache: Dict, aux: Dict) -> None:
                current = source(x, cache, aux)
                rows = np.maximum(current[even], current[odd])
                np.maximum(rows[..., 0::2], rows[..., 1::2], out=aux[key][channels])

        else:

            def pool(x: np.ndarray, cache: Dict, aux: Dict) -> None:
                aux[key][channels] = self._pool_channels(
                    source(x, cache, aux)[channels], step.kind, step.size, step.stride
                )

        ops.append(pool)
        return ops

    # Cold set-up: a cold program runs on a cleared ``aux``, and the
    # network input's sample count is every buffer's batch axis.
    def _linear_cache(self, step: _HiddenStep, samples: int, cache: Dict) -> None:
        """One member's linear output map, created (zeros) if missing."""
        if step.param_index not in cache:
            cache[step.param_index] = np.zeros((samples, step.num_units), dtype=self.dtype)

    def _pool_buffer(self, step: _PoolStep, samples: int, zero: Index, aux: Dict) -> None:
        """One member's fresh pooled map, from ``np.empty`` with the channels
        ``zero`` (those inactive at the step's target) zeroed: the cold pool
        writes every other one."""
        aux[("pool", step.index)] = pooled = np.empty(
            (samples, step.num_channels) + step.out_spatial, dtype=self.dtype
        )
        if zero is not None:
            pooled[:, zero] = 0

    def _patch_views(self, step: _HiddenStep, samples: int) -> Tuple[np.ndarray, np.ndarray, Tuple]:
        """The scratch map's interior, its patch view and the column buffer's
        wrap entries for ``samples`` samples.

        Built once per sample count, and again only after the scratch map
        grows (zeroed) to a larger one.  A pack writes just its channels'
        interior and reads back just their patches, so the padding stays
        zero and other channels' stale values reach no entry it keeps.

        The scratch is one flat buffer in either geometry:

        * **padded**: ``(N, C, H + 2*ph, W + 2*pw)``.  The patch view is
          :func:`~repro.nn.functional.channel_major_view`'s
          ``(C, kh, kw, N, oh, ow)``, and ``wrap`` is empty.
        * **rows** (stride 1, ``ow == W``): ``(N, C, H + 2*ph, W)`` between
          ``pw`` zeros at each end.  Output pixel ``(h, w)`` of tap
          ``(c, i, j)`` reads flat element ``h*W + w + i*W + j - pw`` of
          channel ``c``, so the tap's ``oh*ow`` pixels are one unit-stride
          run: the patch view is ``(C, kh, kw, N, oh*ow)`` and the interior
          one contiguous run per channel.  The pixels whose column
          ``w + j - pw`` falls outside ``[0, W)`` read the neighbouring
          row instead of the padding; ``wrap`` holds, per distance ``d``
          in ``1..pw``, the ``(shape, offset, strides)`` of the column
          buffer view over taps ``j = pw -/+ d`` at the ``d`` columns of
          each row's left/right edge, which a pack sets to zero.  A 3x3
          conv has one: tap ``j=0`` at ``w=0`` and ``j=2`` at ``w=W-1``.

        Either way the column buffer holds the same bytes.
        """
        (kh, kw), (ph, pw), (height, width) = step.kernel, step.padding, step.in_spatial
        channels, tall, (out_h, out_w) = step.in_channels, height + 2 * ph, step.out_spatial
        guard, row, left = (pw, width, 0) if step.rows else (0, width + 2 * pw, pw)
        plane, item = channels * tall * row, self.dtype.itemsize  # one sample's padded map
        size = samples * plane + 2 * guard
        if step.scratch is None or step.scratch.size < size:
            step.scratch, step.views = np.zeros(size, dtype=self.dtype), {}
        padded = step.scratch[guard : guard + samples * plane].reshape(samples, channels, tall, row)
        interior = padded[:, :, ph : ph + height, left : left + width]
        if step.rows:
            patches = np.ndarray(
                (channels, kh, kw, samples, out_h * out_w),
                self.dtype,
                step.scratch,
                0,
                tuple(item * n for n in (tall * width, width, 1, plane, 1)),
            )
            wrap = _wrap_views(step.kernel, pw, width, channels, samples * out_h, item)
        else:
            patches = channel_major_view(
                padded, channels, samples, step.kernel, step.stride, step.out_spatial
            )
            wrap = ()
        step.views[samples] = views = (interior, patches, wrap)
        return views

    @staticmethod
    def _pool_channels(x: np.ndarray, kind: str, size: int, stride: int) -> np.ndarray:
        if size == stride:
            # Non-overlapping windows: fold the window elements with
            # pairwise strided ufunc calls — an order of magnitude faster
            # than a multi-axis reduce, and no im2col materialisation.
            _, _, h, w = x.shape
            x = x[:, :, : h // size * size, : w // size * size]
            op = np.maximum if kind == "max" else np.add
            out = _fold(_fold(x, op, size, 2), op, size, 3)
            return out if kind == "max" else out / (size * size)
        pool = max_pool2d_infer if kind == "max" else avg_pool2d_infer
        return pool(x, size, stride)

    # ------------------------------------------------------------------
    # Sharing
    # ------------------------------------------------------------------
    @classmethod
    def for_network(
        cls, network, apply_prune: bool = True, dtype=np.float64, refresh: bool = False
    ) -> "NetworkPlan":
        """Shared read-only plan for ``network`` (build once, serve many).

        Plans are cached per ``(network, dtype, apply_prune)`` so every
        backend and engine serving the same network on one platform
        reuses one set of packed weights.  The cache snapshots the
        network at build time: after mutating weights, pruning masks or
        assignments, pass ``refresh=True`` (or call :meth:`invalidate`)
        to recompile.
        """
        per_network = cls._shared.get(network)
        if per_network is None:
            per_network = {}
            cls._shared[network] = per_network
        key = (np.dtype(dtype).str, bool(apply_prune))
        plan = per_network.get(key)
        if plan is None or refresh:
            plan = cls(network, apply_prune=apply_prune, dtype=dtype)
            per_network[key] = plan
        return plan

    @classmethod
    def invalidate(cls, network) -> None:
        """Drop all cached plans of ``network`` (call after mutating it)."""
        cls._shared.pop(network, None)
