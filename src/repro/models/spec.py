"""Architecture specifications.

SteppingNet, the slimmable baseline and the any-width baseline all
manipulate the *same* underlying architectures (LeNet-3C1L, LeNet-5,
VGG-16).  To avoid three divergent copies of every network, an
architecture is described once as an :class:`ArchitectureSpec` — an
ordered list of layer specs — and each method provides its own builder
that turns the spec into concrete layers (plain teacher network, masked
stepping network, switchable slimmable network, ...).

The spec also implements the *width expansion* of the paper (Sec. IV):
``spec.expand(1.8)`` multiplies every hidden layer's neuron/filter count
by 1.8 while keeping the classifier output size fixed, exactly the
pre-processing SteppingNet applies before subnet construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import List, Optional, Sequence, Tuple, Union


@dataclass(frozen=True)
class ConvSpec:
    """Convolutional block: conv (+ optional batch norm) + activation."""

    out_channels: int
    kernel_size: int = 3
    stride: int = 1
    padding: int = 1
    batch_norm: bool = True
    activation: str = "relu"

    def scaled(self, ratio: float) -> "ConvSpec":
        return replace(self, out_channels=max(1, int(round(self.out_channels * ratio))))


@dataclass(frozen=True)
class PoolSpec:
    """Spatial pooling."""

    kind: str = "max"  # "max" or "avg"
    kernel_size: int = 2
    stride: Optional[int] = None

    def scaled(self, ratio: float) -> "PoolSpec":
        return self


@dataclass(frozen=True)
class FlattenSpec:
    """Flatten feature maps before the classifier."""

    def scaled(self, ratio: float) -> "FlattenSpec":
        return self


@dataclass(frozen=True)
class LinearSpec:
    """Fully-connected block: linear (+ optional batch norm) + activation."""

    out_features: int
    batch_norm: bool = False
    activation: str = "relu"
    is_output: bool = False

    def scaled(self, ratio: float) -> "LinearSpec":
        if self.is_output:
            return self
        return replace(self, out_features=max(1, int(round(self.out_features * ratio))))


@dataclass(frozen=True)
class DropoutSpec:
    """Dropout between classifier layers."""

    p: float = 0.5

    def scaled(self, ratio: float) -> "DropoutSpec":
        return self


LayerSpec = Union[ConvSpec, PoolSpec, FlattenSpec, LinearSpec, DropoutSpec]


@dataclass(frozen=True)
class ArchitectureSpec:
    """A complete network description.

    Attributes
    ----------
    name:
        Human-readable identifier (e.g. ``"lenet-3c1l"``).
    input_shape:
        ``(channels, height, width)`` of the expected input.
    num_classes:
        Output dimensionality of the final classifier layer.
    layers:
        Ordered layer specifications.  The final layer must be a
        :class:`LinearSpec` with ``is_output=True``.
    """

    name: str
    input_shape: Tuple[int, int, int]
    num_classes: int
    layers: Tuple[LayerSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("ArchitectureSpec requires at least one layer")
        last = self.layers[-1]
        if not isinstance(last, LinearSpec) or not last.is_output:
            raise ValueError("the final layer must be a LinearSpec with is_output=True")
        if last.out_features != self.num_classes:
            raise ValueError(
                f"output layer has {last.out_features} features but num_classes={self.num_classes}"
            )

    # ------------------------------------------------------------------
    # Width manipulation
    # ------------------------------------------------------------------
    def expand(self, ratio: float) -> "ArchitectureSpec":
        """Multiply every hidden layer's width by ``ratio`` (paper Sec. IV)."""
        if ratio <= 0:
            raise ValueError("expansion ratio must be positive")
        new_layers = tuple(layer.scaled(ratio) for layer in self.layers)
        return replace(self, layers=new_layers, name=f"{self.name}-x{ratio:g}")

    def with_width_multiplier(self, multiplier: float) -> "ArchitectureSpec":
        """Alias of :meth:`expand`; used by the width-multiplier baseline."""
        return self.expand(multiplier)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def parametric_layers(self) -> List[LayerSpec]:
        """Return only the conv/linear specs (the layers that hold neurons)."""
        return [l for l in self.layers if isinstance(l, (ConvSpec, LinearSpec))]

    def hidden_unit_counts(self) -> List[int]:
        """Neuron/filter count of every parametric layer, in order."""
        counts = []
        for layer in self.layers:
            if isinstance(layer, ConvSpec):
                counts.append(layer.out_channels)
            elif isinstance(layer, LinearSpec):
                counts.append(layer.out_features)
        return counts

    def spatial_trace(self) -> List[Tuple[int, int]]:
        """Spatial size after each layer, for MAC accounting and shape checks."""
        _, height, width = self.input_shape
        trace: List[Tuple[int, int]] = []
        for layer in self.layers:
            if isinstance(layer, ConvSpec):
                height = (height + 2 * layer.padding - layer.kernel_size) // layer.stride + 1
                width = (width + 2 * layer.padding - layer.kernel_size) // layer.stride + 1
            elif isinstance(layer, PoolSpec):
                stride = layer.stride if layer.stride is not None else layer.kernel_size
                height = (height - layer.kernel_size) // stride + 1
                width = (width - layer.kernel_size) // stride + 1
            elif isinstance(layer, (FlattenSpec, LinearSpec, DropoutSpec)):
                pass
            trace.append((height, width))
        return trace

    def flattened_features(self) -> int:
        """Feature count right after the flatten layer."""
        channels = self.input_shape[0]
        height, width = self.input_shape[1], self.input_shape[2]
        for layer, (h, w) in zip(self.layers, self.spatial_trace()):
            if isinstance(layer, ConvSpec):
                channels = layer.out_channels
            if isinstance(layer, FlattenSpec):
                return channels * height * width
            height, width = h, w
        # No flatten layer: pure MLP operating on vectors.
        return self.input_shape[0]

    def total_macs(self) -> int:
        """Dense MAC count of the full architecture (the paper's ``Mt``)."""
        macs = 0
        in_channels = self.input_shape[0]
        height, width = self.input_shape[1], self.input_shape[2]
        in_features = int(in_channels * height * width) if len(self.input_shape) == 3 else in_channels
        flattened = False
        for layer in self.layers:
            if isinstance(layer, ConvSpec):
                out_h = (height + 2 * layer.padding - layer.kernel_size) // layer.stride + 1
                out_w = (width + 2 * layer.padding - layer.kernel_size) // layer.stride + 1
                macs += (
                    layer.out_channels
                    * in_channels
                    * layer.kernel_size
                    * layer.kernel_size
                    * out_h
                    * out_w
                )
                in_channels = layer.out_channels
                height, width = out_h, out_w
            elif isinstance(layer, PoolSpec):
                stride = layer.stride if layer.stride is not None else layer.kernel_size
                height = (height - layer.kernel_size) // stride + 1
                width = (width - layer.kernel_size) // stride + 1
            elif isinstance(layer, FlattenSpec):
                in_features = in_channels * height * width
                flattened = True
            elif isinstance(layer, LinearSpec):
                source = in_features if flattened or not self._has_conv() else in_channels
                macs += layer.out_features * source
                in_features = layer.out_features
                flattened = True
        return int(macs)

    def _has_conv(self) -> bool:
        return any(isinstance(layer, ConvSpec) for layer in self.layers)

    @cached_property
    def _accepted_sample_shapes(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-sample input shapes the network takes, ``input_shape`` first
        (computed once: the spec is frozen)."""
        expected = tuple(self.input_shape)
        return (expected,) if self._has_conv() else (expected, (math.prod(expected),))

    def input_shape_problem(self, shape: Tuple[int, ...]) -> Optional[str]:
        """Why an input array of ``shape`` is not a batch this network takes, or ``None``.

        A batch is a leading axis of at least one sample of shape
        ``input_shape``; a network without convolutions also takes
        flattened samples.
        """
        accepted = self._accepted_sample_shapes
        if len(shape) < 2 or shape[0] < 1:
            return f"need a batch axis of at least one sample, got shape {shape}"
        if shape[1:] not in accepted:
            return f"have per-sample shape {shape[1:]}, expected {accepted[0]}"
        return None

    def describe(self) -> str:
        """Multi-line human-readable summary of the architecture."""
        lines = [f"{self.name}: input={self.input_shape}, classes={self.num_classes}"]
        for index, layer in enumerate(self.layers):
            lines.append(f"  [{index:2d}] {layer}")
        lines.append(f"  total MACs: {self.total_macs():,}")
        return "\n".join(lines)
