"""Tests for architecture specifications."""

import numpy as np
import pytest

from repro.models.spec import (
    ArchitectureSpec,
    ConvSpec,
    DropoutSpec,
    FlattenSpec,
    LinearSpec,
    PoolSpec,
)
from repro.models.zoo import lenet5, lenet_3c1l, mlp, tiny_cnn, vgg16


def simple_spec():
    return ArchitectureSpec(
        "simple",
        (3, 8, 8),
        2,
        (
            ConvSpec(4, kernel_size=3, padding=1),
            PoolSpec("max", 2),
            FlattenSpec(),
            LinearSpec(2, activation="none", is_output=True),
        ),
    )


class TestValidation:
    def test_requires_layers(self):
        with pytest.raises(ValueError):
            ArchitectureSpec("bad", (3, 8, 8), 2, ())

    def test_final_layer_must_be_output_linear(self):
        with pytest.raises(ValueError):
            ArchitectureSpec("bad", (3, 8, 8), 2, (ConvSpec(4),))

    def test_output_features_must_match_num_classes(self):
        with pytest.raises(ValueError):
            ArchitectureSpec(
                "bad", (3, 8, 8), 2,
                (FlattenSpec(), LinearSpec(3, activation="none", is_output=True)),
            )


class TestInputShapeProblem:
    def test_accepted_shapes(self):
        conv = simple_spec()
        assert conv.input_shape_problem((2, 3, 8, 8)) is None
        assert "per-sample shape (192,)" in conv.input_shape_problem((2, 192))
        assert "batch axis" in conv.input_shape_problem((0, 3, 8, 8))
        dense = mlp(num_classes=4, input_dim=16, hidden=(8,))
        assert dense.input_shape_problem((2, 16)) is None
        assert dense.input_shape_problem((2, 16, 1, 1)) is None
        assert "expected (16, 1, 1)" in dense.input_shape_problem((2, 4, 4))

    def test_layers_are_scanned_once_per_spec(self, monkeypatch):
        scans = []
        original = ArchitectureSpec._has_conv
        monkeypatch.setattr(
            ArchitectureSpec, "_has_conv", lambda self: scans.append(self) or original(self)
        )
        spec = simple_spec()
        for _ in range(5):
            assert spec.input_shape_problem((1, 3, 8, 8)) is None
            assert spec.input_shape_problem((1, 3, 8, 9)) is not None
        assert scans == [spec]
        # A derived spec is a new frozen object with its own answer.
        wide = spec.expand(2.0)
        assert wide.input_shape_problem((1, 3, 8, 8)) is None
        assert scans == [spec, wide]


class TestExpansion:
    def test_expand_scales_hidden_layers_only(self):
        spec = simple_spec()
        expanded = spec.expand(2.0)
        conv = expanded.layers[0]
        output = expanded.layers[-1]
        assert conv.out_channels == 8
        assert output.out_features == 2  # classifier untouched

    def test_expand_renames(self):
        assert "x1.5" in simple_spec().expand(1.5).name

    def test_expand_invalid_ratio(self):
        with pytest.raises(ValueError):
            simple_spec().expand(0.0)

    def test_width_multiplier_alias(self):
        assert simple_spec().with_width_multiplier(2.0).layers[0].out_channels == 8

    def test_expand_increases_macs_superlinearly(self):
        spec = lenet_3c1l(width_scale=0.5)
        base = spec.total_macs()
        doubled = spec.expand(2.0).total_macs()
        assert doubled > 2.5 * base  # conv MACs grow ~quadratically in width


class TestIntrospection:
    def test_hidden_unit_counts(self):
        spec = simple_spec()
        assert spec.hidden_unit_counts() == [4, 2]

    def test_parametric_layers(self):
        assert len(simple_spec().parametric_layers()) == 2

    def test_flattened_features(self):
        # conv keeps 8x8 (padding 1), pool halves to 4x4, 4 channels.
        assert simple_spec().flattened_features() == 4 * 4 * 4

    def test_spatial_trace(self):
        trace = simple_spec().spatial_trace()
        assert trace[0] == (8, 8)
        assert trace[1] == (4, 4)

    def test_describe_mentions_macs(self):
        assert "MACs" in simple_spec().describe()


class TestMacCounting:
    def test_manual_mac_count(self):
        spec = simple_spec()
        conv_macs = 4 * 3 * 3 * 3 * 8 * 8
        fc_macs = 2 * (4 * 4 * 4)
        assert spec.total_macs() == conv_macs + fc_macs

    def test_mlp_macs(self):
        spec = mlp(num_classes=3, input_dim=10, hidden=(8,))
        assert spec.total_macs() == 10 * 8 + 8 * 3

    def test_vgg16_macs_far_exceed_lenet(self):
        assert vgg16(width_scale=0.25).total_macs() > lenet_3c1l(width_scale=0.25).total_macs()


class TestZoo:
    def test_lenet_3c1l_structure(self):
        spec = lenet_3c1l()
        assert spec.name == "lenet-3c1l"
        assert len(spec.parametric_layers()) == 4  # 3 conv + 1 fc

    def test_lenet5_structure(self):
        spec = lenet5()
        conv_layers = [l for l in spec.parametric_layers() if isinstance(l, ConvSpec)]
        linear_layers = [l for l in spec.parametric_layers() if isinstance(l, LinearSpec)]
        assert len(conv_layers) == 2
        assert len(linear_layers) == 3

    def test_vgg16_has_sixteen_parametric_layers(self):
        assert len(vgg16().parametric_layers()) == 16  # 13 conv + 3 fc

    def test_width_scale_shrinks_channels(self):
        full = lenet_3c1l(width_scale=1.0)
        half = lenet_3c1l(width_scale=0.5)
        assert half.layers[0].out_channels == full.layers[0].out_channels // 2

    def test_tiny_cnn_small(self):
        assert tiny_cnn().total_macs() < lenet_3c1l().total_macs()

    def test_scaled_widths_never_drop_below_two(self):
        spec = lenet_3c1l(width_scale=0.01)
        assert min(spec.hidden_unit_counts()[:-1]) >= 2
