"""Tests for functional primitives: convolution, pooling, normalisation, losses."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor


def naive_conv2d(images, weight, bias, stride, padding):
    """Straightforward loop implementation used as a reference."""
    n, c_in, h, w = images.shape
    c_out, _, kh, kw = weight.shape
    if padding:
        images = np.pad(images, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (images.shape[2] - kh) // stride + 1
    out_w = (images.shape[3] - kw) // stride + 1
    out = np.zeros((n, c_out, out_h, out_w))
    for b in range(n):
        for o in range(c_out):
            for i in range(out_h):
                for j in range(out_w):
                    patch = images[b, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[b, o, i, j] = (patch * weight[o]).sum()
            if bias is not None:
                out[b, o] += bias[o]
    return out


class TestIm2Col:
    def test_shapes(self):
        images = np.random.default_rng(0).standard_normal((2, 3, 8, 8))
        cols, (oh, ow) = F.im2col(images, (3, 3), (1, 1), (1, 1))
        assert (oh, ow) == (8, 8)
        assert cols.shape == (2, 8, 8, 27)

    def test_col2im_adjointness(self):
        """col2im is the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>."""
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 6, 6))
        cols, (oh, ow) = F.im2col(x, (3, 3), (1, 1), (1, 1))
        y = rng.standard_normal(cols.shape)
        lhs = (cols * y).sum()
        rhs = (x * F.col2im(y, x.shape, (3, 3), (1, 1), (1, 1))).sum()
        assert lhs == pytest.approx(rhs)

    def test_stride_two_shapes(self):
        images = np.zeros((1, 1, 8, 8))
        _, (oh, ow) = F.im2col(images, (2, 2), (2, 2), (0, 0))
        assert (oh, ow) == (4, 4)


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_naive_reference(self, stride, padding):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 7, 7))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        expected = naive_conv2d(x, w, b, stride, padding)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            F.conv2d(Tensor(np.zeros((1, 2, 5, 5))), Tensor(np.zeros((3, 4, 3, 3))))

    def test_no_bias(self):
        x = Tensor(np.ones((1, 1, 4, 4)))
        w = Tensor(np.ones((1, 1, 2, 2)))
        out = F.conv2d(x, w, bias=None, stride=2, padding=0)
        np.testing.assert_allclose(out.data, np.full((1, 1, 2, 2), 4.0))

    def test_gradients_match_numerical(self, gradcheck):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((2, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)

        def build():
            return F.conv2d(x, w, b, stride=1, padding=1).sum()

        gradcheck(build, [x, w, b], rtol=1e-3, atol=1e-5)


class TestPooling:
    def test_max_pool_forward(self):
        x = Tensor(np.arange(16, dtype=float).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2)
        np.testing.assert_allclose(out.data.reshape(2, 2), [[5, 7], [13, 15]])

    def test_max_pool_backward_routes_to_max(self):
        x = Tensor(np.arange(16, dtype=float).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_allclose(x.grad.reshape(4, 4), expected)

    def test_avg_pool_forward(self):
        x = Tensor(np.ones((1, 2, 4, 4)))
        out = F.avg_pool2d(x, 2)
        np.testing.assert_allclose(out.data, np.ones((1, 2, 2, 2)))

    def test_avg_pool_backward_spreads_gradient(self):
        x = Tensor(np.zeros((1, 1, 4, 4)), requires_grad=True)
        F.avg_pool2d(x, 2).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 1, 4, 4), 0.25))

    def test_global_avg_pool_shape(self):
        x = Tensor(np.ones((2, 3, 4, 4)))
        assert F.global_avg_pool2d(x).shape == (2, 3)

    def test_max_pool_gradcheck(self, gradcheck):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((1, 2, 6, 6)), requires_grad=True)

        def build():
            return (F.max_pool2d(x, 2) * 2.0).sum()

        gradcheck(build, [x], rtol=1e-3, atol=1e-5)


class TestInferenceFastPath:
    """Grad-free numpy entry points must match their autograd twins."""

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_conv2d_infer_matches_conv2d(self, stride, padding):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 8, 8))
        weight = rng.standard_normal((4, 3, 3, 3))
        bias = rng.standard_normal(4)
        got = F.conv2d_infer(x, weight, bias, stride=stride, padding=padding)
        want = F.conv2d(Tensor(x), Tensor(weight), Tensor(bias), stride=stride, padding=padding)
        np.testing.assert_allclose(got, want.data, atol=1e-12)

    def test_pool_infer_matches_pool(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 8, 8))
        np.testing.assert_allclose(
            F.max_pool2d_infer(x, 2), F.max_pool2d(Tensor(x), 2).data, atol=1e-12
        )
        np.testing.assert_allclose(
            F.avg_pool2d_infer(x, 2), F.avg_pool2d(Tensor(x), 2).data, atol=1e-12
        )

    def test_im2col_channel_major_is_a_transposed_im2col(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 6, 6))
        cols, (out_h, out_w) = F.im2col(x, (3, 3), (1, 1), (1, 1))
        major = F.im2col_channel_major(x, (3, 3), (1, 1), (1, 1))
        assert major.shape == (3, 3, 3, 2, out_h, out_w)
        # (N, oh, ow, C*kh*kw) -> (C, kh, kw, N, oh, ow)
        want = cols.reshape(2, out_h, out_w, 3, 3, 3).transpose(3, 4, 5, 0, 1, 2)
        np.testing.assert_array_equal(np.asarray(major), want)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("layout", ["contiguous", "channel_slice"])
    @pytest.mark.parametrize("scratch", [False, True])
    def test_im2col_channel_major_matches_sliding_window_view(self, stride, padding, layout, scratch):
        rng = np.random.default_rng(3)
        if layout == "contiguous":
            x = rng.standard_normal((2, 3, 7, 7))
        else:
            # A channel slice of a batch-3 map is not contiguous — the
            # shape the compiled plan packs when a step activates a range.
            x = rng.standard_normal((3, 5, 7, 7))[:, 1:4]
            assert not x.flags.c_contiguous
        buffer = None
        if scratch:
            # Larger than needed, zero border, stale values everywhere
            # else: only the corner the call writes may be read.
            side = 7 + 2 * padding
            buffer = np.zeros((x.shape[0] + 2, x.shape[1] + 3, side, side))
            buffer[:, :, padding : padding + 7, padding : padding + 7] = 9.0
        major = F.im2col_channel_major(
            x, (3, 3), (stride, stride), (padding, padding), scratch=buffer
        )
        if scratch:
            assert np.shares_memory(major, buffer)
        padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        # (N, C, oh', ow', kh, kw) at stride 1, subsampled to the stride.
        windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(2, 3))
        want = windows[:, :, ::stride, ::stride].transpose(1, 4, 5, 0, 2, 3)
        assert major.shape == want.shape
        np.testing.assert_array_equal(major, want)
        assert not major.flags.writeable
        with pytest.raises(ValueError):
            major[0, 0, 0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("name", ["relu", "tanh", "sigmoid", "none"])
    def test_activation_infer_in_place_is_bit_identical(self, name):
        x = np.random.default_rng(4).standard_normal((5, 17)) * 4
        want = F.activation_infer(x, name)
        buffer = x.copy()
        got = F.activation_infer(buffer, name, out=buffer)
        assert np.shares_memory(got, buffer)
        np.testing.assert_array_equal(got, want)


class TestBatchNorm:
    def test_training_normalises_batch(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((32, 4)) * 3.0 + 5.0)
        gamma = Tensor(np.ones(4), requires_grad=True)
        beta = Tensor(np.zeros(4), requires_grad=True)
        running_mean = np.zeros(4)
        running_var = np.ones(4)
        out = F.batch_norm(x, gamma, beta, running_mean, running_var, training=True)
        np.testing.assert_allclose(out.data.mean(axis=0), np.zeros(4), atol=1e-8)
        np.testing.assert_allclose(out.data.std(axis=0), np.ones(4), atol=1e-3)

    def test_running_stats_updated_in_training_only(self):
        x = Tensor(np.random.default_rng(0).standard_normal((16, 3)) + 2.0)
        gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
        running_mean, running_var = np.zeros(3), np.ones(3)
        F.batch_norm(x, gamma, beta, running_mean, running_var, training=True, momentum=0.5)
        assert np.all(running_mean != 0.0)
        saved = running_mean.copy()
        F.batch_norm(x, gamma, beta, running_mean, running_var, training=False)
        np.testing.assert_allclose(running_mean, saved)

    def test_eval_uses_running_stats(self):
        x = Tensor(np.full((4, 2), 10.0))
        gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
        running_mean, running_var = np.full(2, 10.0), np.ones(2)
        out = F.batch_norm(x, gamma, beta, running_mean, running_var, training=False)
        np.testing.assert_allclose(out.data, np.zeros((4, 2)), atol=1e-6)

    def test_4d_input(self):
        x = Tensor(np.random.default_rng(0).standard_normal((4, 3, 5, 5)))
        gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
        out = F.batch_norm(x, gamma, beta, np.zeros(3), np.ones(3), training=True)
        assert out.shape == x.shape
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), np.zeros(3), atol=1e-8)

    def test_rejects_3d_input(self):
        with pytest.raises(ValueError):
            F.batch_norm(
                Tensor(np.zeros((2, 3, 4))), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                np.zeros(3), np.ones(3), training=True,
            )

    def test_training_gradcheck(self, gradcheck):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((8, 3)), requires_grad=True)
        gamma = Tensor(rng.standard_normal(3), requires_grad=True)
        beta = Tensor(rng.standard_normal(3), requires_grad=True)

        def build():
            return (
                F.batch_norm(x, gamma, beta, np.zeros(3), np.ones(3), training=True) ** 2
            ).sum()

        gradcheck(build, [x, gamma, beta], rtol=1e-3, atol=1e-5)


class TestDropoutAndActivations:
    def test_dropout_identity_in_eval(self):
        x = Tensor(np.ones((4, 4)))
        out = F.dropout(x, 0.5, training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.5, training=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.05)

    def test_dropout_zero_probability_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert F.dropout(x, 0.0, training=True) is x

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).standard_normal((5, 7)))
        probs = F.softmax(x)
        np.testing.assert_allclose(probs.data.sum(axis=-1), np.ones(5), atol=1e-12)

    def test_softmax_is_shift_invariant(self):
        x = np.random.default_rng(0).standard_normal((3, 4))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(np.random.default_rng(1).standard_normal((4, 6)))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-10
        )


class TestLossesFunctional:
    def test_one_hot(self):
        out = F.one_hot(np.array([0, 2]), 3)
        np.testing.assert_allclose(out, [[1, 0, 0], [0, 0, 1]])

    def test_cross_entropy_matches_manual(self):
        logits = np.array([[2.0, 1.0, 0.1], [0.5, 2.5, 0.0]])
        labels = np.array([0, 1])
        loss = F.cross_entropy(Tensor(logits), labels)
        log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        expected = -np.mean([log_probs[0, 0], log_probs[1, 1]])
        assert loss.item() == pytest.approx(expected)

    def test_cross_entropy_label_smoothing_increases_loss_on_confident_model(self):
        logits = Tensor(np.array([[10.0, -10.0]]))
        labels = np.array([0])
        plain = F.cross_entropy(logits, labels).item()
        smoothed = F.cross_entropy(logits, labels, label_smoothing=0.2).item()
        assert smoothed > plain

    def test_cross_entropy_gradcheck(self, gradcheck):
        rng = np.random.default_rng(5)
        logits = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        labels = np.array([0, 1, 2, 3])

        def build():
            return F.cross_entropy(logits, labels)

        gradcheck(build, [logits], rtol=1e-3, atol=1e-6)

    def test_kl_divergence_zero_for_identical_distributions(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        teacher = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        kl = F.kl_divergence(teacher, Tensor(logits))
        assert kl.item() == pytest.approx(0.0, abs=1e-10)

    def test_kl_divergence_positive_for_different_distributions(self):
        teacher = np.array([[0.9, 0.05, 0.05]])
        student_logits = Tensor(np.array([[0.0, 0.0, 0.0]]))
        assert F.kl_divergence(teacher, student_logits).item() > 0.0

    def test_nll_loss(self):
        log_probs = Tensor(np.log(np.array([[0.5, 0.5], [0.9, 0.1]])))
        loss = F.nll_loss(log_probs, np.array([0, 0]))
        assert loss.item() == pytest.approx(-(np.log(0.5) + np.log(0.9)) / 2)

    def test_accuracy(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        assert F.accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)
