"""Functional neural-network primitives built on :class:`repro.nn.tensor.Tensor`.

The composite operations in this module (convolution, pooling, batch
normalisation, the classification losses) each carry a hand-written
backward pass registered through the same autograd tape as the basic
tensor arithmetic.  Convolution uses the standard im2col/col2im
formulation so that the heavy lifting is done by BLAS matrix multiplies
rather than Python loops.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from .tensor import Tensor

IntOrPair = Union[int, Tuple[int, int]]


def _pair(value: IntOrPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (int(value), int(value))


# ----------------------------------------------------------------------
# im2col / col2im
# ----------------------------------------------------------------------
def im2col(
    images: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Rearrange image patches into columns.

    Parameters
    ----------
    images:
        Array of shape ``(N, C, H, W)``.

    Returns
    -------
    cols:
        Array of shape ``(N, out_h, out_w, C * kh * kw)``.
    (out_h, out_w):
        Spatial size of the convolution output.
    """
    n, c, h, w = images.shape
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    if ph or pw:
        images = np.pad(images, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")

    strides = images.strides
    shape = (n, c, out_h, out_w, kh, kw)
    view = np.lib.stride_tricks.as_strided(
        images,
        shape=shape,
        strides=(strides[0], strides[1], strides[2] * sh, strides[3] * sw, strides[2], strides[3]),
        writeable=False,
    )
    cols = view.transpose(0, 2, 3, 1, 4, 5).reshape(n, out_h, out_w, c * kh * kw)
    return np.ascontiguousarray(cols), (out_h, out_w)


def col2im(
    cols: np.ndarray,
    image_shape: Tuple[int, int, int, int],
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back to image space."""
    n, c, h, w = image_shape
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    cols = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    for i in range(kh):
        i_max = i + sh * out_h
        for j in range(kw):
            j_max = j + sw * out_w
            padded[:, :, i:i_max:sh, j:j_max:sw] += cols[:, :, :, :, i, j]
    if ph or pw:
        return padded[:, :, ph:h + ph, pw:w + pw]
    return padded


# ----------------------------------------------------------------------
# Linear algebra level ops
# ----------------------------------------------------------------------
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with weight of shape ``(out, in)``."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntOrPair = 1,
    padding: IntOrPair = 0,
) -> Tensor:
    """2-D convolution (actually cross-correlation, as in every DL framework).

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Filters of shape ``(C_out, C_in, kh, kw)``.
    bias:
        Optional bias of shape ``(C_out,)``.
    """
    stride = _pair(stride)
    padding = _pair(padding)
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"conv2d channel mismatch: input has {c_in}, weight expects {c_in_w}")

    cols, (out_h, out_w) = im2col(x.data, (kh, kw), stride, padding)
    cols_matrix = cols.reshape(-1, c_in * kh * kw)
    weight_matrix = weight.data.reshape(c_out, -1)
    out = cols_matrix @ weight_matrix.T
    out = out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
    if bias is not None:
        out = out + bias.data.reshape(1, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_matrix = grad.transpose(0, 2, 3, 1).reshape(-1, c_out)
        if weight.requires_grad:
            grad_weight = grad_matrix.T @ cols_matrix
            weight._accumulate(grad_weight.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            grad_cols = grad_matrix @ weight_matrix
            grad_cols = grad_cols.reshape(n, out_h, out_w, c_in * kh * kw)
            x._accumulate(col2im(grad_cols, x.shape, (kh, kw), stride, padding))

    return Tensor._make(out, parents, backward)


def _relu(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    # A zero of the array's own dtype takes numpy's same-type loop, which
    # at the plan's small float32 shapes is cheaper than a Python float.
    return np.maximum(x, x.dtype.type(0), out=out)


def _tanh(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    return np.tanh(x, out=out)


def _sigmoid(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    z = np.negative(x, out=out)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def _identity(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    return x


_ACTIVATIONS: Dict[str, Callable[..., np.ndarray]] = {
    "relu": _relu,
    "tanh": _tanh,
    "sigmoid": _sigmoid,
    "none": _identity,
    "linear": _identity,
    "identity": _identity,
}


def resolve_activation(name: Optional[str]) -> Callable[..., np.ndarray]:
    """The grad-free activation ``f(x, out=None)`` named ``name``.

    Resolving once and calling the function skips the per-call name
    normalisation and dispatch of :func:`activation_infer`; both run the
    same function, so the results are bit-identical.
    """
    try:
        return _ACTIVATIONS[(name or "none").lower()]
    except KeyError:
        raise ValueError(f"unknown activation '{name}'") from None


def activation_infer(
    x: np.ndarray, name: str, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Grad-free activation dispatch shared by the inference fast paths.

    ``out`` works as in a numpy ufunc (``out=x`` applies the activation in
    place); each element goes through the same operations either way.
    The identity returns ``x`` itself.
    """
    return resolve_activation(name)(x, out)


def channel_major_view(
    padded: np.ndarray,
    channels: int,
    samples: int,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    out_size: Tuple[int, int],
) -> np.ndarray:
    """The ``(channels, kh, kw, samples, out_h, out_w)`` patch view of a padded map.

    ``padded`` is a C-contiguous ``(N', C', H, W)`` map, already padded,
    with ``N' >= samples`` and ``C' >= channels``; the view reads its
    first ``samples`` samples and ``channels`` channels and aliases it,
    so it shows every later write.  With channels on the leading axis the
    compiled inference plan (:mod:`repro.core.plan`) copies newly
    activated channels' patches into its persistent column buffer as
    contiguous row blocks, and feeds the buffer to BLAS as
    ``(C*kh*kw, N*out_h*out_w)`` with no per-step transposition.  The view
    is built with the ``np.ndarray`` buffer constructor, several times
    cheaper per call than ``as_strided`` at the plan's small shapes; the
    constructor needs the contiguous buffer.
    """
    (kh, kw), (sh, sw) = kernel_size, stride
    s0, s1, s2, s3 = padded.strides
    return np.ndarray(
        (channels, kh, kw, samples) + tuple(out_size),
        padded.dtype,
        padded,
        0,
        (s1, s2, s3, s0, s2 * sh, s3 * sw),
    )


def conv2d_infer(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: IntOrPair = 1,
    padding: IntOrPair = 0,
) -> np.ndarray:
    """Grad-free 2-D convolution on raw numpy arrays.

    Same im2col formulation as :func:`conv2d` but without the autograd
    ``Tensor`` wrapping and backward closure — this is the hot entry
    point of the compiled inference plans (:mod:`repro.core.plan`),
    where every saved allocation counts.
    """
    stride = _pair(stride)
    padding = _pair(padding)
    n = x.shape[0]
    c_out, _, kh, kw = weight.shape
    cols, (out_h, out_w) = im2col(x, (kh, kw), stride, padding)
    out = cols.reshape(-1, cols.shape[-1]) @ weight.reshape(c_out, -1).T
    if bias is not None:
        out += bias
    return out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)


def max_pool2d_infer(
    x: np.ndarray, kernel_size: IntOrPair, stride: Optional[IntOrPair] = None
) -> np.ndarray:
    """Grad-free max pooling on raw numpy arrays (inference fast path)."""
    kernel_size = _pair(kernel_size)
    stride = _pair(stride) if stride is not None else kernel_size
    n, c, _, _ = x.shape
    kh, kw = kernel_size
    cols, (out_h, out_w) = im2col(x, kernel_size, stride, (0, 0))
    cols = cols.reshape(n, out_h, out_w, c, kh * kw)
    return cols.max(axis=-1).transpose(0, 3, 1, 2)


def avg_pool2d_infer(
    x: np.ndarray, kernel_size: IntOrPair, stride: Optional[IntOrPair] = None
) -> np.ndarray:
    """Grad-free average pooling on raw numpy arrays (inference fast path)."""
    kernel_size = _pair(kernel_size)
    stride = _pair(stride) if stride is not None else kernel_size
    n, c, _, _ = x.shape
    kh, kw = kernel_size
    cols, (out_h, out_w) = im2col(x, kernel_size, stride, (0, 0))
    cols = cols.reshape(n, out_h, out_w, c, kh * kw)
    return cols.mean(axis=-1).transpose(0, 3, 1, 2)


def max_pool2d(x: Tensor, kernel_size: IntOrPair, stride: Optional[IntOrPair] = None) -> Tensor:
    """Max pooling over spatial windows."""
    kernel_size = _pair(kernel_size)
    stride = _pair(stride) if stride is not None else kernel_size
    n, c, h, w = x.shape
    kh, kw = kernel_size
    sh, sw = stride
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1

    cols, _ = im2col(x.data, kernel_size, stride, (0, 0))
    cols = cols.reshape(n, out_h, out_w, c, kh * kw)
    argmax = cols.argmax(axis=-1)
    out = np.take_along_axis(cols, argmax[..., None], axis=-1)[..., 0]
    out = out.transpose(0, 3, 1, 2)

    def backward(grad: np.ndarray) -> None:
        grad_cols = np.zeros((n, out_h, out_w, c, kh * kw), dtype=grad.dtype)
        np.put_along_axis(
            grad_cols, argmax[..., None], grad.transpose(0, 2, 3, 1)[..., None], axis=-1
        )
        grad_cols = grad_cols.reshape(n, out_h, out_w, c * kh * kw)
        x._accumulate(col2im(grad_cols, x.shape, kernel_size, stride, (0, 0)))

    return Tensor._make(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel_size: IntOrPair, stride: Optional[IntOrPair] = None) -> Tensor:
    """Average pooling over spatial windows."""
    kernel_size = _pair(kernel_size)
    stride = _pair(stride) if stride is not None else kernel_size
    n, c, h, w = x.shape
    kh, kw = kernel_size
    sh, sw = stride
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1

    cols, _ = im2col(x.data, kernel_size, stride, (0, 0))
    cols = cols.reshape(n, out_h, out_w, c, kh * kw)
    out = cols.mean(axis=-1).transpose(0, 3, 1, 2)

    def backward(grad: np.ndarray) -> None:
        expanded = np.repeat(
            grad.transpose(0, 2, 3, 1)[..., None] / (kh * kw), kh * kw, axis=-1
        )
        grad_cols = expanded.reshape(n, out_h, out_w, c * kh * kw)
        x._accumulate(col2im(grad_cols, x.shape, kernel_size, stride, (0, 0)))

    return Tensor._make(out, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the full spatial extent, returning ``(N, C)``."""
    return x.mean(axis=(2, 3))


# ----------------------------------------------------------------------
# Normalisation, dropout
# ----------------------------------------------------------------------
def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalisation for 2-D ``(N, F)`` or 4-D ``(N, C, H, W)`` inputs.

    ``running_mean``/``running_var`` are updated in place during training,
    mirroring the semantics of the usual framework implementations.
    """
    if x.ndim == 4:
        axes = (0, 2, 3)
        shape = (1, -1, 1, 1)
    elif x.ndim == 2:
        axes = (0,)
        shape = (1, -1)
    else:
        raise ValueError(f"batch_norm expects 2-D or 4-D input, got {x.ndim}-D")

    if training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean = running_mean
        var = running_var

    mean_r = mean.reshape(shape)
    var_r = var.reshape(shape)
    inv_std = 1.0 / np.sqrt(var_r + eps)
    x_hat = (x.data - mean_r) * inv_std
    out = gamma.data.reshape(shape) * x_hat + beta.data.reshape(shape)

    count = x.data.size // x.data.shape[1] if x.ndim == 4 else x.data.shape[0]

    def backward(grad: np.ndarray) -> None:
        if gamma.requires_grad:
            gamma._accumulate((grad * x_hat).sum(axis=axes))
        if beta.requires_grad:
            beta._accumulate(grad.sum(axis=axes))
        if x.requires_grad:
            gamma_r = gamma.data.reshape(shape)
            if training:
                dxhat = grad * gamma_r
                term1 = dxhat
                term2 = dxhat.sum(axis=axes, keepdims=True) / count
                term3 = x_hat * (dxhat * x_hat).sum(axis=axes, keepdims=True) / count
                x._accumulate(inv_std * (term1 - term2 - term3))
            else:
                x._accumulate(grad * gamma_r * inv_std)

    return Tensor._make(out, (x, gamma, beta), backward)


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: scales kept activations by ``1 / (1 - p)``."""
    if not training or p <= 0.0:
        return x
    rng = rng or np.random.default_rng()
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep) / keep

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor._make(x.data * mask, (x,), backward)


# ----------------------------------------------------------------------
# Activations and classification heads
# ----------------------------------------------------------------------
def relu(x: Tensor) -> Tensor:
    return x.relu()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels ``(N,)`` to a dense one-hot matrix ``(N, num_classes)``."""
    labels = np.asarray(labels, dtype=int)
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def cross_entropy(logits: Tensor, labels: np.ndarray, label_smoothing: float = 0.0) -> Tensor:
    """Mean cross-entropy between ``logits`` ``(N, C)`` and integer ``labels``."""
    num_classes = logits.shape[-1]
    targets = one_hot(labels, num_classes)
    if label_smoothing > 0.0:
        targets = targets * (1.0 - label_smoothing) + label_smoothing / num_classes
    log_probs = log_softmax(logits, axis=-1)
    return -(Tensor(targets) * log_probs).sum(axis=-1).mean()


def kl_divergence(teacher_probs: np.ndarray, student_logits: Tensor, eps: float = 1e-12) -> Tensor:
    """KL(teacher ‖ student) averaged over the batch.

    This is the distillation term of SteppingNet's Eq. (4): the teacher
    distribution is a constant (no gradient flows to the teacher) while
    the student receives gradients through its log-probabilities.
    """
    teacher = np.clip(np.asarray(teacher_probs), eps, 1.0)
    student_log_probs = log_softmax(student_logits, axis=-1)
    teacher_t = Tensor(teacher)
    kl = (teacher_t * (Tensor(np.log(teacher)) - student_log_probs)).sum(axis=-1)
    return kl.mean()


def nll_loss(log_probs: Tensor, labels: np.ndarray) -> Tensor:
    """Negative log-likelihood given log-probabilities and integer labels."""
    targets = one_hot(labels, log_probs.shape[-1])
    return -(Tensor(targets) * log_probs).sum(axis=-1).mean()


def accuracy(logits: Union[Tensor, np.ndarray], labels: np.ndarray) -> float:
    """Top-1 accuracy of ``logits`` ``(N, C)`` against integer ``labels``."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    predictions = data.argmax(axis=-1)
    return float((predictions == np.asarray(labels)).mean())
