"""Reusable layers with explicit train/eval modes.

Conventions: channel axis is 1 for batch-norm inputs, the last axis for
layer norm. Causal branches run channels last on (N, S, D) sequences (in the
graph block, N = B*C and the view of (B, C, S, D) is free): the time axis is
1, the conv channels are D. They preserve both channel count and temporal
length (left pad = k - 1 zeros), and view the conv output as (N*S, D) so its
batch norm keeps D on axis 1.
"""

from __future__ import annotations

import numpy as np

from .checks import check
from .errors import DimensionError, ValidationError
from .tensor import (
    Tensor,
    accumulate_grad,
    as_tensor,
    conv1d,
    elu,
    make_op,
    pad_left,
)

MODES = ("train", "eval")


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


class Layer:
    """Names parameters and buffers by walking attributes in assignment order: a
    Tensor is a parameter, a Layer or list of Layers is walked under "attr." or
    "attr.{i}.", a buffer is an attribute named in BUFFERS. The names are the
    checkpoint keys, in the order of AdamW's slots and the clip-norm sum. Nothing
    is cached: batch norm assigns new running arrays at every train step."""

    BUFFERS: tuple[str, ...] = ()

    def named_parameters(self, prefix: str = "") -> list:
        return self._walk(prefix, buffers=False)

    def named_buffers(self, prefix: str = "") -> list:
        return self._walk(prefix, buffers=True)

    def _walk(self, prefix: str, buffers: bool) -> list:
        named = []
        for attr, value in vars(self).items():
            if isinstance(value, Layer):
                named += value._walk(f"{prefix}{attr}.", buffers)
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, Layer):
                        named += item._walk(f"{prefix}{attr}.{i}.", buffers)
            elif attr in self.BUFFERS if buffers else isinstance(value, Tensor):
                named.append((prefix + attr, value))
        return named


class LinearLayer(Layer):
    """Affine map y = x @ W.T + b for inputs shaped (..., in_dim)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        bound = 1.0 / np.sqrt(in_dim)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = Tensor(rng.uniform(-bound, bound, (out_dim, in_dim)), requires_grad=True)
        self.bias = Tensor(rng.uniform(-bound, bound, out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        if x.shape[-1] != self.in_dim:
            raise DimensionError(f"linear: expected last dim {self.in_dim}, got {x.shape}")
        return x @ self.weight.transpose() + self.bias


def normalize(x: np.ndarray, mean: np.ndarray, inv: np.ndarray, out=None) -> np.ndarray:
    """(x - mean) * inv, written into `out` when it is given (it may be x)."""
    out = np.subtract(x, mean, out=out)
    return np.multiply(out, inv, out=out)


def scale_shift(xhat: np.ndarray, gamma: np.ndarray, beta: np.ndarray, out=None) -> np.ndarray:
    """xhat * gamma + beta, written into `out` when it is given (it may be xhat)."""
    out = np.multiply(xhat, gamma, out=out)
    return np.add(out, beta, out=out)


class BatchNorm1d(Layer):
    """Batch normalization over every axis except the channel axis (axis 1).

    Train mode normalizes with batch statistics (biased variance) and updates
    running statistics as running = (1 - momentum) * running + momentum * batch.
    Eval mode uses only the running statistics, which start at (0, 1).
    """

    BUFFERS = ("running_mean", "running_var")

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def __call__(self, x: Tensor, mode: str) -> Tensor:
        # Fused single node (forward + hand-derived backward) instead of a
        # chain of primitives; the gradcheck gate covers both modes.
        check_mode(mode)
        x = as_tensor(x)
        if x.ndim < 2 or x.shape[1] != self.channels:
            raise DimensionError(f"batch norm: expected channels {self.channels} on axis 1, got {x.shape}")
        axes = tuple(a for a in range(x.ndim) if a != 1)
        gamma, beta = self.gamma, self.beta
        mean, inv, gamma_b, beta_b = (self.train_affine(x.data, axes) if mode == "train"
                                      else self.eval_affine(x.ndim))
        xhat = normalize(x.data, mean, inv)

        def backward(g):
            accumulate_grad(gamma, (g * xhat).sum(axis=axes))
            accumulate_grad(beta, g.sum(axis=axes))
            if x.requires_grad:
                dx = g * gamma_b
                if mode == "train":
                    # batch statistics depend on x: subtract their two terms
                    m1 = dx.mean(axis=axes, keepdims=True)
                    m2 = (dx * xhat).mean(axis=axes, keepdims=True)
                    dx -= m1
                    dx -= xhat * m2
                dx *= inv
                accumulate_grad(x, dx)

        return make_op(scale_shift(xhat, gamma_b, beta_b), (x, gamma, beta), "batch_norm", backward)

    def train_affine(self, x: np.ndarray, axes: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """Like `eval_affine`, from the batch statistics of x over `axes`, which update the running ones."""
        if x.size // self.channels < 2:
            raise ValidationError("batch norm train mode needs at least 2 values per channel")
        mean = x.mean(axis=axes, keepdims=True)
        centered = x - mean
        var = np.square(centered, out=centered).mean(axis=axes, keepdims=True)
        m = self.momentum
        self.running_mean = (1 - m) * self.running_mean + m * mean.reshape(self.channels)
        self.running_var = (1 - m) * self.running_var + m * var.reshape(self.channels)
        return (mean, 1.0 / np.sqrt(var + self.eps),
                *(p.data.reshape(mean.shape) for p in (self.gamma, self.beta)))

    def eval_affine(self, ndim: int) -> tuple[np.ndarray, ...]:
        """Running mean, 1 / sqrt(running_var + eps), gamma and beta, shaped to
        broadcast against an `ndim`-axis input whose channels lie on axis 1."""
        bshape = tuple(self.channels if a == 1 else 1 for a in range(ndim))
        inv = 1.0 / np.sqrt(self.running_var + self.eps)
        return tuple(v.reshape(bshape) for v in (self.running_mean, inv, self.gamma.data, self.beta.data))


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis: (x - mean) / sqrt(var + eps) * gamma + beta."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv

    def backward(g):
        accumulate_grad(gamma, g * xhat)
        if x.requires_grad:
            dxhat = g * gamma.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            accumulate_grad(x, inv * (dxhat - m1 - xhat * m2))
        accumulate_grad(beta, g)  # last: beta may keep g itself

    return make_op(xhat * gamma.data + beta.data, (x, gamma, beta), "layer_norm", backward)


class Dropout:
    """Inverted dropout: train zeroes with probability `rate` and rescales
    survivors by 1/(1-rate); eval is exactly the identity."""

    def __init__(self, rate: float, rng: np.random.Generator):
        self.rate = check("dropout rate", rate, float, "[0, 1)")
        self.rng = rng

    def mask(self, shape: tuple[int, ...]) -> np.ndarray | None:
        """The keep mask of one train-mode call on `shape`; None, drawing nothing, at rate 0."""
        return None if self.rate == 0.0 else self.rng.random(shape) >= self.rate

    def __call__(self, x: Tensor, mode: str) -> Tensor:
        keep = None if check_mode(mode) == "eval" else self.mask(x.shape)
        return x if keep is None else x * Tensor(keep / (1.0 - self.rate))


class CausalBranch(Layer):
    """One temporal branch on (N, S, D): left pad (k-1), Conv1D (D -> D),
    BatchNorm1D, ELU, Dropout.

    Channel count and temporal length are preserved, and in eval mode the
    output at time t depends only on inputs at times <= t.
    """

    def __init__(self, channels: int, kernel_size: int, dropout_rate: float,
                 rng: np.random.Generator, dropout_rng: np.random.Generator | None = None,
                 bn_momentum: float = 0.1, bn_eps: float = 1e-5):
        kernel_size = check("kernel size", kernel_size, int, "[1, inf)")
        self.channels = channels
        self.kernel_size = kernel_size
        bound = 1.0 / np.sqrt(channels * kernel_size)
        self.kernels = Tensor(rng.uniform(-bound, bound, (channels, channels, kernel_size)),
                              requires_grad=True)
        self.bias = Tensor(rng.uniform(-bound, bound, channels), requires_grad=True)
        self.bn = BatchNorm1d(channels, momentum=bn_momentum, eps=bn_eps)
        self.dropout = Dropout(dropout_rate, dropout_rng if dropout_rng is not None else rng)

    def __call__(self, x: Tensor, mode: str) -> Tensor:
        x = as_tensor(x)
        if x.ndim != 3 or x.shape[2] != self.channels:
            raise DimensionError(f"causal branch: expected (N, S, {self.channels}), got {x.shape}")
        n, s, d = x.shape
        y = conv1d(pad_left(x, self.kernel_size - 1), self.kernels, self.bias)
        y = self.bn(y.reshape(n * s, d), mode)
        return self.dropout(elu(y), mode).reshape(n, s, d)
