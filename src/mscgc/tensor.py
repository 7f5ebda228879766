"""Dense tensors with tape-based reverse-mode differentiation.

All arithmetic runs in float64; float32 exists only as an opt-in storage
format for files. The tape is implicit: every tensor produced by an op keeps
references to its parents plus a monotonically increasing sequence number,
and ``Tensor.backward`` replays the reachable ops in exact reverse execution
order. Gradients that outlive a backward are always accumulated (added
into), never overwritten; zeroing is the caller's job. No op mutates its inputs.

Inside a ``no_grad()`` scope no op joins the tape: its output keeps no
parents and no backward closure, whatever its inputs require, so a forward
that is never differentiated frees each intermediate as soon as the next op
has read it.

Each gradient has one owner. Handing an array to ``accumulate_grad`` hands
it over: it becomes the receiver's ``.grad``, or is added into the ``.grad``
the receiver already holds, and the caller neither writes it afterwards nor
hands it to a second receiver. ``backward`` takes an op output's gradient off
the node and hands the array itself to the node's rule, so after a backward
only leaves (parameters, inputs) hold a ``.grad``. The view rules pass on
views of their own ``g``, and ``add``, the one rule with two receivers for
one array, copies ``g`` for its second operand when both would keep it
whole. So a ``.grad`` shares memory with no other ``.grad`` and with no
``.data``.

A ``backward_hook`` scope is the one seam into the replay: saliency copies the
block output's gradient out through it, and ``gradcheck --corrupt`` scales
one op's gradient there. A hook that keeps a gradient copies it, since the
node's rule hands views of it on.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, UsageError, ValidationError, VerificationError

_SEQ = itertools.count()

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Run the body without recording a tape; the prior state is restored on
    exit, also on error, so scopes nest."""
    global _GRAD_ENABLED
    prior = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prior


def grad_enabled() -> bool:
    """False inside a `no_grad` scope."""
    return _GRAD_ENABLED


_BACKWARD_HOOK: Callable[[Tensor, np.ndarray], np.ndarray] | None = None


@contextmanager
def backward_hook(hook: Callable[[Tensor, np.ndarray], np.ndarray]):
    """In the body, each backward calls `hook(node, grad)` for every node, leaves
    included, that holds a gradient when the replay reaches it, and runs an op
    node's rule on what the hook returns. The prior hook is restored on exit,
    also on error, so scopes nest."""
    global _BACKWARD_HOOK
    prior = _BACKWARD_HOOK
    _BACKWARD_HOOK = hook
    try:
        yield
    finally:
        _BACKWARD_HOOK = prior


class Tensor:
    """N-dimensional float64 array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op", "_seq")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"
        self._seq = next(_SEQ)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Populate the gradients of the leaves this scalar was computed from;
        every op output ends with `.grad` None."""
        if self.data.size != 1:
            raise UsageError(f"backward requires a scalar, got shape {self.shape}")
        if not self.requires_grad:
            raise UsageError("backward requires a root that requires grad; this one was "
                             "built from constants only or under no_grad")
        nodes: dict[int, Tensor] = {}
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in nodes or not node.requires_grad:
                continue
            nodes[id(node)] = node
            stack.extend(node._parents)
        order = sorted(nodes.values(), key=lambda n: n._seq, reverse=True)
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += 1.0
        hook = _BACKWARD_HOOK
        for node in order:
            rule = node._backward
            if rule is None and hook is None:
                continue  # a leaf keeps its gradient
            grad = node.grad
            if grad is None:
                continue
            if hook is not None:
                grad = hook(node, grad)
            if rule is not None:
                node.grad = None
                rule(grad)

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, as_tensor(other))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, as_tensor(other))

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes: Sequence[int] | None = None) -> "Tensor":
        return transpose(self, axes)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}, op={self._op!r})"


def as_tensor(x) -> Tensor:
    """Lift arrays/scalars to constant (non-differentiable) tensors."""
    return x if isinstance(x, Tensor) else Tensor(x)


def make_op(data: np.ndarray, parents: tuple[Tensor, ...], op: str,
            backward: Callable[[np.ndarray], None]) -> Tensor:
    """Construct a tape node with a hand-written backward rule.

    `backward` receives the output gradient and must route input gradients
    through `accumulate_grad`. The node joins the tape only when some parent
    requires grad and no `no_grad` scope is open; layers that fuse several
    primitives into one node use this too, and each such fusion is covered
    by the finite-difference gate.
    """
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
        out._op = op
    return out


def accumulate_grad(t: Tensor, grad: np.ndarray) -> None:
    """Hand `grad` over to t: it becomes t.grad, or is added into the t.grad
    already there; a no-op unless t requires grad.

    The caller gives `grad` up: it must not write the array, or anything it
    views, afterwards, nor hand it to a second receiver. Every rule's gradient
    has its output's shape or t's, so summing out the broadcast axes gives
    t's shape.
    """
    if not t.requires_grad:
        return
    grad = _unbroadcast(grad, t.data.shape)
    if t.grad is None:
        t.grad = np.asarray(grad)  # numpy hands back 0-d results as scalars
    else:
        t.grad += grad


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to `shape`, inverting numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- elementwise ---------------------------------------------------------


def _broadcast(name: str, fn, a, b):
    """Lift both operands and apply the numpy binary `fn` with broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    try:
        return a, b, fn(a.data, b.data)
    except ValueError as exc:
        raise DimensionError(f"{name}: shapes {a.shape} and {b.shape} do not broadcast") from exc


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b, data = _broadcast("add", np.add, a, b)

    def backward(g):
        accumulate_grad(a, g)
        if a.grad is g and b.requires_grad and b.grad is None and b.data.shape == g.shape:
            g = g.copy()  # a keeps g whole and b would too
        accumulate_grad(b, g)

    return make_op(data, (a, b), "add", backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b, data = _broadcast("mul", np.multiply, a, b)

    def backward(g):
        # a constant operand, e.g. a dropout mask, gets no gradient
        if a.requires_grad:
            accumulate_grad(a, g * b.data)
        if b.requires_grad:
            accumulate_grad(b, g * a.data)

    return make_op(data, (a, b), "mul", backward)


def elu_into(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """expm1(min(x, 0)) + max(x, 0), which is elu(x) exactly, written into
    `out` (which must not overlap x)."""
    np.minimum(x, 0.0, out=out)
    np.expm1(out, out=out)
    out += np.maximum(x, 0.0)
    return out


def elu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    data = elu_into(x.data, np.empty_like(x.data))

    def backward(g):
        # the slope is exp(x) = elu(x) + 1 below zero and 1 above, i.e. min(out, 0) + 1
        slope = np.minimum(data, 0.0)
        slope += 1.0
        slope *= g
        accumulate_grad(x, slope)

    return make_op(data, (x,), "elu", backward)


def silu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-x.data))
    data = x.data * sig

    def backward(g):
        accumulate_grad(x, g * sig * (1.0 + x.data * (1.0 - sig)))

    return make_op(data, (x,), "silu", backward)


def tanh(x: Tensor) -> Tensor:
    x = as_tensor(x)
    data = np.tanh(x.data)

    def backward(g):
        accumulate_grad(x, g * (1.0 - data * data))

    return make_op(data, (x,), "tanh", backward)


def sin(x: Tensor) -> Tensor:
    x = as_tensor(x)
    data = np.sin(x.data)

    def backward(g):
        accumulate_grad(x, g * np.cos(x.data))

    return make_op(data, (x,), "sin", backward)


def cos(x: Tensor) -> Tensor:
    x = as_tensor(x)
    data = np.cos(x.data)

    def backward(g):
        accumulate_grad(x, g * -np.sin(x.data))

    return make_op(data, (x,), "cos", backward)


def square(x: Tensor) -> Tensor:
    x = as_tensor(x)

    def backward(g):
        accumulate_grad(x, g * 2.0 * x.data)

    return make_op(x.data * x.data, (x,), "square", backward)


# -- structural ops -------------------------------------------------------


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    shape = tuple(int(s) for s in shape)
    try:
        data = x.data.reshape(shape)
    except ValueError as exc:
        raise DimensionError(f"cannot reshape {x.shape} to {shape}") from exc

    def backward(g):
        accumulate_grad(x, g.reshape(x.data.shape))

    return make_op(data, (x,), "reshape", backward)


def transpose(x: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    x = as_tensor(x)
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.ndim)):
        raise DimensionError(f"transpose axes {axes} invalid for ndim {x.ndim}")
    inverse = np.argsort(axes)

    def backward(g):
        accumulate_grad(x, g.transpose(inverse))

    return make_op(x.data.transpose(axes), (x,), "transpose", backward)


def pad_left(x: Tensor, amount: int) -> Tensor:
    """Zero-pad the time axis (axis 1) on the left by `amount` elements."""
    x = as_tensor(x)
    if amount < 0:
        raise ValidationError("pad amount must be nonnegative")
    if x.ndim < 2:
        raise DimensionError(f"pad_left pads axis 1, got shape {x.shape}")
    if amount == 0:
        return x
    data = np.zeros((x.shape[0], x.shape[1] + amount) + x.shape[2:])
    data[:, amount:] = x.data

    def backward(g):
        accumulate_grad(x, g[:, amount:])

    return make_op(data, (x,), "pad_left", backward)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:
        raise DimensionError(f"concat: incompatible shapes {[t.shape for t in tensors]}") from exc
    ax = axis if axis >= 0 else data.ndim + axis
    sizes = [t.data.shape[ax] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[ax] = slice(lo, hi)
            accumulate_grad(t, g[tuple(index)])

    return make_op(data, tuple(tensors), "concat", backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batch-broadcast semantics (ndim >= 2)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError("matmul requires operands with ndim >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise DimensionError(f"matmul: shapes {a.shape} and {b.shape} do not broadcast") from exc

    def backward(g):
        # a constant operand, e.g. the input data, gets no gradient
        if a.requires_grad:
            accumulate_grad(a, np.matmul(g, b.data.swapaxes(-1, -2)))
        if not b.requires_grad:
            return
        if b.ndim == 2 and not b.data.flags.c_contiguous:
            # b is a transposed view, e.g. the W.T of a linear layer: form its
            # gradient as (g^T a)^T, a view whose transpose is row-major, so
            # W.grad is stored C-contiguous by contiguous copies only
            accumulate_grad(b, np.matmul(g.swapaxes(-1, -2), a.data).swapaxes(-1, -2))
        else:
            accumulate_grad(b, np.matmul(a.data.swapaxes(-1, -2), g))

    return make_op(data, (a, b), "matmul", backward)


def conv1d(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Valid (unpadded) 1-D cross-correlation over time, channels last.

    x: (N, T, ch_in); kernels: (ch_out, ch_in, k); bias: (ch_out,).
    Returns a C-contiguous (N, T - k + 1, ch_out) with
    y[n, t, o] = bias[o] + sum_j sum_i kernels[o, i, j] * x[n, t + j, i].
    Padding is the caller's job.
    """
    x, kernels, bias = as_tensor(x), as_tensor(kernels), as_tensor(bias)
    if x.ndim != 3 or kernels.ndim != 3 or bias.ndim != 1:
        raise DimensionError("conv1d expects input (N, T, ch_in), kernels (ch_out, ch_in, k), bias (ch_out,)")
    n, t, ch_in = x.shape
    ch_out, k_in, k = kernels.shape
    if k_in != ch_in or bias.shape[0] != ch_out:
        raise DimensionError(f"conv1d: channel mismatch, input {ch_in} vs kernels {k_in}/{ch_out}")
    if k > t:
        raise DimensionError(f"conv1d: kernel size {k} exceeds input length {t}")
    t_out = t - k + 1
    # Tap-major im2col: row (n, t) holds x[n, t + j, :] for j = 0..k-1, so
    # every copied run is one contiguous ch_in row and each contraction is
    # one GEMM. w2[j * ch_in + i, o] = kernels[o, i, j].
    cols = taps(x.data, k)
    w2 = kernels.data.transpose(2, 1, 0).reshape(k * ch_in, ch_out)
    out = cols @ w2
    out += bias.data
    out = out.reshape(n, t_out, ch_out)

    def backward(g):
        g2 = g.reshape(n * t_out, ch_out)
        accumulate_grad(bias, g2.sum(axis=0))
        dw = (g2.T @ cols).reshape(ch_out, k, ch_in).transpose(0, 2, 1)
        accumulate_grad(kernels, np.ascontiguousarray(dw))
        if x.requires_grad:
            # full correlation of the zero-padded output gradient with the
            # kernels flipped in time: wf[j * ch_out + o, i] = kernels[o, i, k-1-j]
            gp = np.zeros((n, t + k - 1, ch_out))
            gp[:, k - 1:k - 1 + t_out] = g
            wf = kernels.data[:, :, ::-1].transpose(2, 0, 1).reshape(k * ch_out, ch_in)
            accumulate_grad(x, (taps(gp, k) @ wf).reshape(n, t, ch_in))

    return make_op(out, (x, kernels, bias), "conv1d", backward)


def taps(a: np.ndarray, k: int) -> np.ndarray:
    """(N, T, ch) -> (N * (T-k+1), k * ch): the k time-consecutive rows of
    every window, tap after tap, in one contiguous copy (for N = 1 and k > 1
    an overlapping view, which numpy multiplies without BLAS)."""
    n, t, ch = a.shape
    return taps_view(a, k).reshape(n * (t - k + 1), k * ch)


def taps_view(a: np.ndarray, k: int) -> np.ndarray:
    """The (N, T-k+1, k, ch) window view of (N, T, ch) that `taps` copies."""
    return sliding_window_view(a, k, axis=1).transpose(0, 1, 3, 2)


def reduce_sum(x: Tensor) -> Tensor:
    """Sum over all axes, to a 0-d tensor."""
    x = as_tensor(x)

    def backward(g):
        accumulate_grad(x, np.broadcast_to(g, x.data.shape).copy())

    return make_op(x.data.sum(), (x,), "reduce_sum", backward)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax of the true class, max-stabilized.

    logits: (B, M); labels: int array (B,) with values in [0, M).
    """
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise DimensionError(f"softmax_cross_entropy expects (B, M) logits, got {logits.shape}")
    labels = np.asarray(labels)
    b, m = logits.shape
    if labels.shape != (b,):
        raise DimensionError(f"labels shape {labels.shape} does not match batch {b}")
    if labels.size and (labels.min() < 0 or labels.max() >= m):
        raise ValidationError(f"labels must lie in [0, {m})")
    labels = labels.astype(np.int64)
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    data = -log_probs[np.arange(b), labels].mean()

    def backward(g):
        grad = np.exp(log_probs)
        grad[np.arange(b), labels] -= 1.0
        accumulate_grad(logits, float(g) * grad / b)

    return make_op(np.asarray(data), (logits,), "softmax_cross_entropy", backward)


# -- verification ----------------------------------------------------------


def finite_diff_check(f, params, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` must be a deterministic function of `params` (a Tensor or a sequence
    of Tensors, each requiring grad) returning a scalar Tensor. Relative
    error per coordinate is |analytic - numeric| / max(1, |analytic|, |numeric|).
    Perturbations are applied in place and restored, so `f` may either take
    the tensors as arguments or close over them.
    """
    tensors = [params] if isinstance(params, Tensor) else list(params)
    for p in tensors:
        if not p.requires_grad:
            raise UsageError("finite_diff_check requires params with requires_grad=True")
        p.zero_grad()
    out = f(*tensors)
    if out.data.size != 1:
        raise UsageError("finite_diff_check requires a scalar-valued function")
    if not np.isfinite(out.data).all():
        raise VerificationError("function produced a non-finite value")
    out.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in tensors]

    worst = 0.0
    for p, ana in zip(tensors, analytic):
        flat = p.data.reshape(-1)
        ana_flat = ana.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f(*tensors).data)
            flat[i] = orig - eps
            f_minus = float(f(*tensors).data)
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise VerificationError("function produced a non-finite value during perturbation")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(ana_flat[i] - numeric) / max(1.0, abs(ana_flat[i]), abs(numeric))
            worst = max(worst, err)
    return worst
