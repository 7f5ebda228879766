"""Multi-scale causal fusion with learnable graph propagation and residual.

The block runs "temporal first, spatial second", channels last throughout:
the (B, C, S, D) input is viewed as (B*C, S, D) for the causal branches (S
is time, D are the conv channels), then as (B, C, S*D) for channel mixing,
where C are graph nodes. Both views are free reshapes of the same C-ordered
buffer, so the residual sum is well defined, the post-residual batch norm
treats C as its channel axis, and the block output is a C-contiguous
(B, C, S, D) whose (C, S, D) flatten is free too. `temporal_path`, kept for
the causality checks, returns the fused branches as (B*C, D, S), time last.

In eval mode inside a `no_grad` scope the block runs as plain numpy, a few
samples at a time, so each block's im2col and activations stay in cache
(`MCRBlock._eval_blocks`). It calls the taped ops' own batch-norm and ELU
helpers; train mode, and any forward that records a tape, runs per op.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .checks import check_items
from .errors import ConfigError, DimensionError, ValidationError
from .layers import BatchNorm1d, CausalBranch, Dropout, Layer, check_mode, normalize, scale_shift
from .tensor import (Tensor, accumulate_grad, as_tensor, elu, elu_into, grad_enabled, make_op,
                     matmul, taps_view)

# Im2col bytes per sample block of the tape-free eval forward: 3 desk samples
# (200 KB each), whose im2col and activations fit a per-core L2 cache.
EVAL_BLOCK_BYTES = 3 << 18


class AdjacencyParams(Layer):
    """Unconstrained learnable C x C matrix plus the degree clamp floor."""

    eps_deg = 1e-6
    # Small random init (zeros, i.e. an identity graph, when no rng is given)
    # so structure can grow away from the ELU kink.
    init_scale = 0.05

    def __init__(self, channels: int, rng: np.random.Generator | None = None):
        self.channels = channels
        values = (np.zeros((channels, channels)) if rng is None
                  else rng.normal(0.0, self.init_scale, (channels, channels)))
        self.A = Tensor(values, requires_grad=True)


def normalize_adjacency(params: AdjacencyParams) -> Tensor:
    """ELU + self-loops + symmetric degree normalization, as one tape node.

    Degrees use absolute row sums clamped below by eps_deg: ELU makes
    off-diagonal entries of the self-looped matrix lie in (-1, inf), so raw
    row sums can be nonpositive and the inverse square root would otherwise
    be undefined. The normalized matrix therefore keeps signed entries; the
    alternative repair (clamping the self-looped matrix to be nonnegative)
    would forbid inhibitory mixing and is deliberately not used.
    """
    a = params.A
    if not np.isfinite(a.data).all():
        raise ValidationError("adjacency parameters contain non-finite values")
    c = params.channels
    tilde = elu_into(a.data, np.empty((c, c))) + np.eye(c)
    row = np.abs(tilde).sum(axis=1)
    deg = np.maximum(row, params.eps_deg)
    r = deg ** -0.5
    left = r.reshape(c, 1) * tilde
    out = left * r.reshape(1, c)

    def backward(g):
        # A_hat_ij = r_i * tilde_ij * r_j with r = max(sum_j |tilde_ij|, eps) ** -0.5
        g_left = g * r.reshape(1, c)
        dr = (g * left).sum(axis=0) + (g_left * tilde).sum(axis=1)
        d_row = dr * -0.5 * deg ** -1.5 * (row > params.eps_deg)
        d_tilde = g_left * r.reshape(c, 1) + d_row.reshape(c, 1) * np.sign(tilde)
        accumulate_grad(a, d_tilde * np.exp(np.minimum(a.data, 0.0)))

    return make_op(out, (a,), "normalize_adjacency", backward)


def graph_propagate(o: Tensor, a_hat: Tensor) -> Tensor:
    """Apply the normalized adjacency to every batch element: Z[b] = A_hat @ o[b]."""
    o, a_hat = as_tensor(o), as_tensor(a_hat)
    if o.ndim != 3:
        raise DimensionError(f"graph_propagate expects (B, C, F), got {o.shape}")
    if a_hat.shape != (o.shape[1], o.shape[1]):
        raise DimensionError(f"adjacency {a_hat.shape} does not match channel count {o.shape[1]}")
    return matmul(a_hat, o)


def multiscale_fuse(x: Tensor, branches: Sequence[CausalBranch], mode: str) -> Tensor:
    """Sum of all causal-branch outputs (same shape as the input)."""
    check_mode(mode)
    if not branches:
        raise ConfigError("multiscale_fuse requires at least one branch")
    out = branches[0](x, mode)
    for branch in branches[1:]:
        y = branch(x, mode)
        if y.shape != out.shape:
            raise DimensionError(f"branch output shapes differ: {out.shape} vs {y.shape}")
        out = out + y
    return out


def residual_postnorm(z: Tensor, x: Tensor, bn: BatchNorm1d, dropout: Dropout, mode: str) -> Tensor:
    """H = Dropout(ELU(BN(Z + x)))."""
    z, x = as_tensor(z), as_tensor(x)
    if z.shape != x.shape:
        raise DimensionError(f"residual shapes differ: {z.shape} vs {x.shape}")
    return dropout(elu(bn(z + x, mode)), mode)


class MCRBlock(Layer):
    """Multi-scale causal branches, graph propagation, residual post-norm."""

    def __init__(self, channels: int, feat_dim: int, rng: np.random.Generator,
                 kernels: Sequence[int] = (3, 5), dropout_rate: float = 0.1,
                 dropout_rng: np.random.Generator | None = None,
                 bn_momentum: float = 0.1, bn_eps: float = 1e-5):
        self.channels = channels
        self.feat_dim = feat_dim
        self.kernel_sizes = check_items("kernels", kernels, int, "[1, inf)")
        self.branches = [
            CausalBranch(feat_dim, k, dropout_rate, rng, dropout_rng=dropout_rng,
                         bn_momentum=bn_momentum, bn_eps=bn_eps)
            for k in self.kernel_sizes
        ]
        self.adjacency = AdjacencyParams(channels, rng)
        self.post_bn = BatchNorm1d(channels, momentum=bn_momentum, eps=bn_eps)
        self.post_dropout = Dropout(dropout_rate, dropout_rng if dropout_rng is not None else rng)

    def _temporal_view(self, f: Tensor) -> Tensor:
        """Check a (B, C, S, D) input and view it as (B*C, S, D) for the branches."""
        f = as_tensor(f)
        if f.ndim != 4:
            raise DimensionError(f"block expects (B, C, S, D), got {f.shape}")
        b, c, s, d = f.shape
        if c != self.channels:
            raise DimensionError(f"block configured for C={self.channels}, got C={c}")
        if d != self.feat_dim:
            raise DimensionError(f"block configured for D={self.feat_dim}, got D={d}")
        return f.reshape(b * c, s, d)

    def temporal_path(self, f: Tensor, mode: str) -> Tensor:
        """Multi-scale fusion of a (B, C, S, D) input, returned as (B*C, D, S)
        with time last; exposed for causality checks."""
        return multiscale_fuse(self._temporal_view(f), self.branches, mode).transpose((0, 2, 1))

    def __call__(self, f: Tensor, mode: str) -> Tensor:
        check_mode(mode)
        f = as_tensor(f)
        view = self._temporal_view(f)
        b, c, s, d = f.shape
        if mode == "eval" and not grad_enabled() and b * c > 1:
            return Tensor(self._eval_blocks(f.data))
        fused = multiscale_fuse(view, self.branches, mode)
        a_hat = normalize_adjacency(self.adjacency)
        z = graph_propagate(fused.reshape(b, c, s * d), a_hat)
        h_sp = residual_postnorm(z, f.reshape(b, c, s * d), self.post_bn, self.post_dropout, mode)
        return h_sp.reshape(b, c, s, d)

    def _eval_blocks(self, f: np.ndarray) -> np.ndarray:
        """The eval block without a tape, m samples at a time: one left pad
        of max(k) - 1, one tap-major im2col whose last k taps feed branch k,
        then the taped path's operations in its order. Smaller blocks than
        the batch are bitwise the taped output where the BLAS rounds a row
        independently of the row count, as OpenBLAS does at D = 32 and 200
        (not at every width). The taped `taps` of one sequence is a view
        that numpy multiplies without BLAS, unlike this copied im2col, so a
        block holds two sequences or more and a one-sequence batch runs per op.
        """
        b, c, s, d = f.shape
        kmax = max(self.kernel_sizes)
        m = min(b, max(EVAL_BLOCK_BYTES // (c * s * kmax * d * 8), -(-2 // c)))
        branches = [(k * d, br.kernels.data.transpose(2, 1, 0).reshape(k * d, d), br.bias.data,
                     br.bn.eval_affine(2)) for k, br in zip(self.kernel_sizes, self.branches)]
        a_hat = normalize_adjacency(self.adjacency).data
        mean, inv, gamma, beta = self.post_bn.eval_affine(3)
        padded = np.zeros((m * c, s + kmax - 1, d))
        windows = taps_view(padded, kmax)
        cols = np.empty((m * c * s, kmax * d))
        fused, scratch = np.empty((2, m * c * s, d))
        out = np.empty(f.shape)
        for lo in range(0, b, m):
            lo = min(lo, b - m)
            x = f[lo:lo + m]
            padded[:, kmax - 1:] = x.reshape(m * c, s, d)
            # branch k reads the last k taps of the max(k) window
            cols.reshape(windows.shape)[...] = windows
            for i, (width, w, bias, bn) in enumerate(branches):
                y = cols[:, kmax * d - width:] @ w
                y += bias
                scale_shift(normalize(y, *bn[:2], out=y), *bn[2:], out=y)
                elu_into(y, scratch if i else fused)
                if i:
                    fused += scratch
            z = a_hat @ fused.reshape(m, c, s * d)
            z += x.reshape(m, c, s * d)
            scale_shift(normalize(z, mean, inv, out=z), gamma, beta, out=z)
            elu_into(z, out[lo:lo + m].reshape(m, c, s * d))
        return out
