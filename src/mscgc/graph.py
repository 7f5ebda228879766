"""Multi-scale causal fusion with learnable graph propagation and residual.

The block runs "temporal first, spatial second", channels last throughout:
the (B, C, S, D) input is viewed as (B*C, S, D) for the causal branches (S
is time, D are the conv channels), then as (B, C, S*D) for channel mixing,
where C are graph nodes. Both views are free reshapes of the same C-ordered
buffer, so the residual sum is well defined, the post-residual batch norm
treats C as its channel axis, and the block output is a C-contiguous
(B, C, S, D) whose (C, S, D) flatten is free too. `temporal_path`, kept for
the causality checks, returns the fused branches as (B*C, D, S), time last.

Train mode, and eval mode inside a `no_grad` scope, run the block a few
samples at a time, so each block's im2col and activations stay in cache
(`MCRBlock._blocks`): train as one tape node with a hand-written backward,
eval as plain numpy that, given the provider's `encode`, encodes the raw
samples one block at a time. An eval forward that records a tape runs per op.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .checks import check_items
from .errors import ConfigError, DimensionError, ValidationError
from .layers import BatchNorm1d, CausalBranch, Dropout, Layer, check_mode, normalize, scale_shift
from .tensor import (Tensor, accumulate_grad, as_tensor, elu, elu_into, grad_enabled, make_op,
                     matmul, taps_view)

# Im2col bytes per sample block of `MCRBlock._blocks`, train and eval alike: 3
# desk samples (200 KB each), whose im2col and activations fit a per-core L2 cache.
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

    def __call__(self, f: Tensor, mode: str, encode=None) -> Tensor:
        """H of a (B, C, S, D) input f; or, given the provider's `encode` (eval
        under `no_grad` only), of raw (B, C, S, P) samples f, which a B*C > 1
        batch encodes one sample block at a time inside `_blocks`."""
        check_mode(mode)
        f = as_tensor(f)
        if encode is not None:
            if f.shape[0] * f.shape[1] > 1:
                return self._blocks(f, normalize_adjacency(self.adjacency), False, encode)
            f = encode(f)
        view = self._temporal_view(f)
        b, c, s, d = f.shape
        if mode == "train" or (not grad_enabled() and b * c > 1):
            return self._blocks(f, normalize_adjacency(self.adjacency), mode == "train")
        fused = multiscale_fuse(view, self.branches, mode)
        a_hat = normalize_adjacency(self.adjacency)
        z = graph_propagate(fused.reshape(b, c, s * d), a_hat)
        h_sp = residual_postnorm(z, f.reshape(b, c, s * d), self.post_bn, self.post_dropout, mode)
        return h_sp.reshape(b, c, s, d)

    def _blocks(self, f: Tensor, a_hat: Tensor, train: bool, encode=None) -> Tensor:
        """The block m samples at a time: one im2col per block, whose last k taps
        feed branch k, then every branch's GEMM, norm, ELU and dropout, their
        sum, A_hat, the residual and the post norm, ELU and dropout. Eval runs
        each block through it all; its GEMMs see m samples whatever the batch
        (the tail block shifts back to keep m), so it is bitwise the per-op
        output where the BLAS rounds a row alike at any row count (OpenBLAS does
        at D = 32 and 200; numpy multiplies the per-op `taps` view of one
        sequence without BLAS, so that batch runs per op). Given `encode`, f
        holds raw samples and each block encodes its own, so eval builds no
        full-batch array but the output. Train is one tape node that runs the
        blocks once per stage, with batch statistics between."""
        (b, c, s), d = f.shape[:3], self.feat_dim
        ks, kmax, nk = self.kernel_sizes, max(self.kernel_sizes), len(self.kernel_sizes)
        m = min(b, max(EVAL_BLOCK_BYTES // (c * s * kmax * d * 8), -(-2 // c)))
        spans = [(lo, min(lo + m, b)) if train else (min(lo, b - m), min(lo, b - m) + m)
                 for lo in range(0, b, m)]
        norms = [br.bn for br in self.branches] + [self.post_bn]
        drops = [br.dropout for br in self.branches] + [self.post_dropout]
        keeps = [drop.mask(shape) if train else None
                 for drop, shape in zip(drops, [(b * c * s, d)] * nk + [(b, c, s * d)])]
        ws = [br.kernels.data.transpose(2, 1, 0).reshape(k * d, d) for k, br in zip(ks, self.branches)]
        x_in, a, nb = f.data, a_hat.data, b if train else m
        # whole batch (train) or one block (eval), in one buffer: conv outputs then
        # x_hat, ELU outputs, the branch sum, Z + x then x_hat
        acts = np.empty((2 * nk + 2, nb * c * s, d))
        ys, es = acts[:nk], acts[nk:2 * nk]
        fused, zs = (v.reshape(nb, c, s * d) for v in acts[2 * nk:])
        out = np.empty((b, c, s * d))
        post_e = out if keeps[-1] is None else np.empty_like(out)
        padded, cols = np.zeros((m * c, s + kmax - 1, d)), np.empty((m * c * s, kmax * d))
        windows, tmp = taps_view(padded, kmax), np.empty(m * c * s * d)

        def at(lo, hi, per=c * s):  # rows of samples lo:hi in the arrays above
            return slice(lo * per, hi * per) if train else slice(0, (hi - lo) * per)

        def scratch(v):  # work space shaped like v
            return tmp[:v.size].reshape(v.shape)

        def rows(lo, hi):  # the input sequences of samples lo:hi, as (n, s, d)
            return (x_in[lo:hi] if encode is None else
                    self._temporal_view(encode(x_in[lo:hi])).data).reshape(-1, s, d)

        def im2col(x):
            n = len(x)
            padded[:n, kmax - 1:] = x
            cols[:n * s].reshape(n, s, kmax, d)[...] = windows[:n]
            return cols[:n * s]

        def activate(i, v, rows, e_out, out):
            """Norm i (the last: post norm) in place on v, affine, ELU into e_out, dropout into out."""
            x = normalize(v, *stats[i][:2], out=v)
            e = elu_into(scale_shift(x, *stats[i][2:], out=scratch(x) if train else x), e_out)
            if keeps[i] is not None:
                np.multiply(e, keeps[i][rows], out=out)
                out *= 1.0 / (1.0 - drops[i].rate)
            elif not np.may_share_memory(e, out):
                out[...] = e

        def conv(lo, hi, x):
            x = im2col(x)
            for k, w, br, y in zip(ks, ws, self.branches, ys):
                y = np.matmul(x[:, (kmax - k) * d:], w, out=y[at(lo, hi)])
                y += br.bias.data

        def branch_sum(lo, hi, x):
            r, q = at(lo, hi), at(lo, hi, 1)
            fz = fused[q].reshape(-1, d)
            for i, y in enumerate(ys):
                t = scratch(fz) if i else fz
                activate(i, y[r], r, es[i][r] if train else t, t)
                if i:
                    fz += t
            z = np.matmul(a, fused[q], out=zs[q])
            z += x.reshape(z.shape)

        def post(lo, hi, _):
            activate(nk, zs[at(lo, hi, 1)], slice(lo, hi), post_e[lo:hi], out[lo:hi])

        if not train:
            stats = [bn.eval_affine(2) for bn in norms[:-1]] + [self.post_bn.eval_affine(3)]
            for lo, hi in spans:
                x = rows(lo, hi)
                for phase in (conv, branch_sum, post):
                    phase(lo, hi, x)
            return Tensor(out.reshape(b, c, s, d))
        for phase in (conv, branch_sum, post):
            for lo, hi in spans:
                phase(lo, hi, rows(lo, hi))
            if phase is conv:
                stats = [bn.train_affine(y, (0,)) for bn, y in zip(norms, ys)]
            elif phase is branch_sum:
                stats.append(self.post_bn.train_affine(zs, (0, 2)))

        def backward(g):
            dz = np.require(g, np.float64, ("C", "W")).reshape(b, c, s * d)
            sums = [np.zeros((2, *st[0].shape)) for st in stats]  # per norm: sum of du, of du * x_hat

            def grad_in(i, g, e, rows, xhat, out, axes):  # g at norm i's dropout output to its affine output
                t = np.minimum(e, 0.0, out=scratch(out))
                t += 1.0  # the ELU slope
                np.multiply(g, t, out=out)
                if keeps[i] is not None:
                    out *= keeps[i][rows]
                    out *= 1.0 / (1.0 - drops[i].rate)
                sums[i][0] += out.sum(axis=axes, keepdims=True)
                sums[i][1] += np.multiply(out, xhat, out=t).sum(axis=axes, keepdims=True)

            def grad_out(i, du, xhat, count):  # du at norm i's affine output, in place, to its input's
                du -= sums[i][0] / count
                du -= np.multiply(xhat, sums[i][1] / count, out=scratch(du))
                du *= stats[i][2] * stats[i][1]

            for lo, hi in spans:
                grad_in(nk, dz[lo:hi], post_e[lo:hi], slice(lo, hi), zs[lo:hi], dz[lo:hi], (0, 2))
            dus = np.empty((nk, b * c * s, d))  # each branch's conv output gradient
            for lo, hi in spans:
                r, dzb = at(lo, hi), dz[lo:hi]
                grad_out(nk, dzb, zs[lo:hi], b * s * d)
                dfz = (a.T @ dzb).reshape(-1, d)
                for i in range(nk):
                    grad_in(i, dfz, es[i][r], r, ys[i][r], dus[i][r], 0)
            accumulate_grad(a_hat, np.matmul(dz, fused.transpose(0, 2, 1)).sum(axis=0))  # dz = dL/dZ here
            # each branch's w.T on its last k taps, zero on the taps before
            w_cat = np.concatenate([np.pad(w.T, ((0, 0), ((kmax - k) * d, 0))) for k, w in zip(ks, ws)])
            d_w, d_bias, d_cols = np.zeros_like(w_cat), np.zeros(nk * d), np.empty_like(cols)
            d_ys = np.empty((len(cols), nk * d))
            for lo, hi in spans:
                r, n, x = at(lo, hi), (hi - lo) * c, im2col(rows(lo, hi))
                for i in range(nk):
                    grad_out(i, dus[i][r], ys[i][r], b * c * s)
                dy = np.concatenate([du[r] for du in dus], axis=1, out=d_ys[:n * s])
                d_bias += dy.sum(axis=0)
                d_w += dy.T @ x
                dc = np.matmul(dy, w_cat, out=d_cols[:n * s]).reshape(n, s, kmax, d)
                # col2im: tap j of output step t reads input step t + j - (kmax - 1)
                dx = dz[lo:hi].reshape(n, s, d)
                for j in range(max(0, kmax - s), kmax):
                    dx[:, :s - (kmax - 1 - j)] += dc[:, kmax - 1 - j:, j]
            accumulate_grad(f, dz.reshape(b, c, s, d))
            for i, (k, br) in enumerate(zip(ks, self.branches)):
                kernels = d_w[i * d:(i + 1) * d, (kmax - k) * d:].reshape(d, k, d).transpose(0, 2, 1)
                accumulate_grad(br.kernels, np.ascontiguousarray(kernels))
                accumulate_grad(br.bias, d_bias[i * d:(i + 1) * d])
            for norm, (d_beta, d_gamma) in zip(norms, sums):
                accumulate_grad(norm.gamma, d_gamma.reshape(-1))
                accumulate_grad(norm.beta, d_beta.reshape(-1))

        params = [p for br in self.branches for p in (br.kernels, br.bias, br.bn.gamma, br.bn.beta)]
        return make_op(out.reshape(b, c, s, d), (f, a_hat, *params, self.post_bn.gamma, self.post_bn.beta),
                       "mcr_block", backward)
