"""Finite-difference verification suite over every differentiable layer.

Each entry builds a deterministic scalar-valued function of freshly seeded
parameters and reports the max relative error between analytic and central
difference gradients. Layers with batch-norm run in train mode (batch
statistics are the differentiated path; the running-stat side effect does
not change train-mode outputs) and with dropout rate 0 so repeated forward
evaluations are identical.
"""

from __future__ import annotations

import zlib

import numpy as np

from .graph import (
    AdjacencyParams,
    MCRBlock,
    graph_propagate,
    multiscale_fuse,
    normalize_adjacency,
    residual_postnorm,
)
from .kan import ClassifierHead, KanLayer
from .layers import BatchNorm1d, CausalBranch, Dropout, LinearLayer, layer_norm
from .model import ModelConfig, MscgcKanModel
from .tensor import (
    Tensor,
    add,
    backward_hook,
    concat,
    conv1d,
    elu,
    finite_diff_check,
    matmul,
    mul,
    pad_left,
    reduce_sum,
    silu,
    sin,
    softmax_cross_entropy,
    square,
    tanh,
)

TOLERANCE = 1e-4


def _rand(rng, *shape):
    return Tensor(rng.uniform(-2.0, 2.0, shape), requires_grad=True)


def _check_unary(op):
    def run(rng):
        x = _rand(rng, 3, 4)
        return finite_diff_check(lambda t: reduce_sum(op(t)), x)
    return run


def _check_binary(op, a_shape, b_shape):
    def run(rng):
        a, b = _rand(rng, *a_shape), _rand(rng, *b_shape)
        return finite_diff_check(lambda x, y: reduce_sum(op(x, y)), [a, b])
    return run


def _check_conv1d(rng):
    x, k, b = _rand(rng, 2, 7, 3), _rand(rng, 4, 3, 3), _rand(rng, 4)
    return finite_diff_check(lambda xx, kk, bb: reduce_sum(square(conv1d(xx, kk, bb))), [x, k, b])


def _check_pad_concat(rng):
    x, y = _rand(rng, 2, 5), _rand(rng, 2, 3)
    return finite_diff_check(
        lambda a, b: reduce_sum(square(concat([pad_left(a, 2), b], axis=-1))), [x, y])


def _check_reduce_sum(rng):
    x = _rand(rng, 2, 3, 4)
    masks = [Tensor(np.eye(3)[j][:, None]) for j in range(3)]  # sum_j (sum_ik x_ijk)^2
    return finite_diff_check(lambda t: sum(square(reduce_sum(t * m)) for m in masks), x)


def _check_softmax_ce(rng):
    logits = _rand(rng, 4, 3)
    labels = np.array([0, 2, 1, 2])
    return finite_diff_check(lambda t: softmax_cross_entropy(t, labels), logits)


def _check_layer(build, x_shape):
    """A parameterized layer applied to a constant input."""
    def run(rng):
        layer = build(rng)
        x = Tensor(rng.uniform(-2, 2, x_shape))
        return finite_diff_check(lambda *ps: reduce_sum(square(layer(x))),
                                 [p for _, p in layer.named_parameters()])
    return run


def _check_batch_norm(rng):
    bn = BatchNorm1d(3)
    x = _rand(rng, 4, 3, 5)
    return finite_diff_check(lambda xx, g, b: reduce_sum(square(bn(xx, "train"))),
                             [x, bn.gamma, bn.beta])


def _check_layer_norm(rng):
    gamma = Tensor(rng.uniform(0.5, 1.5, 6), requires_grad=True)
    beta = Tensor(rng.uniform(-0.5, 0.5, 6), requires_grad=True)
    x = _rand(rng, 4, 6)
    return finite_diff_check(lambda xx, g, b: reduce_sum(square(layer_norm(xx, g, b))),
                             [x, gamma, beta])


def _check_causal_branch(rng):
    branch = CausalBranch(3, 3, 0.0, rng)
    x = _rand(rng, 2, 6, 3)
    params = [x, branch.kernels, branch.bias, branch.bn.gamma, branch.bn.beta]
    return finite_diff_check(lambda *ps: reduce_sum(square(branch(x, "train"))), params)


def _check_multiscale_fuse(rng):
    branches = [CausalBranch(2, k, 0.0, rng) for k in (3, 5)]
    x = _rand(rng, 2, 6, 2)
    params = [x] + [p for b in branches for _, p in b.named_parameters()]
    return finite_diff_check(
        lambda *ps: reduce_sum(square(multiscale_fuse(x, branches, "train"))), params)


def _check_normalize_adjacency(rng):
    adj = AdjacencyParams(4)
    adj.A.data[...] = rng.uniform(-2, 2, (4, 4))
    return finite_diff_check(lambda a: reduce_sum(square(normalize_adjacency(adj))), adj.A)


def _check_graph_propagate(rng):
    adj = AdjacencyParams(3)
    adj.A.data[...] = rng.uniform(-1, 1, (3, 3))
    o = _rand(rng, 2, 3, 4)
    return finite_diff_check(
        lambda a, oo: reduce_sum(square(graph_propagate(o, normalize_adjacency(adj)))),
        [adj.A, o])


def _check_residual_postnorm(rng):
    bn = BatchNorm1d(3)
    drop = Dropout(0.0, rng)
    z, x = _rand(rng, 2, 3, 4), _rand(rng, 2, 3, 4)
    return finite_diff_check(
        lambda *ps: reduce_sum(square(residual_postnorm(z, x, bn, drop, "train"))),
        [z, x, bn.gamma, bn.beta])


def _check_mcr_block(rng):
    block = MCRBlock(3, 2, kernels=(3, 5), dropout_rate=0.0, rng=rng)
    f = _rand(rng, 2, 3, 4, 2)
    params = [f] + [p for _, p in block.named_parameters()]
    return finite_diff_check(lambda *ps: reduce_sum(square(block(f, "train"))), params)


def _check_full_model(rng):
    cfg = ModelConfig(C=3, S=4, D=2, P=4, M=3, hidden=8, out_dim=6, dropout=0.0, seed=11)
    model = MscgcKanModel(cfg)
    model.set_mode("train")
    x = rng.uniform(-1.5, 1.5, (2, 3, 4, 4))
    labels = np.array([0, 2])
    params = [p for _, p in model.named_parameters() if p.requires_grad]
    return finite_diff_check(
        lambda *ps: softmax_cross_entropy(model.forward(x), labels), params)


CHECKS = [
    ("elu", _check_unary(elu)),
    ("silu", _check_unary(silu)),
    ("tanh", _check_unary(tanh)),
    ("sin", _check_unary(sin)),
    ("square", _check_unary(square)),
    ("add", _check_binary(add, (3, 4), (4,))),
    ("mul", _check_binary(mul, (3, 4), (3, 1))),
    ("matmul", _check_binary(matmul, (3, 4), (4, 2))),
    ("conv1d", _check_conv1d),
    ("pad_concat", _check_pad_concat),
    ("reduce_sum", _check_reduce_sum),
    ("softmax_cross_entropy", _check_softmax_ce),
    ("linear", _check_layer(lambda rng: LinearLayer(4, 3, rng), (5, 4))),
    ("batch_norm", _check_batch_norm),
    ("layer_norm", _check_layer_norm),
    ("causal_branch", _check_causal_branch),
    ("multiscale_fuse", _check_multiscale_fuse),
    ("normalize_adjacency", _check_normalize_adjacency),
    ("graph_propagate", _check_graph_propagate),
    ("residual_postnorm", _check_residual_postnorm),
    ("mcr_block", _check_mcr_block),
    ("kan_layer", _check_layer(lambda rng: KanLayer(5, 3, rng, hidden=4), (3, 5))),
    ("classifier", _check_layer(lambda rng: ClassifierHead(4, 3, rng), (5, 4))),
    ("full_model", _check_full_model),
]


def run_gradcheck(seed: int = 0, corrupt: str | None = None):
    """Run every registered check; returns [(name, max_error, passed)]. With
    `corrupt`, each node the op of that name made scales its gradient by 1.01
    before its rule runs, so every check through that op must fail."""
    results = []
    with backward_hook(lambda node, grad: grad * 1.01 if node._op == corrupt else grad):
        for name, check in CHECKS:
            rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
            err = check(rng)
            results.append((name, err, err < TOLERANCE))
    return results
