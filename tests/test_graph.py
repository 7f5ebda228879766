"""Graph block: adjacency normalization, propagation, residual, causality."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from mscgc import graph
from mscgc.errors import ConfigError, DimensionError, ValidationError
from mscgc.graph import (
    AdjacencyParams,
    MCRBlock,
    graph_propagate,
    multiscale_fuse,
    normalize_adjacency,
    residual_postnorm,
)
from mscgc.layers import BatchNorm1d, CausalBranch, Dropout
from mscgc.tensor import Tensor, elu, finite_diff_check, no_grad, reduce_sum, square


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def zeroed_block(b, c, s, d, rng, kernels=(3, 5)):
    """Block whose branches output zero and whose graph is the identity,
    with eval-identity batch norm, so forward collapses to elu(residual)."""
    block = MCRBlock(c, d, kernels=kernels, dropout_rate=0.0, rng=rng, bn_eps=0.0)
    for branch in block.branches:
        branch.kernels.data[...] = 0.0
        branch.bias.data[...] = 0.0
        branch.bn.eps = 0.0
    block.adjacency.A.data[...] = 0.0
    return block


def randomized_block(c, d, kernels, dropout_rate, rng):
    """MCR block with a random graph, and batch-norm affines and running
    statistics away from their (1, 0) and (0, 1) starts."""
    block = MCRBlock(c, d, kernels=kernels, dropout_rate=dropout_rate, rng=rng)
    block.adjacency.A.data[...] = rng.normal(0.0, 1.0, (c, c))
    for bn in [branch.bn for branch in block.branches] + [block.post_bn]:
        bn.gamma.data[...] = rng.uniform(0.5, 1.5, bn.channels)
        bn.beta.data[...] = rng.uniform(-0.5, 0.5, bn.channels)
        bn.running_mean = rng.normal(size=bn.channels)
        bn.running_var = rng.uniform(0.5, 2.0, bn.channels)
    return block


def block_oracle(block, f, mode):
    """`reference.mcr_block` on the block's parameters: (H, branch stats, post stats)."""
    def state(bn, **extra):
        return dict(gamma=bn.gamma.data, beta=bn.beta.data, running_mean=bn.running_mean,
                    running_var=bn.running_var, **extra)

    return reference.mcr_block(
        f, [state(br.bn, kernels=br.kernels.data, bias=br.bias.data) for br in block.branches],
        block.adjacency.A.data, state(block.post_bn), block.post_bn.momentum,
        block.post_bn.eps, mode, block.adjacency.eps_deg)


class TestNormalizeAdjacency:
    def test_zero_gives_identity_exactly(self):
        params = AdjacencyParams(4)
        np.testing.assert_array_equal(normalize_adjacency(params).data, np.eye(4))

    def test_hand_two_channel_all_ones(self):
        params = AdjacencyParams(2)
        params.A.data[...] = 1.0
        a_hat = normalize_adjacency(params).data
        np.testing.assert_allclose(a_hat, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-12)

    def test_symmetry_preserved(self, rng):
        params = AdjacencyParams(6)
        sym = rng.normal(size=(6, 6))
        params.A.data[...] = sym + sym.T
        a_hat = normalize_adjacency(params).data
        assert np.abs(a_hat - a_hat.T).max() < 1e-12

    def test_finite_for_wide_range(self, rng):
        params = AdjacencyParams(8)
        params.A.data[...] = rng.uniform(-10, 10, (8, 8))
        assert np.isfinite(normalize_adjacency(params).data).all()

    def test_non_finite_rejected(self):
        params = AdjacencyParams(2)
        params.A.data[0, 0] = np.nan
        with pytest.raises(ValidationError):
            normalize_adjacency(params)

    def test_gradcheck(self, rng):
        params = AdjacencyParams(4)
        params.A.data[...] = rng.uniform(-2, 2, (4, 4))
        err = finite_diff_check(lambda a: reduce_sum(square(normalize_adjacency(params))),
                                params.A)
        assert err < 1e-4


class TestAgainstReference:
    @given(c=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(0.01, 10.0), clamped=st.integers(0, 255))
    @settings(max_examples=150, deadline=None)
    def test_normalize_and_propagate_match_loops(self, c, seed, scale, clamped):
        rng = np.random.default_rng(seed)
        params = AdjacencyParams(c)
        params.A.data[...] = rng.normal(0.0, scale, (c, c))
        rows = [i for i in range(c) if clamped >> i & 1]
        for i in rows:
            # ELU(0) = 0 and ELU(-60) + 1 rounds to 0, so the row's |sum| is 0
            params.A.data[i, :] = 0.0
            params.A.data[i, i] = -60.0
        degrees = reference.clamped_degrees(
            reference.self_looped_adjacency(params.A.data), params.eps_deg)
        assert all(degrees[i] == params.eps_deg for i in rows)

        a_hat = normalize_adjacency(params)
        assert a_hat._op == "normalize_adjacency" and a_hat._parents == (params.A,)
        expected = reference.normalize_adjacency(params.A.data, params.eps_deg)
        np.testing.assert_allclose(a_hat.data, expected, rtol=1e-12, atol=1e-12)

        o = rng.normal(0.0, scale, (2, c, 5))
        z = graph_propagate(Tensor(o), a_hat).data
        # a sum may cancel, so its error is bounded by the sum of |terms|
        bound = 1e-12 * (np.abs(expected) @ np.abs(o))
        assert (np.abs(z - reference.graph_propagate(o, expected)) <= bound).all()

    @given(b=st.integers(1, 3), c=st.integers(1, 4), s=st.integers(1, 6), d=st.integers(1, 4),
           kernels=st.sampled_from([(1,), (3, 5), (2, 7)]), mode=st.sampled_from(["eval", "train"]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_mcr_block_matches_loops(self, b, c, s, d, kernels, mode, seed):
        if mode == "train":
            # batch statistics need two values per channel in both norms
            assume(b * c * s >= 2 and b * s * d >= 2)
        rng = np.random.default_rng(seed)
        # eval-mode dropout is the identity whatever its rate
        block = randomized_block(c, d, kernels, 0.0 if mode == "train" else 0.3, rng)
        norms = [branch.bn for branch in block.branches] + [block.post_bn]
        f = rng.normal(size=(b, c, s, d))
        expected, branch_stats, post_stats = block_oracle(block, f, mode)
        out = block(Tensor(f), mode).data
        assert out.shape == (b, c, s, d)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)
        for bn, (mean, var) in zip(norms, branch_stats + [post_stats]):
            np.testing.assert_allclose(bn.running_mean, mean, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(bn.running_var, var, rtol=1e-12, atol=1e-12)


class TestEvalBlocks:
    """In eval mode under `no_grad` the block runs as plain numpy, a few
    samples at a time. Batch norm and ELU are the taped ops' own helpers, so
    a block that is the whole batch gives the taped output bit for bit.
    Across several blocks the conv products have fewer rows than the taped
    ones; they round alike where the BLAS sums each row independently of the
    row count, as OpenBLAS does at the desk width D = 32."""

    @given(kernels=st.sampled_from([(1,), (3, 5), (5, 3), (3, 3), (2, 3, 7)]),
           c=st.integers(1, 4), d=st.integers(1, 4), data=st.data(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_one_sample_shorter_than_kernels_bitwise_equal_to_taped(self, kernels, c, d, data,
                                                                   seed):
        s = data.draw(st.integers(1, max(1, max(kernels) - 1)), label="s")
        rng = np.random.default_rng(seed)
        block = randomized_block(c, d, kernels, 0.3, rng)
        f = rng.normal(size=(1, c, s, d))
        taped = block(Tensor(f), "eval")
        assert taped.requires_grad
        with no_grad():
            bare = block(Tensor(f), "eval")
        assert not bare.requires_grad and bare.data.flags.c_contiguous
        assert bare.data.tobytes() == taped.data.tobytes()
        expected, _, _ = block_oracle(block, f, "eval")
        np.testing.assert_allclose(bare.data, expected, rtol=1e-12, atol=1e-12)

    @given(kernels=st.sampled_from([(1,), (3, 5), (2, 3, 7)]), b=st.integers(2, 6),
           c=st.integers(1, 4), s=st.integers(1, 8), d=st.integers(1, 4),
           per_block=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_sample_blocks_match_taped_and_loops(self, kernels, b, c, s, d, per_block, seed):
        rng = np.random.default_rng(seed)
        block = randomized_block(c, d, kernels, 0.3, rng)
        f = rng.normal(size=(b, c, s, d))
        taped = block(Tensor(f), "eval").data
        budget = per_block * c * s * max(kernels) * d * 8
        with mock.patch.object(graph, "EVAL_BLOCK_BYTES", budget), no_grad():
            bare = block(Tensor(f), "eval").data
        np.testing.assert_allclose(bare, taped, rtol=1e-12, atol=1e-12)
        expected, _, _ = block_oracle(block, f, "eval")
        np.testing.assert_allclose(bare, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("per_block", [1, 2, 3, 4, 5, 16])
    def test_desk_blocks_bitwise_equal_to_taped(self, per_block):
        rng = np.random.default_rng(per_block)
        block = randomized_block(16, 32, (3, 5), 0.1, rng)
        f = rng.normal(size=(17, 16, 10, 32))
        taped = block(Tensor(f), "eval").data
        budget = per_block * 16 * 10 * 5 * 32 * 8
        with mock.patch.object(graph, "EVAL_BLOCK_BYTES", budget), no_grad():
            bare = block(Tensor(f), "eval").data
        assert bare.tobytes() == taped.tobytes()


def per_op_train(block, f):
    """The block's train forward as the chain of taped ops the node replaces."""
    b, c, s, d = f.shape
    fused = multiscale_fuse(f.reshape(b * c, s, d), block.branches, "train")
    z = graph_propagate(fused.reshape(b, c, s * d), normalize_adjacency(block.adjacency))
    h = residual_postnorm(z, f.reshape(b, c, s * d), block.post_bn, block.post_dropout, "train")
    return h.reshape(b, c, s, d)


def train_step(block, forward, f, g):
    """H, every gradient by name ("f" for the input), every buffer by name and
    the dropout generator state after one train forward and backward of <H, g>."""
    x = Tensor(f, requires_grad=True)
    h = forward(block, x)
    reduce_sum(h * Tensor(g)).backward()
    grads = dict(block.named_parameters(), f=x)
    return (h.data, {name: t.grad for name, t in grads.items()}, dict(block.named_buffers()),
            block.post_dropout.rng.bit_generator.state)


class TestTrainNode:
    """In train mode the block is one tape node whose forward and backward run
    m samples at a time. It matches the per-op chain it replaces to 1e-12 of
    each array's largest entry, draws the same dropout masks, and updates the
    same running statistics."""

    @given(kernels=st.sampled_from([(1,), (5, 3), (2, 3, 7)]), b=st.integers(1, 5),
           c=st.integers(1, 4), d=st.integers(1, 4), per_block=st.sampled_from([None, 0, 1, 2]),
           data=st.data(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_op_chain(self, kernels, b, c, d, per_block, data, seed):
        s = data.draw(st.integers(1, max(kernels) + 2), label="s")
        assume(b * c * s >= 2 and b * s * d >= 2)
        f = np.random.default_rng(seed).normal(size=(2, b, c, s, d))
        # per_block 0 patches blocks down to one sample (two sequences when C = 1)
        budget = (graph.EVAL_BLOCK_BYTES if per_block is None
                  else max(1, per_block * c * s * max(kernels) * d * 8))
        with mock.patch.object(graph, "EVAL_BLOCK_BYTES", budget):
            runs = [train_step(randomized_block(c, d, kernels, 0.3, np.random.default_rng(seed)),
                               forward, f[0], f[1])
                    for forward in (lambda blk, x: blk(x, "train"), per_op_train)]
        (h, grads, buffers, state), (h_ref, grads_ref, buffers_ref, state_ref) = runs
        assert state == state_ref
        assert h.flags.c_contiguous
        close(h, h_ref)
        for name, ref in buffers_ref.items():
            close(buffers[name], ref)
        for name, ref in grads_ref.items():
            assert grads[name].shape == ref.shape and grads[name].flags.c_contiguous, name
            if name.endswith("bias") and "bn" not in name:
                # a train-mode norm follows each conv, so the exact gradient is
                # zero: both sides read rounding noise, which grows as the
                # norm's batch variance shrinks
                assert np.abs(grads[name]).max() <= 1e-10 and np.abs(ref).max() <= 1e-10, name
            else:
                close(grads[name], ref, name)

    def test_one_node_over_f_adjacency_and_parameters(self, rng):
        block = randomized_block(3, 4, (3, 5), 0.3, rng)
        f = Tensor(rng.normal(size=(2, 3, 5, 4)), requires_grad=True)
        h = block(f, "train")
        assert h._op == "mcr_block" and h._parents[0] is f
        assert h._parents[1]._op == "normalize_adjacency"
        assert h._parents[2:] == tuple(p for _, p in block.named_parameters()
                                       if not _.startswith("adjacency"))

    def test_rate_zero_draws_nothing(self, rng):
        block = randomized_block(3, 4, (3, 5), 0.0, rng)
        f = Tensor(rng.normal(size=(2, 3, 5, 4)))
        state = block.post_dropout.rng.bit_generator.state
        block(f, "train")
        assert block.post_dropout.rng.bit_generator.state == state

    def test_finite_differences_with_dropout(self, rng):
        block = randomized_block(3, 2, (3, 5), 0.3, rng)
        f = Tensor(rng.uniform(-2, 2, (2, 3, 4, 2)), requires_grad=True)
        state = block.post_dropout.rng.bit_generator.state

        def loss(*_):
            block.post_dropout.rng.bit_generator.state = state  # the same masks each time
            return reduce_sum(square(block(f, "train")))

        params = [f] + [p for _, p in block.named_parameters()]
        assert finite_diff_check(loss, params) < 1e-4

    @pytest.mark.parametrize("shape", [(1, 1, 1, 3), (1, 3, 1, 1)])
    def test_fewer_than_two_values_per_norm_channel(self, rng, shape):
        block = MCRBlock(shape[1], shape[3], rng=rng)
        with pytest.raises(ValidationError):
            block(Tensor(rng.normal(size=shape)), "train")

    @pytest.mark.parametrize("shape", [(2, 3, 4), (2, 4, 5, 2), (2, 3, 5, 3)])
    def test_bad_shape(self, rng, shape):
        with pytest.raises(DimensionError):
            MCRBlock(3, 2, rng=rng)(Tensor(np.zeros(shape)), "train")


def close(actual, expected, name=""):
    """Equal to 1e-12 of the largest entry of `expected`, or of 1 where that is
    smaller. Inputs, parameters and the loss's weights are of order 1, so a
    gradient that cancels to near zero, such as A's at C = 1 (A_hat is the
    constant 1) or any upstream of a norm over two values (its output is +-1
    but for eps), is held to 1e-12 absolute."""
    np.testing.assert_allclose(actual, expected, rtol=0,
                               atol=1e-12 * max(np.abs(expected).max(), 1.0), err_msg=name)


class TestGraphPropagate:
    def test_identity(self, rng):
        o = Tensor(rng.normal(size=(2, 3, 7)))
        np.testing.assert_array_equal(graph_propagate(o, Tensor(np.eye(3))).data, o.data)

    def test_uniform_mixing_gives_channel_mean(self, rng):
        o = rng.normal(size=(2, 4, 6))
        out = graph_propagate(Tensor(o), Tensor(np.full((4, 4), 0.25))).data
        expected = np.repeat(o.mean(axis=1, keepdims=True), 4, axis=1)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_shape_preserved(self, rng):
        out = graph_propagate(Tensor(rng.normal(size=(2, 32, 2000))), Tensor(np.eye(32)))
        assert out.shape == (2, 32, 2000)

    def test_channel_mismatch(self, rng):
        with pytest.raises(DimensionError):
            graph_propagate(Tensor(np.zeros((2, 3, 4))), Tensor(np.eye(5)))


class TestMultiscaleFuse:
    def test_zero_branches_sum_to_zero(self, rng):
        branches = []
        for k in (3, 5):
            b = CausalBranch(2, k, 0.0, rng)
            b.kernels.data[...] = 0.0
            b.bias.data[...] = 0.0
            branches.append(b)
        out = multiscale_fuse(Tensor(rng.normal(size=(4, 6, 2))), branches, "eval")
        np.testing.assert_array_equal(out.data, np.zeros((4, 6, 2)))

    def test_shape_preserved_at_paper_dims(self, rng):
        branches = [CausalBranch(200, k, 0.0, rng) for k in (3, 5)]
        out = multiscale_fuse(Tensor(rng.normal(size=(64, 10, 200))), branches, "eval")
        assert out.shape == (64, 10, 200)

    def test_empty_branch_list(self, rng):
        with pytest.raises(ConfigError):
            multiscale_fuse(Tensor(np.zeros((1, 3, 2))), [], "eval")


class TestResidualPostnorm:
    def test_antiresidual_collapses_to_zero(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)))
        z = Tensor(-x.data)
        bn = BatchNorm1d(3, eps=0.0)
        out = residual_postnorm(z, x, bn, Dropout(0.0, rng), "eval")
        np.testing.assert_allclose(out.data, np.zeros((2, 3, 4)), atol=1e-12)

    def test_zero_z_gives_elu_of_x(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)))
        bn = BatchNorm1d(3, eps=0.0)
        out = residual_postnorm(Tensor(np.zeros((2, 3, 4))), x, bn, Dropout(0.0, rng), "eval")
        np.testing.assert_allclose(out.data, elu(x).data, atol=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionError):
            residual_postnorm(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 3, 5))),
                              BatchNorm1d(3), Dropout(0.0, rng), "eval")


class TestMCRBlock:
    def test_zero_collapse_to_elu(self, rng):
        block = zeroed_block(2, 3, 4, 2, rng)
        x = Tensor(rng.normal(size=(2, 3, 4, 2)))
        out = block(x, "eval")
        np.testing.assert_allclose(out.data, elu(x).data, atol=1e-12)

    def test_shape_preserved_at_paper_dims(self, rng):
        block = MCRBlock(32, 200, dropout_rate=0.0, rng=rng)
        out = block(Tensor(rng.normal(size=(2, 32, 10, 200))), "eval")
        assert out.shape == (2, 32, 10, 200)

    def test_views_are_free_and_output_c_contiguous(self, rng):
        block = MCRBlock(3, 4, dropout_rate=0.0, rng=rng)
        f = Tensor(rng.normal(size=(2, 3, 5, 4)))
        assert np.shares_memory(block._temporal_view(f).data, f.data)
        out = block(f, "train")
        assert out.shape == (2, 3, 5, 4) and out.data.flags.c_contiguous

    def test_eval_determinism_bitwise(self, rng):
        block = MCRBlock(4, 3, dropout_rate=0.1, rng=rng)
        x = Tensor(rng.normal(size=(2, 4, 6, 3)))
        a = block(x, "eval").data
        b = block(x, "eval").data
        assert a.tobytes() == b.tobytes()

    def test_temporal_path_causality(self, rng):
        block = MCRBlock(3, 4, dropout_rate=0.0, rng=rng)
        for s in (0, 2, 4):
            a = rng.normal(size=(2, 3, 6, 4))
            b = a.copy()
            b[:, :, s + 1:, :] = rng.normal(size=b[:, :, s + 1:, :].shape)
            # temporal path works on the (B*C, D, S) view; time is the last axis
            out_a = block.temporal_path(Tensor(a), "eval").data
            out_b = block.temporal_path(Tensor(b), "eval").data
            assert np.abs(out_a[:, :, :s + 1] - out_b[:, :, :s + 1]).max() <= 1e-12

    def test_post_graph_window_causality(self, rng):
        # perturbing channel c' at windows > s must not change any channel at
        # windows <= s: graph mixing is purely spatial
        block = MCRBlock(3, 4, dropout_rate=0.0, rng=rng)
        s = 2
        a = rng.normal(size=(1, 3, 6, 4))
        b = a.copy()
        b[0, 1, s + 1:, :] = rng.normal(size=b[0, 1, s + 1:, :].shape)
        out_a = block(Tensor(a), "eval").data
        out_b = block(Tensor(b), "eval").data
        assert np.abs(out_a[:, :, :s + 1, :] - out_b[:, :, :s + 1, :]).max() <= 1e-12

    def test_full_block_gradcheck(self, rng):
        block = MCRBlock(3, 2, kernels=(3, 5), dropout_rate=0.0, rng=rng)
        f = Tensor(rng.uniform(-2, 2, (2, 3, 4, 2)), requires_grad=True)
        params = [f] + [p for _, p in block.named_parameters()]
        assert finite_diff_check(lambda *ps: reduce_sum(square(block(f, "train"))), params) < 1e-4

    def test_invalid_kernel_set(self, rng):
        with pytest.raises(ConfigError):
            MCRBlock(3, 2, kernels=(), rng=rng)
        with pytest.raises(ConfigError):
            MCRBlock(3, 2, kernels=(0, 3), rng=rng)
