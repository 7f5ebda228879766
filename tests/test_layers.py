"""Layer behavior: normalization statistics, dropout semantics, causality."""

import numpy as np
import pytest

from mscgc.errors import ConfigError, DimensionError, ValidationError
from mscgc.layers import BatchNorm1d, CausalBranch, Dropout, LinearLayer, layer_norm
from mscgc.tensor import Tensor, elu, finite_diff_check, reduce_sum, square


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def identity_branch(channels, k, rng, bn_eps=0.0):
    """Delta kernel at the newest tap + eval-identity batch norm."""
    branch = CausalBranch(channels, k, 0.0, rng, bn_eps=bn_eps)
    branch.kernels.data[...] = 0.0
    for c in range(channels):
        branch.kernels.data[c, c, k - 1] = 1.0
    branch.bias.data[...] = 0.0
    return branch


class TestLinear:
    def test_affine_map(self, rng):
        layer = LinearLayer(3, 2, rng)
        layer.weight.data[...] = [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]
        layer.bias.data[...] = [10.0, 20.0]
        out = layer(Tensor([[1.0, 2.0, 3.0]]))
        np.testing.assert_array_equal(out.data, [[11.0, 25.0]])

    def test_dim_check(self, rng):
        with pytest.raises(DimensionError):
            LinearLayer(3, 2, rng)(Tensor(np.zeros((4, 5))))


class TestBatchNorm:
    def test_train_statistics(self, rng):
        # eps small next to the batch variance so it cannot mask a stats bug
        bn = BatchNorm1d(3, eps=1e-8)
        x = Tensor(rng.normal(5.0, 2.0, (16, 3, 20)))
        out = bn(x, "train").data
        mean = out.mean(axis=(0, 2))
        var = out.var(axis=(0, 2))
        assert np.abs(mean).max() < 1e-8
        assert np.abs(var - 1.0).max() < 1e-6

    def test_zero_gamma_gives_beta(self, rng):
        bn = BatchNorm1d(2)
        bn.gamma.data[...] = 0.0
        bn.beta.data[...] = [3.0, -1.0]
        out = bn(Tensor(rng.normal(size=(4, 2, 5))), "train").data
        np.testing.assert_array_equal(out[:, 0], np.full((4, 5), 3.0))
        np.testing.assert_array_equal(out[:, 1], np.full((4, 5), -1.0))

    def test_eval_uses_running_stats_only(self, rng):
        bn = BatchNorm1d(2, eps=0.0)
        x = Tensor(rng.normal(size=(4, 2, 5)))
        out = bn(x, "eval").data
        np.testing.assert_allclose(out, x.data, atol=1e-12)

    def test_running_stats_update(self, rng):
        bn = BatchNorm1d(1, momentum=0.1)
        x = Tensor(np.full((2, 1, 5), 4.0) + rng.normal(0, 0.1, (2, 1, 5)))
        batch_mean = x.data.mean()
        batch_var = x.data.var()
        bn(x, "train")
        np.testing.assert_allclose(bn.running_mean, 0.9 * 0.0 + 0.1 * batch_mean, atol=1e-12)
        np.testing.assert_allclose(bn.running_var, 0.9 * 1.0 + 0.1 * batch_var, atol=1e-12)

    def test_train_needs_two_values(self, rng):
        bn = BatchNorm1d(3)
        with pytest.raises(ValidationError):
            bn(Tensor(np.zeros((1, 3, 1))), "train")

    def test_eval_before_any_update_is_defined(self, rng):
        out = BatchNorm1d(2)(Tensor(rng.normal(size=(3, 2, 4))), "eval")
        assert np.isfinite(out.data).all()

    def test_gradcheck_both_modes(self, rng):
        for mode in ("train", "eval"):
            bn = BatchNorm1d(3)
            bn.running_mean, bn.running_var = rng.normal(size=3), rng.uniform(0.5, 2.0, 3)
            x = Tensor(rng.uniform(-2, 2, (4, 3, 5)), requires_grad=True)
            err = finite_diff_check(
                lambda *ps, m=mode: reduce_sum(square(bn(x, m))), [x, bn.gamma, bn.beta])
            assert err < 1e-4, mode


class TestLayerNorm:
    def test_hand_normalization(self):
        gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
        out = layer_norm(Tensor([[1.0, 3.0]]), gamma, beta, eps=0.0)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-12)

    def test_constant_row_gives_beta(self):
        gamma, beta = Tensor(np.ones(3)), Tensor(np.array([5.0, 6.0, 7.0]))
        out = layer_norm(Tensor([[2.0, 2.0, 2.0]]), gamma, beta)
        np.testing.assert_allclose(out.data, [[5.0, 6.0, 7.0]], atol=1e-12)

    def test_zero_mean_rows(self):
        rng = np.random.default_rng(0)
        out = layer_norm(Tensor(rng.normal(size=(5, 8))), Tensor(np.ones(8)), Tensor(np.zeros(8)))
        assert np.abs(out.data.mean(axis=-1)).max() < 1e-12


class TestDropout:
    def test_eval_identity_exact(self, rng):
        x = Tensor(rng.normal(size=(10, 10)))
        assert Dropout(0.5, rng)(x, "eval") is x

    def test_rate_zero_train(self, rng):
        x = Tensor(rng.normal(size=(10, 10)))
        out = Dropout(0.0, rng)(x, "train")
        np.testing.assert_array_equal(out.data, x.data)

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(3)
        x = Tensor(np.ones(100_000))
        out = Dropout(0.5, rng)(x, "train").data
        assert abs(out.mean() - 1.0) < 0.05

    def test_invalid_rate(self, rng):
        with pytest.raises(ConfigError):
            Dropout(1.0, rng)


class TestCausalBranch:
    def test_identity_construction_gives_elu(self, rng):
        branch = identity_branch(3, 3, rng)
        x = Tensor(rng.normal(size=(2, 6, 3)))
        out = branch(x, "eval")
        np.testing.assert_allclose(out.data, elu(x).data, atol=1e-12)

    def test_zero_kernels_give_zero(self, rng):
        branch = CausalBranch(2, 5, 0.0, rng)
        branch.kernels.data[...] = 0.0
        branch.bias.data[...] = 0.0
        out = branch(Tensor(rng.normal(size=(3, 7, 2))), "eval")
        np.testing.assert_array_equal(out.data, np.zeros((3, 7, 2)))

    def test_length_preserved(self, rng):
        branch = CausalBranch(16, 5, 0.0, rng)
        assert branch(Tensor(rng.normal(size=(4, 10, 16))), "eval").shape == (4, 10, 16)

    def test_causality_eval_mode(self, rng):
        branch = CausalBranch(4, 5, 0.0, rng)
        branch.bn.running_mean = rng.normal(size=4)
        branch.bn.running_var = rng.uniform(0.5, 2.0, 4)
        for t in (0, 3, 7):
            a = rng.normal(size=(2, 9, 4))
            b = a.copy()
            b[:, t + 1:] = rng.normal(size=b[:, t + 1:].shape)
            out_a = branch(Tensor(a), "eval").data
            out_b = branch(Tensor(b), "eval").data
            assert np.abs(out_a[:, :t + 1] - out_b[:, :t + 1]).max() <= 1e-12

    def test_gradcheck(self, rng):
        branch = CausalBranch(2, 3, 0.0, rng)
        x = Tensor(rng.uniform(-2, 2, (2, 5, 2)), requires_grad=True)
        params = [x, branch.kernels, branch.bias, branch.bn.gamma, branch.bn.beta]
        assert finite_diff_check(lambda *ps: reduce_sum(square(branch(x, "train"))), params) < 1e-4

    def test_channel_mismatch(self, rng):
        branch = CausalBranch(3, 3, 0.0, rng)
        with pytest.raises(DimensionError):
            branch(Tensor(np.zeros((2, 5, 4))), "eval")

    def test_invalid_mode(self, rng):
        branch = CausalBranch(2, 3, 0.0, rng)
        with pytest.raises(ValidationError):
            branch(Tensor(np.zeros((1, 4, 2))), "predict")
