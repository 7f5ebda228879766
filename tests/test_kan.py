"""Analytic basis mapping: expansion exactness, capacity, gradients."""

import numpy as np
import pytest

from mscgc.errors import ConfigError, DimensionError
from mscgc.kan import ClassifierHead, KanLayer, basis_expand
from mscgc.tensor import Tensor, finite_diff_check, reduce_sum, square
from mscgc.training import AdamW, TrainConfig


@pytest.fixture
def rng():
    return np.random.default_rng(21)


class TestBasisExpand:
    def test_zero_vector(self):
        out = basis_expand(Tensor(np.zeros((1, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((1, 16)))

    def test_unit_scalar(self):
        out = basis_expand(Tensor([[1.0]]))
        np.testing.assert_allclose(
            out.data, [[1.0, 1.0, 0.8414709848078965, 0.7615941559557649]], atol=1e-15)

    def test_slices_are_exact(self, rng):
        h = rng.normal(size=(3, 8))
        out = basis_expand(Tensor(h)).data
        np.testing.assert_array_equal(out[:, 0:8], h)
        assert np.abs(out[:, 8:16] - h * h).max() <= 1e-15
        np.testing.assert_array_equal(out[:, 16:24], np.sin(h))
        np.testing.assert_array_equal(out[:, 24:32], np.tanh(h))

    def test_harmonic_extension(self, rng):
        h = rng.normal(size=(2, 4))
        out = basis_expand(Tensor(h), harmonics=3).data
        assert out.shape == (2, 4 * 8)
        np.testing.assert_allclose(out[:, 16:20], np.sin(2 * h), atol=1e-15)
        np.testing.assert_allclose(out[:, 20:24], np.cos(2 * h), atol=1e-15)
        np.testing.assert_allclose(out[:, 24:28], np.sin(3 * h), atol=1e-15)


class TestKanLayer:
    def test_hidden_512_expands_to_2048(self, rng):
        layer = KanLayer(8, 4, rng, hidden=512)
        assert layer.out_proj.in_dim == 2048

    def test_zeroed_projection_pipeline(self, rng):
        layer = KanLayer(5, 3, rng, hidden=4)
        layer.in_proj.weight.data[...] = 0.0
        layer.in_proj.bias.data[...] = 0.0
        out = layer(Tensor(rng.normal(size=(2, 5))))
        np.testing.assert_allclose(out.data, np.broadcast_to(layer.out_proj.bias.data, (2, 3)),
                                   atol=1e-15)

    def test_zero_out_proj_gives_bias(self, rng):
        layer = KanLayer(5, 3, rng, hidden=4)
        layer.out_proj.weight.data[...] = 0.0
        out = layer(Tensor(rng.normal(size=(2, 5))))
        np.testing.assert_array_equal(out.data, np.broadcast_to(layer.out_proj.bias.data, (2, 3)))

    def test_batch_shape(self, rng):
        layer = KanLayer(7, 5, rng, hidden=6)
        assert layer(Tensor(rng.normal(size=(2, 7)))).shape == (2, 5)

    def test_dim_mismatch(self, rng):
        layer = KanLayer(7, 5, rng, hidden=6)
        with pytest.raises(DimensionError):
            layer(Tensor(np.zeros((2, 8))))

    def test_invalid_harmonics(self, rng):
        for harmonics in (1, 4):
            with pytest.raises(ConfigError):
                KanLayer(4, 2, rng, hidden=4, harmonics=harmonics)

    def test_gradcheck_through_bases(self, rng):
        layer = KanLayer(5, 3, rng, hidden=4)
        x = Tensor(rng.uniform(-2, 2, (3, 5)))
        params = [p for _, p in layer.named_parameters()]
        assert finite_diff_check(lambda *ps: reduce_sum(square(layer(x))), params) < 1e-4

    def test_nonlinear_capacity_beats_affine(self, rng):
        # y = sin(3x): the analytic bases fit it to near zero while the best
        # affine map (least-squares oracle) stays above 0.4 MSE
        x = np.linspace(-2, 2, 64)[:, None]
        y = np.sin(3 * x)
        design = np.hstack([x, np.ones_like(x)])
        _, residual, *_ = np.linalg.lstsq(design, y, rcond=None)
        affine_mse = float(residual[0]) / len(x)
        assert affine_mse > 0.4

        layer = KanLayer(1, 1, np.random.default_rng(5), hidden=16)
        params = layer.named_parameters()
        opt = AdamW({"head": params},
                    TrainConfig(lr_head=2e-2, weight_decay=0.0, seed=0))
        xt, neg_y = Tensor(x), Tensor(-y)
        for _ in range(2500):
            loss = reduce_sum(square(layer(xt) + neg_y)) * (1.0 / y.size)
            for _, p in params:
                p.zero_grad()
            loss.backward()
            opt.step({"head": 2e-2})
        assert float(loss.data) < 1e-2


class TestClassifierHead:
    def test_identity_weight(self, rng):
        head = ClassifierHead(3, 3, rng)
        head.linear.weight.data[...] = np.eye(3)
        head.linear.bias.data[...] = [1.0, 2.0, 3.0]
        out = head(Tensor([[1.0, 1.0, 1.0]]))
        np.testing.assert_array_equal(out.data, [[2.0, 3.0, 4.0]])

    def test_zero_weight_gives_bias(self, rng):
        head = ClassifierHead(4, 2, rng)
        head.linear.weight.data[...] = 0.0
        out = head(Tensor(rng.normal(size=(3, 4))))
        np.testing.assert_array_equal(out.data, np.broadcast_to(head.linear.bias.data, (3, 2)))

    def test_class_counts(self, rng):
        assert ClassifierHead(8, 9, rng)(Tensor(np.zeros((2, 8)))).shape == (2, 9)
        assert ClassifierHead(8, 7, rng)(Tensor(np.zeros((2, 8)))).shape == (2, 7)
