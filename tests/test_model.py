"""Model assembly: provider, shapes, parameter groups, ablation wiring."""

import numpy as np
import pytest

from mscgc.errors import ConfigError, DimensionError
from mscgc.kan import KanLayer
from mscgc.layers import LinearLayer
from mscgc.model import ABLATION_VARIANTS, FeatureProvider, ModelConfig, MscgcKanModel
from mscgc.tensor import Tensor, finite_diff_check, softmax_cross_entropy


def tiny_config(**overrides):
    base = dict(C=3, S=4, D=2, P=4, M=3, hidden=8, out_dim=6, dropout=0.0, seed=3)
    base.update(overrides)
    return ModelConfig(**base)


class TestFeatureProvider:
    def test_stub_deterministic_across_builds(self):
        cfg = ModelConfig(C=8, S=10, D=16, P=32, M=4, seed=9)
        x = np.random.default_rng(0).normal(size=(2, 8, 10, 32))
        a = MscgcKanModel(cfg).provider.encode(Tensor(x)).data
        b = MscgcKanModel(cfg).provider.encode(Tensor(x)).data
        assert a.tobytes() == b.tobytes()

    def test_zero_input_zero_bias(self):
        cfg = ModelConfig(C=4, S=3, D=5, P=6, M=2, seed=0)
        provider = MscgcKanModel(cfg).provider
        provider.stub.bias.data[...] = 0.0
        out = provider.encode(Tensor(np.zeros((1, 4, 3, 6))))
        np.testing.assert_array_equal(out.data, np.zeros((1, 4, 3, 5)))

    def test_output_shape(self):
        cfg = ModelConfig(C=8, S=10, D=16, P=32, M=4, seed=1)
        out = MscgcKanModel(cfg).provider.encode(Tensor(np.zeros((2, 8, 10, 32))))
        assert out.shape == (2, 8, 10, 16)

    def test_width_mismatch(self):
        cfg = ModelConfig(C=4, S=3, D=5, P=6, M=2, seed=0)
        with pytest.raises(DimensionError):
            MscgcKanModel(cfg).provider.encode(Tensor(np.zeros((1, 4, 3, 7))))

    def test_file_features_identity(self):
        cfg = ModelConfig(C=4, S=3, D=6, P=6, M=2, provider="file_features", seed=0)
        x = np.random.default_rng(1).normal(size=(2, 4, 3, 6))
        model = MscgcKanModel(cfg)
        np.testing.assert_array_equal(model.provider.encode(Tensor(x)).data, x)
        assert model.parameter_groups()["backbone"] == []

    def test_file_features_requires_matching_widths(self):
        with pytest.raises(ConfigError):
            ModelConfig(C=4, S=3, D=5, P=6, M=2, provider="file_features")

    @pytest.mark.parametrize("field", ["C", "S", "D", "P", "M", "hidden", "out_dim"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_geometry_below_one_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ModelConfig(**{field: value})


    @pytest.mark.parametrize("block", ["mcr", "identity"])
    @pytest.mark.parametrize("kernels", [[], [0], [-3], [1.5, 2.9], ["a"], [True], 3])
    def test_bad_kernels_rejected(self, block, kernels):
        with pytest.raises(ConfigError, match="kernels"):
            ModelConfig(kernels=kernels, block=block)

    def test_kernels_are_checked_not_truncated(self):
        with pytest.raises(ConfigError, match="kernels"):
            ModelConfig(kernels=[1.5, 2.9])
        assert ModelConfig(kernels=[3.0, 5]).kernels == (3, 5)

    @pytest.mark.parametrize("block", ["mcr", "identity"])
    @pytest.mark.parametrize("dropout", [1.0, 1.5, -0.1, float("nan")])
    def test_dropout_outside_unit_interval_rejected(self, block, dropout):
        with pytest.raises(ConfigError, match="dropout"):
            ModelConfig(dropout=dropout, block=block)

    @pytest.mark.parametrize("field,value", [
        ("C", 2.5), ("S", 3.0), ("hidden", True), ("out_dim", "4"), ("harmonics", 2.0),
        ("harmonics", True), ("seed", -1), ("seed", 1.0), ("seed", False),
        ("bn_eps", -1.0), ("bn_eps", 0.0), ("bn_eps", float("inf")), ("bn_eps", float("nan")),
        ("bn_eps", True), ("bn_momentum", 2.0), ("bn_momentum", -0.1), ("bn_momentum", "0.1"),
        ("bn_momentum", float("nan")), ("provider_trainable", "no"), ("provider_trainable", 1),
        ("dropout", "0.1"), ("dropout", True)])
    def test_values_that_would_fail_later_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ModelConfig(**{field: value})

    def test_numpy_integers_count_as_ints(self):
        cfg = ModelConfig(C=np.int64(4), harmonics=np.int32(2), seed=np.uint8(3))
        assert (type(cfg.C), type(cfg.harmonics), type(cfg.seed)) == (int, int, int)
        assert cfg.config_hash() == ModelConfig(C=4, harmonics=2, seed=3).config_hash()

    @pytest.mark.parametrize("overrides,expected", [
        ({}, "4431c4a1622a29f5"),
        (dict(C=4, S=6, D=5, P=7, M=3, hidden=6, out_dim=4, seed=3), "2531a8e2af65a4d6"),
        (dict(harmonics=2, kernels=[2, 7], bn_eps=1, bn_momentum=0, dropout=0,
              provider_trainable=False, block="identity", kan="affine", seed=12),
         "bb962258c059ae7d"),
        (dict(provider="file_features", P=32, harmonics=3, bn_momentum=1.0, bn_eps=0.5),
         "3774cfd2d7a60a15")])
    def test_config_hash_is_stable(self, overrides, expected):
        # checkpoints store this hash, so a valid config must keep it
        assert ModelConfig(**overrides).config_hash() == expected


class TestModelForward:
    def test_low_density_montage_logits(self):
        cfg = ModelConfig(C=32, S=10, D=200, P=200, M=9, hidden=32, out_dim=16, seed=0)
        model = MscgcKanModel(cfg)
        model.set_mode("eval")
        out = model.forward(np.random.default_rng(0).normal(size=(2, 32, 10, 200)))
        assert out.shape == (2, 9)

    def test_high_density_montage_logits(self):
        cfg = ModelConfig(C=62, S=10, D=200, P=200, M=7, hidden=32, out_dim=16, seed=0)
        model = MscgcKanModel(cfg)
        model.set_mode("eval")
        out = model.forward(np.random.default_rng(0).normal(size=(2, 62, 10, 200)))
        assert out.shape == (2, 7)

    def test_eval_bitwise_determinism(self):
        model = MscgcKanModel(tiny_config(dropout=0.1))
        model.set_mode("eval")
        x = np.random.default_rng(2).normal(size=(2, 3, 4, 4))
        assert model.forward(x).data.tobytes() == model.forward(x).data.tobytes()

    def test_stage_name_attached_to_errors(self):
        model = MscgcKanModel(tiny_config())
        with pytest.raises(DimensionError, match="provider"):
            model.forward(np.zeros((2, 3, 4, 9)))

    def test_eval_mode_restores_prior_mode_on_error(self):
        model = MscgcKanModel(tiny_config())
        model.set_mode("train")
        with pytest.raises(DimensionError):
            with model.eval_mode():
                assert model.mode == "eval"
                model.forward(np.zeros((2, 3, 4, 9)))
        assert model.mode == "train"

    def test_harmonics_one_rejected(self):
        # harmonics=1 would build the harmonics=0 layer under another config hash
        with pytest.raises(ConfigError, match="harmonics"):
            tiny_config(harmonics=1)

    def test_flatten_round_trip(self):
        model = MscgcKanModel(tiny_config())
        model.set_mode("eval")
        x = np.random.default_rng(3).normal(size=(2, 3, 4, 4))
        h = model.features(x)
        back = h.reshape(2, 3 * 4 * 2).reshape(2, 3, 4, 2)
        np.testing.assert_array_equal(back.data, h.data)


class TestParameterGroups:
    def test_partition_is_disjoint_and_exhaustive(self):
        model = MscgcKanModel(tiny_config())
        groups = model.parameter_groups()
        grouped = [n for g in groups.values() for n, _ in g]
        trainable = [n for n, p in model.named_parameters() if p.requires_grad]
        assert sorted(grouped) == sorted(trainable)
        assert set(n for n, _ in groups["backbone"]).isdisjoint(n for n, _ in groups["head"])

    def test_frozen_provider_empties_backbone(self):
        model = MscgcKanModel(tiny_config(provider_trainable=False))
        assert model.parameter_groups()["backbone"] == []
        assert len(model.parameter_groups()["head"]) > 0

    def test_backbone_head_rate_ratio(self):
        from mscgc.training import TrainConfig

        cfg = TrainConfig()
        assert cfg.lr_head / cfg.lr_backbone == 5.0


class TestAblationWiring:
    def test_four_variants_produce_valid_logits(self):
        x = np.random.default_rng(4).normal(size=(2, 3, 4, 4))
        assert list(ABLATION_VARIANTS) == [
            "Baseline (CBraMod+Linear)", "+KAN", "+MCRBlock-GCN", "MSCGC-KAN (full model)"]
        for label, (block, kan) in ABLATION_VARIANTS.items():
            model = MscgcKanModel(tiny_config(block=block, kan=kan))
            model.set_mode("eval")
            out = model.forward(x)
            assert out.shape == (2, 3), label
            assert np.isfinite(out.data).all(), label

    def test_variant_components(self):
        baseline = MscgcKanModel(tiny_config(block="identity", kan="affine"))
        assert baseline.block is None
        assert isinstance(baseline.kan, LinearLayer)
        full = MscgcKanModel(tiny_config())
        assert full.block is not None
        assert isinstance(full.kan, KanLayer)


class TestEndToEndGradients:
    def test_full_model_gradcheck(self):
        model = MscgcKanModel(tiny_config())
        model.set_mode("train")
        x = np.random.default_rng(5).uniform(-1.5, 1.5, (2, 3, 4, 4))
        labels = np.array([0, 2])
        params = [p for _, p in model.named_parameters() if p.requires_grad]
        err = finite_diff_check(
            lambda *ps: softmax_cross_entropy(model.forward(x), labels), params)
        assert err < 1e-4


class TestInferBatchSize:
    @pytest.mark.parametrize("batch_size", [-1, 0, 2.5, True])
    @pytest.mark.parametrize("call", ["predict_labels", "evaluate_model", "channel_activation"])
    def test_batch_size_must_be_a_positive_integer(self, call, batch_size):
        from mscgc.interpret import channel_activation
        from mscgc.training import evaluate_model, predict_labels

        model = MscgcKanModel(tiny_config())
        x = np.random.default_rng(6).normal(size=(4, 3, 4, 4))
        labels = np.array([0, 1, 2, 0])
        run = {"predict_labels": lambda: predict_labels(model, x, batch_size),
               "evaluate_model": lambda: evaluate_model(model, x, labels, 3, batch_size),
               "channel_activation": lambda: channel_activation(model, x, labels, batch_size)}
        with pytest.raises(ConfigError, match="batch_size"):
            run[call]()
        assert model.mode == "train"
