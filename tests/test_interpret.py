"""Interpretability exports: hubs, saliency, basis importance, activation."""

import csv

import numpy as np
import pytest

from mscgc.errors import DimensionError, NumericalError, UsageError, ValidationError
from mscgc.interpret import (
    channel_activation,
    export_adjacency,
    export_all,
    gradcam_temporal,
    kan_basis_importance,
)
from mscgc.kan import ClassifierHead, KanLayer
from mscgc.model import ModelConfig, MscgcKanModel
from mscgc.tensor import Tensor, backward_hook, grad_enabled, no_grad, reduce_sum
from mscgc.training import evaluate_model


def build_model(**overrides):
    base = dict(C=4, S=6, D=3, P=5, M=3, hidden=8, out_dim=6, dropout=0.0, seed=17)
    base.update(overrides)
    model = MscgcKanModel(ModelConfig(**base))
    model.set_mode("eval")
    return model


def zero_all_params(model):
    for _, p in model.named_parameters():
        p.data[...] = 0.0


@pytest.fixture
def sample_batch():
    rng = np.random.default_rng(3)
    return rng.normal(size=(12, 4, 6, 5)), rng.integers(0, 3, 12)


class TestExportAdjacency:
    def test_zero_adjacency_identity_ranking(self):
        model = build_model()
        model.block.adjacency.A.data[...] = 0.0
        a_hat, hubs = export_adjacency(model)
        np.testing.assert_array_equal(a_hat, np.eye(4))
        np.testing.assert_array_equal(hubs.strengths, np.zeros(4))
        np.testing.assert_array_equal(hubs.ranking, [0, 1, 2, 3])

    def test_strengths_exclude_diagonal(self):
        model = build_model()
        model.block.adjacency.A.data[...] = 0.0
        model.block.adjacency.A.data[0, 1] = 2.0
        a_hat, hubs = export_adjacency(model)
        expected = np.abs(a_hat) - np.diag(np.abs(np.diag(a_hat)))
        np.testing.assert_allclose(hubs.strengths, expected.sum(axis=1), atol=1e-15)
        assert hubs.ranking[0] == 0

    def test_ranking_sorted_descending(self):
        model = build_model()
        model.block.adjacency.A.data[...] = np.random.default_rng(0).normal(size=(4, 4))
        _, hubs = export_adjacency(model)
        ordered = hubs.strengths[hubs.ranking]
        assert all(a >= b for a, b in zip(ordered, ordered[1:]))
        assert len(hubs.strengths) == 4

    def test_identity_block_has_no_graph(self):
        with pytest.raises(UsageError):
            export_adjacency(build_model(block="identity"))


class TestGradcamTemporal:
    def test_zero_classifier_gives_zero_saliency(self, sample_batch):
        model = build_model()
        model.clf.linear.weight.data[...] = 0.0
        sal = gradcam_temporal(model, sample_batch[0][0], 1)
        np.testing.assert_array_equal(sal.temporal, np.zeros(6))
        np.testing.assert_array_equal(sal.per_channel, np.zeros((4, 6)))

    def test_nonnegative_and_shaped(self, sample_batch):
        model = build_model()
        sal = gradcam_temporal(model, sample_batch[0][0], 2)
        assert sal.temporal.shape == (6,)
        assert sal.per_channel.shape == (4, 6)
        assert (sal.temporal >= 0).all() and (sal.per_channel >= 0).all()
        assert np.isfinite(sal.temporal).all()

    def test_target_out_of_range(self, sample_batch):
        with pytest.raises(ValidationError):
            gradcam_temporal(build_model(), sample_batch[0][0], 3)

    def test_depends_only_on_target_logit_path(self, sample_batch):
        # perturbing another class's classifier row must not change the map
        model = build_model()
        before = gradcam_temporal(model, sample_batch[0][0], 0).temporal
        model.clf.linear.weight.data[2, :] += 5.0
        model.clf.linear.bias.data[1] -= 3.0
        after = gradcam_temporal(model, sample_batch[0][0], 0).temporal
        np.testing.assert_array_equal(before, after)

    def test_restores_mode(self, sample_batch):
        model = build_model()
        model.set_mode("train")
        gradcam_temporal(model, sample_batch[0][0], 0)
        assert model.mode == "train"

    @pytest.mark.parametrize("target", [True, False, np.bool_(True), 1.5, 1.0, "1", None])
    def test_non_integer_target_rejected(self, sample_batch, target):
        # True passed the range test and selected every class at once
        with pytest.raises(ValidationError, match="target class"):
            gradcam_temporal(build_model(), sample_batch[0][0], target)

    def test_numpy_integer_target_accepted(self, sample_batch):
        model = build_model()
        for target in (np.int64(2), np.uint8(2)):
            np.testing.assert_array_equal(gradcam_temporal(model, sample_batch[0][0], target).temporal,
                                          gradcam_temporal(model, sample_batch[0][0], 2).temporal)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, sample_batch, value):
        sample = sample_batch[0][0].copy()
        sample[1, 2, 3] = value
        with pytest.raises(ValidationError, match="finite"):
            gradcam_temporal(build_model(), sample, 0)


def head_parameters(model):
    return [p for _, p in model.kan.named_parameters() + model.clf.named_parameters()]


def full_backward_maps(model, sample, target, leaf=False):
    """Both maps from a backward through the whole taped model, head weights
    included, reading the block output's gradient as the replay reaches it;
    with `leaf`, H is made a leaf that requires grad by hand."""
    with model.eval_mode():
        model.zero_grads()
        h = model.features(sample[None])
        if leaf:
            h = Tensor(h.data, requires_grad=True)
        logits = model.head(h)
        mask = np.zeros(logits.shape)
        mask[0, target] = 1.0
        h_grad = []

        def keep_h_grad(node, grad):
            if node is h:
                h_grad.append(grad.copy())
            return grad

        with backward_hook(keep_h_grad):
            reduce_sum(logits * Tensor(mask)).backward()
    [g] = h_grad
    alpha = g[0].mean(axis=1)
    act = h.data[0]

    def rescale(cam):
        cam = np.maximum(cam, 0.0)
        cam = cam - cam.min()
        return cam / cam.max() if cam.max() > 0 else cam

    return (rescale(np.einsum("cd,csd->s", alpha, act)),
            rescale(np.einsum("cd,csd->cs", alpha, act)))


GEOMETRIES = {
    "file": dict(C=4, S=6, D=3, P=5, M=3, hidden=8, out_dim=6),
    "file_affine": dict(C=4, S=6, D=3, P=5, M=3, hidden=8, out_dim=6, kan="affine"),
    "cli": dict(C=6, S=8, D=8, P=10, M=2, hidden=12, out_dim=8),
    "desk": dict(C=16, S=10, D=32, P=24, M=4, hidden=48, out_dim=24),
    "paper_head_identity": dict(C=16, S=10, D=32, P=24, M=4, hidden=512, out_dim=64,
                                block="identity"),
    "paper_head_mcr": dict(C=16, S=10, D=32, P=24, M=4, hidden=512, out_dim=64),
}


class TestSaliencyThroughFrozenHead:
    """Saliency back-propagates through the head without building its
    weight gradients, and gives the maps of a full backward bit for bit."""

    @pytest.mark.parametrize("geometry", list(GEOMETRIES))
    def test_maps_bitwise_equal_to_full_backward(self, geometry):
        g = GEOMETRIES[geometry]
        model = MscgcKanModel(ModelConfig(seed=5, **g))
        rng = np.random.default_rng(9)
        for _, buf in model.named_buffers():
            buf[...] = rng.uniform(0.5, 1.5, buf.shape)  # running stats away from (0, 1)
        x = rng.normal(size=(4, g["C"], g["S"], g["P"]))
        for i, sample in enumerate(x):
            target = i % g["M"]
            sal = gradcam_temporal(model, sample, target)
            temporal, per_channel = full_backward_maps(model, sample, target)
            assert sal.temporal.tobytes() == temporal.tobytes()
            assert sal.per_channel.tobytes() == per_channel.tobytes()

    @pytest.mark.parametrize("kan", ["kan", "affine"])
    def test_head_builds_no_gradient_and_keeps_its_flags(self, sample_batch, kan, monkeypatch):
        model = build_model(kan=kan)
        received = []
        head = model.head
        monkeypatch.setattr(model, "head", lambda h: received.append(h) or head(h))
        seen = []
        with backward_hook(lambda node, grad: seen.append(node) or grad):
            sal = gradcam_temporal(model, sample_batch[0][0], 1)
        assert seen == []  # saliency's own hook replaces the caller's inside it
        assert all(p.grad is None and p.requires_grad for p in head_parameters(model))
        # the gradient still reaches the block output, which keeps none of it
        [h] = received
        assert h.requires_grad and h.grad is None
        assert sal.per_channel.any()

    def test_flags_restored_after_an_error_inside_the_scope(self, sample_batch):
        model = build_model()
        wrong_p = sample_batch[0][0][:, :, :4]  # P=4 for a P=5 provider
        with pytest.raises(DimensionError):
            gradcam_temporal(model, wrong_p, 0)
        assert all(p.requires_grad for p in head_parameters(model))
        with pytest.raises(RuntimeError, match="inside"):
            with model.frozen_head():
                assert not any(p.requires_grad for p in head_parameters(model))
                raise RuntimeError("inside")
        assert all(p.requires_grad for p in head_parameters(model))

    def test_parameter_frozen_beforehand_stays_frozen(self, sample_batch):
        model = build_model()
        model.kan.ln_gamma.requires_grad = False
        model.clf.linear.bias.requires_grad = False
        frozen = {id(model.kan.ln_gamma), id(model.clf.linear.bias)}
        gradcam_temporal(model, sample_batch[0][0], 2)
        for p in head_parameters(model):
            assert p.grad is None and p.requires_grad == (id(p) not in frozen)
        with pytest.raises(DimensionError):
            gradcam_temporal(model, sample_batch[0][0][:, :, :4], 2)
        for p in head_parameters(model):
            assert p.requires_grad == (id(p) not in frozen)


PROVIDER_ONLY = {
    "file_features": dict(provider="file_features"),
    "frozen_stub": dict(provider_trainable=False),
}


class TestSaliencyState:
    """Saliency reads H from `features` and leaves the model as it found it."""

    @pytest.mark.parametrize("case", list(PROVIDER_ONLY))
    def test_provider_only_model_gets_the_maps_of_a_leaf_h(self, case):
        # no trainable parameter upstream of H, so no tape reaches it
        model = MscgcKanModel(ModelConfig(C=4, S=6, D=5, P=5, M=3, block="identity",
                                          **PROVIDER_ONLY[case]))
        x = np.random.default_rng(4).normal(size=(3, 4, 6, 5))
        maps = [gradcam_temporal(model, sample, i % 3) for i, sample in enumerate(x)]
        # a temporal map is all zero where no window's sum is positive
        assert any(sal.temporal.any() for sal in maps)
        for i, (sample, sal) in enumerate(zip(x, maps)):
            temporal, per_channel = full_backward_maps(model, sample, i % 3, leaf=True)
            assert sal.per_channel.any()
            assert sal.temporal.tobytes() == temporal.tobytes()
            assert sal.per_channel.tobytes() == per_channel.tobytes()

    def test_caller_gradients_kept_also_on_error(self, sample_batch):
        model = build_model()
        params = [p for _, p in model.named_parameters()]
        rng = np.random.default_rng(6)
        for i, p in enumerate(params):
            p.grad = rng.normal(size=p.shape) if i % 2 else None
        held = [(p.grad, None if p.grad is None else p.grad.tobytes()) for p in params]
        sample = sample_batch[0][0]
        gradcam_temporal(model, sample, 1)
        with pytest.raises(DimensionError, match="flatten"):
            # S=7 passes provider and block, and fails at the flatten
            gradcam_temporal(model, np.concatenate([sample, sample[:, :1]], axis=1), 1)
        for p, (grad, raw) in zip(params, held):
            assert p.grad is grad
            assert grad is None or grad.tobytes() == raw

    def test_exports_of_h_run_no_head(self, sample_batch, monkeypatch):
        model = build_model()
        activation, _ = channel_activation(model, *sample_batch)
        _, hists = kan_basis_importance(model, probe_batch=sample_batch[0])

        def refuse(*_):
            raise AssertionError("the head ran")

        monkeypatch.setattr(KanLayer, "__call__", refuse)
        monkeypatch.setattr(ClassifierHead, "__call__", refuse)
        np.testing.assert_array_equal(channel_activation(model, *sample_batch)[0], activation)
        _, hists_again = kan_basis_importance(model, probe_batch=sample_batch[0])
        for name, (counts, edges) in hists.items():
            np.testing.assert_array_equal(hists_again[name][0], counts)
            np.testing.assert_array_equal(hists_again[name][1], edges)

    def test_model_holds_no_tensor_between_calls(self, sample_batch):
        model = build_model()
        x, y = sample_batch
        for call in (lambda: model.forward(x),
                     lambda: evaluate_model(model, x, y, 3, batch_size=5),
                     lambda: gradcam_temporal(model, x[0], 0)):
            call()
            assert not [k for k, v in vars(model).items() if isinstance(v, Tensor)]


class TestKanBasisImportance:
    def test_zero_projection(self):
        model = build_model()
        model.kan.out_proj.weight.data[...] = 0.0
        importance, _ = kan_basis_importance(model)
        np.testing.assert_array_equal(importance, np.zeros(4))

    def test_constant_magnitude_weights(self):
        model = build_model()
        model.kan.out_proj.weight.data[...] = -0.5
        importance, _ = kan_basis_importance(model)
        np.testing.assert_allclose(importance, np.full(4, 0.5), atol=1e-15)

    def test_length_exactly_four(self, sample_batch):
        importance, hists = kan_basis_importance(build_model(), probe_batch=sample_batch[0])
        assert importance.shape == (4,)
        assert set(hists) == {"h", "h2", "sin", "tanh"}

    def test_hidden_permutation_equivariance(self):
        model = build_model()
        importance_before, _ = kan_basis_importance(model)
        kan = model.kan
        perm = np.random.default_rng(1).permutation(kan.hidden)
        kan.in_proj.weight.data[...] = kan.in_proj.weight.data[perm]
        kan.in_proj.bias.data[...] = kan.in_proj.bias.data[perm]
        kan.ln_gamma.data[...] = kan.ln_gamma.data[perm]
        kan.ln_beta.data[...] = kan.ln_beta.data[perm]
        for g in range(4):
            block = slice(g * kan.hidden, (g + 1) * kan.hidden)
            kan.out_proj.weight.data[:, block] = kan.out_proj.weight.data[:, block][:, perm]
        importance_after, _ = kan_basis_importance(model)
        np.testing.assert_allclose(importance_before, importance_after, atol=1e-15)

    def test_harmonic_groups_follow_the_layer(self, sample_batch, tmp_path):
        model = build_model(harmonics=2)
        names = ["h", "h2", "sin", "tanh", "sin2", "cos2"]
        importance, hists = kan_basis_importance(model, probe_batch=sample_batch[0])
        assert importance.shape == (6,)
        assert list(hists) == names
        with no_grad():
            h = model.kan.hidden_activations(
                model.features(sample_batch[0]).reshape(12, 4 * 6 * 3)).data
        counts, _ = hists["cos2"]
        np.testing.assert_array_equal(counts, np.histogram(np.cos(2 * h), bins=20)[0])
        export_all(model, *sample_batch, tmp_path, max_saliency_samples=1)
        with open(tmp_path / "kan_importance.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [r[0] for r in rows] == names

    def test_non_finite_probe_sample_named(self, sample_batch):
        x = sample_batch[0].copy()
        x[4, 0, 0, 0] = np.inf
        with pytest.raises(NumericalError, match="non-finite features for sample 4$"):
            kan_basis_importance(build_model(), probe_batch=x)

    def test_affine_mapping_rejected(self):
        with pytest.raises(UsageError):
            kan_basis_importance(build_model(kan="affine"))


class TestChannelActivation:
    def test_zero_model_gives_zero(self, sample_batch):
        model = build_model()
        zero_all_params(model)
        activation, empty = channel_activation(model, *sample_batch)
        np.testing.assert_array_equal(activation, np.zeros((3, 4)))

    def test_single_sample_hand_reduction(self, sample_batch):
        model = build_model()
        x = sample_batch[0][:1]
        activation, _ = channel_activation(model, x, np.array([2]))
        expected = np.abs(model.features(x).data[0]).mean(axis=(1, 2))
        np.testing.assert_allclose(activation[2], expected, atol=1e-12)
        np.testing.assert_array_equal(activation[0], np.zeros(4))

    def test_shape_and_empty_class_warning(self, sample_batch):
        model = build_model()
        labels = np.zeros(12, dtype=np.int64)  # classes 1, 2 empty
        with pytest.warns(UserWarning):
            activation, empty = channel_activation(model, sample_batch[0], labels)
        assert activation.shape == (3, 4)
        assert empty == [1, 2]

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_label_outside_classes_rejected(self, sample_batch, bad):
        labels = sample_batch[1].copy()
        labels[5] = bad
        with pytest.raises(ValidationError):
            channel_activation(build_model(), sample_batch[0], labels)

    @pytest.mark.parametrize("labels", [np.zeros(11, dtype=np.int64), np.full(12, 1.0)])
    def test_labels_not_one_integer_per_sample_rejected(self, sample_batch, labels):
        with pytest.raises(ValidationError):
            channel_activation(build_model(), sample_batch[0], labels)

    def test_non_finite_sample_named_by_its_row(self, sample_batch):
        x, y = sample_batch
        x = x.copy()
        x[[7, 9], 2, 3, 1] = np.nan
        model = build_model()
        model.set_mode("train")
        with pytest.raises(NumericalError, match="non-finite features for sample 7$"):
            channel_activation(model, x, y, batch_size=5)
        assert model.mode == "train" and grad_enabled()

    def test_sums_equal_a_loop_over_samples(self, sample_batch):
        model = build_model()
        x, y = sample_batch
        activation, _ = channel_activation(model, x, y, batch_size=5)
        sums, counts = np.zeros((3, 4)), np.zeros(3)
        with no_grad():
            for start in range(0, 12, 5):
                h = model.features(x[start:start + 5]).data
                for row, cls in zip(np.abs(h).mean(axis=(2, 3)), y[start:start + 5]):
                    sums[cls] += row
                    counts[cls] += 1
        assert activation.tobytes() == (sums / counts[:, None]).tobytes()


class TestExportAll:
    def test_failure_writes_no_file(self, tmp_path, sample_batch):
        # the basis table fails after adjacency, hubs and saliency are computed
        with pytest.raises(UsageError):
            export_all(build_model(kan="affine"), *sample_batch, tmp_path, max_saliency_samples=2)
        assert list(tmp_path.iterdir()) == []

    def test_writes_all_five_files(self, tmp_path, sample_batch):
        files = export_all(build_model(), *sample_batch, tmp_path, max_saliency_samples=4)
        assert files == ["adjacency.csv", "hubs.csv", "saliency.csv",
                         "kan_importance.csv", "activation.csv"]
        for name in files:
            assert (tmp_path / name).exists()
        with open(tmp_path / "hubs.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["rank", "channel", "strength"]
        assert len(rows) == 1 + 4
        with open(tmp_path / "saliency.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert {int(r[0]) for r in rows} == {0, 1, 2, 3}
        with open(tmp_path / "adjacency.csv") as fh:
            matrix = list(csv.reader(fh))
        assert len(matrix) == 4 and len(matrix[0]) == 4
