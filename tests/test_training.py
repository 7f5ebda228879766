"""Optimizer math, scheduler anchors, clipping, and the training loop."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from mscgc.data import SynthSpec, gen_synthetic, split_dataset
from mscgc.errors import ConfigError, DimensionError, NumericalError, UsageError
from mscgc.graph import EVAL_BLOCK_BYTES
from mscgc.model import ABLATION_VARIANTS, ModelConfig, MscgcKanModel
from mscgc.tensor import Tensor, no_grad
from mscgc.training import (
    ADAMW_BLOCK,
    AdamW,
    DatasetBundle,
    TrainConfig,
    adamw_step,
    clip_gradients,
    cosine_lr,
    evaluate_model,
    predict_labels,
    train_loop,
)


class TestCosineSchedule:
    def test_start_is_head_base_rate(self):
        assert cosine_lr(0, 1000, 5e-4, 1e-6) == 5e-4

    def test_end_is_minimum(self):
        assert abs(cosine_lr(1000, 1000, 5e-4, 1e-6) - 1e-6) < 1e-20

    def test_midpoint(self):
        assert abs(cosine_lr(500, 1000, 5e-4, 1e-6) - (5e-4 + 1e-6) / 2) < 1e-18

    def test_monotone_nonincreasing(self):
        values = [cosine_lr(t, 200, 5e-4, 1e-6) for t in range(201)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_beyond_horizon_clamps_with_warning(self):
        with pytest.warns(UserWarning):
            assert cosine_lr(1001, 1000, 5e-4, 1e-6) == 1e-6

    def test_invalid_horizon(self):
        with pytest.raises(ConfigError):
            cosine_lr(0, 0, 5e-4, 1e-6)


class TestAdamWStep:
    def test_zero_rate_leaves_params(self):
        theta = np.array([1.0, -2.0])
        m, v = np.zeros(2), np.zeros(2)
        adamw_step(theta, np.array([0.5, 0.5]), m, v, 1, 0.0, 0.05)
        np.testing.assert_array_equal(theta, [1.0, -2.0])

    def test_zero_gradient_pure_decay(self):
        theta = np.array([1.0, -2.0, 0.5])
        expected = theta - (0.1 * 0.05) * theta
        m, v = np.zeros(3), np.zeros(3)
        adamw_step(theta, np.zeros(3), m, v, 1, 0.1, 0.05)
        np.testing.assert_array_equal(theta, expected)

    def test_first_step_bias_correction(self):
        theta = np.array([1.0])
        m, v = np.zeros(1), np.zeros(1)
        adamw_step(theta, np.array([1.0]), m, v, 1, 0.1, 0.0)
        assert abs(theta[0] - 0.9) < 1e-8

    def test_non_finite_gradient_aborts(self):
        with pytest.raises(NumericalError):
            adamw_step(np.ones(1), np.array([np.inf]), np.zeros(1), np.zeros(1), 1, 0.1, 0.0)

    def test_decay_skips_biases_and_norm_params(self):
        cfg = TrainConfig()
        p_w = Tensor(np.ones(2), requires_grad=True)
        p_b = Tensor(np.ones(2), requires_grad=True)
        opt = AdamW({"head": [("layer.weight", p_w), ("layer.bias", p_b)]}, cfg)
        decays = {s.name: s.decay for s in opt.slots}
        assert decays["layer.weight"] == cfg.weight_decay
        assert decays["layer.bias"] == 0.0

    def test_step_leaves_every_grad_none(self):
        p_w = Tensor(np.ones(2), requires_grad=True)
        p_b = Tensor(np.ones(2), requires_grad=True)
        p_w.grad = np.array([0.5, -0.5])
        opt = AdamW({"head": [("layer.weight", p_w), ("layer.bias", p_b)]}, TrainConfig())
        opt.step({"head": 1e-3})
        assert p_w.grad is None and p_b.grad is None
        assert p_w.data[0] < 1.0 < p_w.data[1]


def whole_array_adamw(value, grad, m, v, step, lr_t, weight_decay,
                      beta1=0.9, beta2=0.999, eps=1e-8):
    """The whole-array AdamW update that `adamw_step` computes block by block."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    bc2_sqrt = math.sqrt(1.0 - beta2 ** step)
    denom = np.sqrt(v)
    denom += eps * bc2_sqrt
    update = m / denom
    update *= lr_t * bc2_sqrt / (1.0 - beta1 ** step)
    if weight_decay:
        update += (lr_t * weight_decay) * value
    value -= update


class TestBlockedAdamW:
    SHAPES = [(1,), (ADAMW_BLOCK - 1,), (ADAMW_BLOCK,), (ADAMW_BLOCK + 1,),
              (3 * ADAMW_BLOCK + 7,), (40, 33), (7, ADAMW_BLOCK // 3)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_bitwise_equal_to_whole_array_update(self, shape, weight_decay):
        rng = np.random.default_rng(len(shape) + shape[-1])
        blocked = [rng.normal(size=shape), np.zeros(shape), np.zeros(shape)]
        whole = [a.copy() for a in blocked]
        for step in range(1, 6):
            grad = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 2)
            # adamw_step spends the gradient it is handed
            for update, (value, m, v) in ((adamw_step, blocked), (whole_array_adamw, whole)):
                update(value, grad.copy(), m, v, step, 3e-4, weight_decay,
                       beta1=0.85, beta2=0.995, eps=1e-7)
            for a, b in zip(blocked, whole):
                assert a.tobytes() == b.tobytes()

    def test_nan_in_last_block_leaves_state_untouched(self):
        n = 3 * ADAMW_BLOCK + 7
        rng = np.random.default_rng(4)
        state = [rng.normal(size=n), rng.normal(size=n), rng.random(n)]
        before = [a.tobytes() for a in state]
        grad = rng.normal(size=n)
        grad[-1] = np.nan
        with pytest.raises(NumericalError):
            adamw_step(state[0], grad, state[1], state[2], 3, 1e-3, 0.05)
        assert [a.tobytes() for a in state] == before

    @pytest.mark.parametrize("layout", ["value", "m", "v", "grad", "all"])
    def test_non_contiguous_arrays_updated_in_place(self, layout):
        # adamw_step makes no hidden copy: a Fortran-ordered, strided or read-only
        # form of an array is rejected with all four left byte-for-byte untouched,
        # and only the caller's C-contiguous arrays are updated, in place
        rng = np.random.default_rng(5)
        shape = (ADAMW_BLOCK // 64 + 3, 70)
        arrays = {"value": rng.normal(size=shape), "m": rng.normal(size=shape),
                  "v": rng.random(shape), "grad": rng.normal(size=shape)}
        expected = {k: a.copy() for k, a in arrays.items()}
        whole_array_adamw(expected["value"], expected["grad"], expected["m"], expected["v"],
                          2, 1e-3, 0.05)
        layouts = {"fortran": np.asfortranarray, "strided": lambda a: np.repeat(a, 2, 1)[:, ::2],
                   "read-only": lambda a: np.lib.stride_tricks.as_strided(a, writeable=False)}
        for form, make in layouts.items():
            given = {k: make(a) if layout in (k, "all") else a for k, a in arrays.items()}
            before = {k: a.tobytes() for k, a in given.items()}
            with pytest.raises(UsageError, match="C-contiguous"):
                adamw_step(given["value"], given["grad"], given["m"], given["v"], 2, 1e-3, 0.05)
            assert {k: a.tobytes() for k, a in given.items()} == before, form
        adamw_step(arrays["value"], arrays["grad"], arrays["m"], arrays["v"], 2, 1e-3, 0.05)
        for name in ("value", "m", "v"):
            np.testing.assert_array_equal(arrays[name], expected[name])

    def test_strided_view_updated_in_place(self):
        # a strided view of a parameter is rejected and its base left as it was;
        # the caller updates a contiguous copy and writes it back through the view
        rng = np.random.default_rng(6)
        base = rng.normal(size=(50, 60))
        value = base[::2, 1::3]
        expected = value.copy()
        grad, m, v = rng.normal(size=value.shape), np.zeros(value.shape), np.zeros(value.shape)
        whole_array_adamw(expected, grad.copy(), m.copy(), v.copy(), 1, 1e-2, 0.0)
        before = base.copy()
        with pytest.raises(UsageError, match="C-contiguous"):
            adamw_step(value, grad, m, v, 1, 1e-2, 0.0)
        np.testing.assert_array_equal(base, before)
        assert not m.any() and not v.any()
        work = np.ascontiguousarray(value)
        adamw_step(work, grad, m, v, 1, 1e-2, 0.0)
        value[...] = work
        np.testing.assert_array_equal(base[::2, 1::3], expected)
        np.testing.assert_array_equal(base[1::2], before[1::2])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            adamw_step(np.zeros((2, 3)), np.zeros(3), np.zeros((2, 3)), np.zeros((2, 3)),
                       1, 1e-3, 0.0)


class TestClipGradients:
    def _params(self, grads):
        out = []
        for g in grads:
            p = Tensor(np.zeros_like(np.asarray(g, dtype=float)), requires_grad=True)
            p.grad = np.asarray(g, dtype=float)
            out.append(p)
        return out

    def test_below_bound_untouched(self):
        params = self._params([[0.3, 0.4]])
        before = params[0].grad.copy()
        norm = clip_gradients(params, 1.0)
        assert norm == 0.5
        np.testing.assert_array_equal(params[0].grad, before)

    def test_hand_scaling(self):
        params = self._params([[3.0, 4.0]])
        norm = clip_gradients(params, 1.0)
        assert norm == 5.0
        np.testing.assert_allclose(params[0].grad, [0.6, 0.8], atol=1e-15)

    def test_exactly_at_bound_untouched(self):
        params = self._params([[1.0]])
        clip_gradients(params, 1.0)
        np.testing.assert_array_equal(params[0].grad, [1.0])

    def test_global_norm_across_params(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            params = self._params([rng.normal(size=5) * 3 for _ in range(3)])
            clip_gradients(params, 1.0)
            total = math.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
            assert total <= 1.0 + 1e-12

    def test_norm_matches_sum_of_squares(self):
        rng = np.random.default_rng(7)
        grads = [rng.normal(size=(300, 70)), np.asfortranarray(rng.normal(size=(40, 9))),
                 rng.normal(size=5) * 1e-3, rng.normal(size=(2, 3, 4))[:, ::2]]
        expected = math.sqrt(sum(float((g * g).sum()) for g in grads))
        norm = clip_gradients(self._params(grads), 1e9)
        assert abs(norm - expected) <= 1e-12 * expected

    def test_non_finite_aborts(self):
        params = self._params([[np.nan]])
        with pytest.raises(NumericalError):
            clip_gradients(params, 1.0)


def tiny_setup(seed=0, **spec_overrides):
    spec_kwargs = dict(n_subjects=4, trials_per_subject=40, sessions_per_subject=2,
                       C=6, S=8, P=10, M=2, seed=5, communities=2)
    spec_kwargs.update(spec_overrides)
    spec = SynthSpec(**spec_kwargs)
    ds = gen_synthetic(spec)
    split = split_dataset(ds.meta, "within_session", (10, 5, 5))
    bundle = DatasetBundle(ds.samples, ds.labels, split, spec.M)
    cfg = ModelConfig(C=spec.C, S=spec.S, D=8, P=spec.P, M=spec.M,
                      hidden=12, out_dim=8, seed=seed)
    return ds, bundle, MscgcKanModel(cfg)


class TestTrainLoop:
    def test_deterministic_trajectories(self, tmp_path):
        records = []
        for run in range(2):
            _, bundle, model = tiny_setup(seed=1)
            result = train_loop(model, bundle, TrainConfig(epochs=3, batch_size=16, seed=1),
                                tmp_path / f"run{run}.ckpt")
            records.append(result.records)
        assert records[0] == records[1]

    def test_best_epoch_matches_log_argmax(self, tmp_path):
        from mscgc.data import read_checkpoint_header

        _, bundle, model = tiny_setup(seed=2)
        result = train_loop(model, bundle, TrainConfig(epochs=4, batch_size=16, seed=2),
                            tmp_path / "best.ckpt", tmp_path / "log.jsonl")
        kappas = [r["val_kappa"] for r in result.records]
        first_argmax = kappas.index(max(kappas)) + 1
        assert result.best_epoch == first_argmax
        header = read_checkpoint_header(tmp_path / "best.ckpt")
        assert header["epoch"] == first_argmax
        assert header["val_kappa"] == max(kappas)
        logged = [json.loads(line) for line in
                  (tmp_path / "log.jsonl").read_text().splitlines()]
        assert logged == result.records
        assert set(logged[0]) == {"epoch", "train_loss", "val_ba", "val_kappa",
                                  "val_wf1", "lr_head", "lr_backbone"}

    def test_test_split_read_once_at_end(self, tmp_path):
        _, bundle, model = tiny_setup(seed=3)
        train_loop(model, bundle, TrainConfig(epochs=2, batch_size=16, seed=3),
                   tmp_path / "b.ckpt")
        assert bundle.access_log.count("test") == 1
        assert bundle.access_log[-1] == "test"

    def test_loss_collapses_on_separable_data(self, tmp_path):
        # strongly separated class means, linear head: loss must fall below
        # 10% of its initial value
        rng = np.random.default_rng(7)
        n, c, s, p = 240, 4, 8, 6
        labels = np.tile(np.array([0, 1]), n // 2)
        samples = rng.normal(0, 0.1, (n, c, s, p))
        samples[labels == 1] += 2.0
        split = type("Split", (), {"train": np.arange(0, 160),
                                   "val": np.arange(160, 200),
                                   "test": np.arange(200, 240)})()
        bundle = DatasetBundle(samples, labels, split, 2)
        cfg = ModelConfig(C=c, S=s, D=6, P=p, M=2, hidden=8, out_dim=6,
                          block="identity", kan="affine", dropout=0.0, seed=0)
        result = train_loop(MscgcKanModel(cfg), bundle,
                            TrainConfig(epochs=30, batch_size=32, seed=0,
                                        lr_head=5e-3, lr_backbone=1e-3, weight_decay=0.0),
                            tmp_path / "sep.ckpt")
        losses = [r["train_loss"] for r in result.records]
        assert losses[-1] < 0.1 * losses[0]

    def test_empty_split_rejected(self, tmp_path):
        ds, bundle, model = tiny_setup(seed=4)
        bundle.split.train = np.zeros(0, dtype=np.int64)
        with pytest.raises(ConfigError):
            train_loop(model, bundle, TrainConfig(epochs=1, seed=0), tmp_path / "x.ckpt")

    def test_non_finite_loss_aborts_with_context(self, tmp_path):
        ds, bundle, model = tiny_setup(seed=5)
        bundle.samples = bundle.samples.copy()
        bundle.samples[:] = np.nan
        with pytest.raises(NumericalError, match="epoch 1"):
            train_loop(model, bundle, TrainConfig(epochs=1, batch_size=16, seed=0),
                       tmp_path / "x.ckpt")


class TestSplitsReadInPlace:
    """`train_loop` gathers each batch from the bundle's one sample array by
    index; no split is copied whole."""

    def test_same_run_as_on_copied_splits(self, tmp_path):
        # the same training on a bundle whose sample array is the three split
        # copies laid end to end, with contiguous index ranges for splits
        ds, bundle, model = tiny_setup(seed=1)
        split = bundle.split
        order = np.concatenate([split.train, split.val, split.test])
        bounds = np.cumsum([0, len(split.train), len(split.val), len(split.test)])
        copied = type("Split", (), {name: np.arange(lo, hi) for name, lo, hi in
                                    zip(("train", "val", "test"), bounds[:-1], bounds[1:])})()
        copied_bundle = DatasetBundle(ds.samples[order], ds.labels[order], copied, 2)
        cfg = TrainConfig(epochs=3, batch_size=16, seed=1, eval_batch_size=8)
        result = train_loop(model, bundle, cfg, tmp_path / "a.ckpt")
        _, _, fresh = tiny_setup(seed=1)
        reference = train_loop(fresh, copied_bundle, cfg, tmp_path / "b.ckpt")
        assert result.records == reference.records
        assert result.final_train_ba == reference.final_train_ba
        assert result.test_report.kappa == reference.test_report.kappa
        np.testing.assert_array_equal(result.test_report.cm.counts,
                                      reference.test_report.cm.counts)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        assert bundle.access_log == copied_bundle.access_log == ["train", "val", "test"]

    def test_peak_below_one_train_split_copy(self, tmp_path):
        # 2000 train samples of 4 KB each: a copy of the train split is 8 MB,
        # while a batch-64 step and a batch-256 eval pass of this small head
        # need a fraction of that
        rng = np.random.default_rng(0)
        n, c, s, p = 3000, 4, 4, 32
        samples = rng.normal(size=(n, c, s, p))
        labels = np.arange(n) % 2
        split = type("Split", (), {"train": rng.permutation(2000),
                                   "val": np.arange(2000, 2500),
                                   "test": np.arange(2500, 3000)})()
        bundle = DatasetBundle(samples, labels, split, 2)
        model = MscgcKanModel(ModelConfig(C=c, S=s, D=4, P=p, M=2, hidden=8, out_dim=4,
                                          block="identity", seed=0))
        train_copy = samples[split.train].nbytes
        tracemalloc.start()
        try:
            train_loop(model, bundle, TrainConfig(epochs=1, batch_size=64, seed=0),
                       tmp_path / "m.ckpt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < train_copy, f"{peak / 2**20:.1f} MB peak, a train copy is " \
                                  f"{train_copy / 2**20:.1f} MB"


class TestPredictLabels:
    def test_restores_mode_after_error(self):
        _, _, model = tiny_setup()
        model.set_mode("train")
        with pytest.raises(DimensionError):
            predict_labels(model, np.zeros((3, 6, 8, 4)))
        assert model.mode == "train"

    def test_non_finite_logits_name_the_first_such_sample(self):
        model = MscgcKanModel(ModelConfig(C=4, S=6, D=5, P=7, M=3, hidden=6, out_dim=4))
        samples = np.random.default_rng(3).normal(size=(40, 4, 6, 7))
        samples[[23, 31], 1, 2, 3] = np.nan
        with pytest.raises(NumericalError, match="sample 23$"):
            predict_labels(model, samples, batch_size=8)
        with pytest.raises(NumericalError, match="sample 31$"):
            predict_labels(model, samples, batch_size=8, index=np.array([0, 31, 5, 23]))

    def test_index_reads_the_same_rows_as_a_copy(self):
        ds, _, model = tiny_setup()
        index = np.random.default_rng(2).permutation(len(ds.samples))[:37]
        np.testing.assert_array_equal(predict_labels(model, ds.samples, 8, index),
                                      predict_labels(model, ds.samples[index], 8))
        by_index = evaluate_model(model, ds.samples, ds.labels[index], 2, 8, index)
        by_copy = evaluate_model(model, ds.samples[index], ds.labels[index], 2, 8)
        assert (by_index.kappa, by_index.balanced_accuracy) == (by_copy.kappa,
                                                                by_copy.balanced_accuracy)
        assert len(predict_labels(model, ds.samples, 8, index[:0])) == 0


DESK = dict(C=16, S=10, D=32, P=24, M=4, hidden=48, out_dim=24)


class TestEvalWithoutTape:
    """Eval forwards run under `no_grad`: the same logits as a taped forward,
    and nothing of a tape is kept afterwards."""

    @pytest.mark.parametrize("variant", list(ABLATION_VARIANTS))
    @pytest.mark.parametrize("harmonics", [0, 2])
    def test_logits_and_predictions_bitwise_equal_to_taped(self, variant, harmonics):
        block, kan = ABLATION_VARIANTS[variant]
        model = MscgcKanModel(ModelConfig(C=4, S=6, D=5, P=7, M=3, hidden=9, out_dim=6,
                                          block=block, kan=kan, harmonics=harmonics, seed=4))
        rng = np.random.default_rng(5)
        for _, buf in model.named_buffers():
            buf[...] = rng.uniform(0.5, 1.5, buf.shape)  # running stats away from (0, 1)
        x = rng.normal(size=(11, 4, 6, 7))
        with model.eval_mode():
            taped = model.forward(x)
            assert taped.requires_grad
            with no_grad():
                bare = model.forward(x)
        assert not bare.requires_grad
        assert bare.data.tobytes() == taped.data.tobytes()
        np.testing.assert_array_equal(predict_labels(model, x, batch_size=4),
                                      np.argmax(taped.data, axis=1))

    def test_desk_batch_over_several_sample_blocks_bitwise_equal_to_taped(self):
        per_block = max(1, EVAL_BLOCK_BYTES // (16 * 10 * 5 * 32 * 8))
        # several blocks, the last one overlapping its predecessor
        assert 11 > per_block and 11 % per_block
        model = MscgcKanModel(ModelConfig(**DESK, seed=3))
        rng = np.random.default_rng(8)
        for name, p in model.named_parameters():
            if "gamma" in name or "beta" in name:
                p.data[...] = rng.uniform(0.5, 1.5, p.shape)
        for _, buf in model.named_buffers():
            buf[...] = rng.uniform(0.5, 1.5, buf.shape)
        x = rng.normal(size=(11, 16, 10, 24))
        with model.eval_mode():
            taped_block = model.features(x)
            taped = model.head(taped_block)
            with no_grad():
                bare_block = model.features(x)
                bare = model.forward(x)
        assert taped_block.requires_grad and not bare_block.requires_grad
        assert bare_block.data.tobytes() == taped_block.data.tobytes()
        assert bare.data.tobytes() == taped.data.tobytes()

    def test_features_under_no_grad_keep_no_tape(self):
        _, _, model = tiny_setup()
        x = np.random.default_rng(6).normal(size=(4, 6, 8, 10))
        with model.eval_mode(), no_grad():
            h = model.features(x)
        assert h.shape == (4, 6, 8, model.cfg.D)
        assert h._parents == () and h._backward is None and not h.requires_grad

    def test_eval_pass_peak_under_two_and_a_half_activations(self):
        # desk geometry, batch 256: one (B, C, S, D) activation is 10.5 MB; a
        # full-batch im2col for the k=5 branch alone would be 52 MB, and
        # keeping the previous batch's block output until the next forward
        # has replaced it peaks at three activations
        model = MscgcKanModel(ModelConfig(**DESK, seed=0))
        x = np.random.default_rng(7).normal(size=(512, 16, 10, 24))
        activation = 256 * 16 * 10 * 32 * 8
        tracemalloc.start()
        try:
            evaluate_model(model, x, np.arange(512) % 4, 4, batch_size=256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * activation, f"{peak / 2**20:.1f} MB peak in an eval pass"

    def test_eval_pass_holds_about_one_batch(self):
        # desk geometry, batch 256: one (B, C, S, D) activation is 10.5 MB,
        # and a taped pass left the whole tape of its last batch, ~240 MB
        model = MscgcKanModel(ModelConfig(C=16, S=10, D=32, P=24, M=4, hidden=48,
                                          out_dim=24, seed=0))
        x = np.random.default_rng(7).normal(size=(512, 16, 10, 24))
        activation = 256 * 16 * 10 * 32 * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            evaluate_model(model, x, np.arange(512) % 4, 4, batch_size=256)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 1.25 * activation, f"{held / 2**20:.1f} MB held after an eval pass"


class TestTrainConfig:
    def test_defaults_match_reference_settings(self):
        cfg = TrainConfig()
        assert (cfg.epochs, cfg.batch_size) == (30, 64)
        assert cfg.weight_decay == 5e-2
        assert (cfg.lr_backbone, cfg.lr_head, cfg.lr_min) == (1e-4, 5e-4, 1e-6)
        assert cfg.clip_norm == 1.0
        assert (ModelConfig().dropout, ModelConfig().kernels) == (0.1, (3, 5))
        assert cfg.betas == (0.9, 0.999)
        assert cfg.adam_eps == 1e-8

    def test_lr_min_cannot_exceed_base(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr_min=1e-3, lr_backbone=1e-4)

    @pytest.mark.parametrize("field,value", [
        ("epochs", 0), ("batch_size", 0), ("eval_batch_size", 0), ("batch_size", -4),
        ("clip_norm", 0.0), ("clip_norm", -1.0), ("clip_norm", float("nan")),
        ("weight_decay", -1e-3), ("adam_eps", 0.0), ("adam_eps", -1e-8),
        ("seed", -1), ("seed", 1.5), ("seed", 2.0), ("seed", True), ("seed", "3"),
        ("epochs", 2.5), ("epochs", "3"), ("batch_size", True), ("eval_batch_size", 16.0),
        ("clip_norm", "1"), ("weight_decay", None), ("lr_head", float("inf")),
        ("decay_biases", "no"), ("betas", (0.9,)), ("betas", 0.9), ("betas", ("a", "b")),
    ])
    def test_values_that_break_training_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    def test_betas_must_lie_in_unit_interval(self):
        for betas in [(2.0, 0.999), (0.9, 1.0), (-0.1, 0.999)]:
            with pytest.raises(ConfigError, match="betas"):
                TrainConfig(betas=betas)
        # the closed ends of every rule are accepted
        cfg = TrainConfig(epochs=1, batch_size=1, eval_batch_size=1, weight_decay=0.0,
                          betas=(0.0, 0.0))
        assert cfg.betas == (0.0, 0.0)
