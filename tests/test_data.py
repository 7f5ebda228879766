"""Synthetic generation, split protocols, tensor files, checkpoints."""

import json
import math
import os
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscgc.data import (
    _DTYPES,
    CKPT_MAGIC,
    MSTF_MAGIC,
    SynthSpec,
    build_model_from_checkpoint,
    gen_synthetic,
    load_checkpoint,
    load_dataset,
    read_checkpoint_header,
    read_tensor,
    save_checkpoint,
    save_dataset,
    split_dataset,
    write_tensor,
)
from mscgc.errors import CompatibilityError, ConfigError, FormatError, MscgcError
from mscgc.model import ModelConfig, MscgcKanModel
from mscgc.tensor import Tensor, softmax_cross_entropy
from mscgc.training import AdamW, TrainConfig


def small_spec(**overrides):
    base = dict(n_subjects=3, trials_per_subject=40, sessions_per_subject=2,
                C=6, S=8, P=10, M=4, seed=13, communities=2)
    base.update(overrides)
    return SynthSpec(**base)


class TestSynthSpec:
    def test_community_count_bound(self):
        with pytest.raises(ConfigError):
            small_spec(C=2, communities=3)

    def test_odd_classes_with_nonlinearity(self):
        with pytest.raises(ConfigError):
            small_spec(M=3)

    def test_window_count_bound(self):
        with pytest.raises(ConfigError):
            small_spec(S=4)

    def test_session_divisibility(self):
        with pytest.raises(ConfigError):
            small_spec(trials_per_subject=41)

    @pytest.mark.parametrize("field", ["n_subjects", "trials_per_subject",
                                       "sessions_per_subject", "C", "S", "P", "M"])
    def test_count_fields_must_be_positive_integers(self, field):
        for value in (0, -1, "x", 2.5, None):
            with pytest.raises(ConfigError, match=field):
                small_spec(**{field: value})


class TestGenerator:
    def test_seeded_generation_identical(self):
        a = gen_synthetic(small_spec())
        b = gen_synthetic(small_spec())
        assert a.samples.tobytes() == b.samples.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
        assert a.meta == b.meta

    def test_per_subject_balance(self):
        ds = gen_synthetic(small_spec(n_subjects=4, trials_per_subject=100,
                                      sessions_per_subject=4))
        subjects = np.asarray(ds.meta["subjects"])
        for subject in np.unique(subjects):
            counts = np.bincount(ds.labels[subjects == subject], minlength=4)
            assert counts.max() - counts.min() <= 1
            assert counts.sum() == 100

    def test_degenerate_noise_single_class(self):
        spec = small_spec(M=1, nonlinearity=False, noise_scale=0.0,
                          community_scale=0.0, sign_flips=False)
        ds = gen_synthetic(spec)
        onsets = np.asarray(ds.meta["onsets"])
        for onset in np.unique(onsets):
            group = ds.samples[onsets == onset]
            assert np.abs(group - group[0]).max() == 0.0

    def test_class_means_carry_no_signal(self):
        ds = gen_synthetic(small_spec(n_subjects=20))
        grand = ds.samples.mean(axis=0)
        for m in range(4):
            class_mean = ds.samples[ds.labels == m].mean(axis=0)
            # residuals behave like sampling noise of the per-class subset
            n_class = (ds.labels == m).sum()
            sigma = ds.samples.std() / np.sqrt(n_class)
            assert np.abs(class_mean - grand).max() < 6 * sigma

    def test_shapes_and_meta(self):
        spec = small_spec()
        ds = gen_synthetic(spec)
        assert ds.samples.shape == (120, 6, 8, 10)
        assert ds.meta["shapes"]["samples"] == [120, 6, 8, 10]
        assert len(ds.meta["onsets"]) == 120
        assert ds.meta["community_map"] == [0, 0, 0, 1, 1, 1]


class TestSplits:
    def test_subject_wise_contiguous_ranges(self):
        meta = {"subjects": list(np.repeat(np.arange(1, 124), 2)),
                "sessions": [0] * 246, "trials": list(np.tile([0, 1], 123))}
        split = split_dataset(meta, "subject_wise", (80, 20, 23))
        subjects = np.asarray(meta["subjects"])
        assert set(subjects[split.train]) == set(range(1, 81))
        assert set(subjects[split.val]) == set(range(81, 101))
        assert set(subjects[split.test]) == set(range(101, 124))

    def test_within_session_trial_order(self):
        ds = gen_synthetic(small_spec())
        split = split_dataset(ds.meta, "within_session", (10, 5, 5))
        trials = np.asarray(ds.meta["trials"])
        assert set(trials[split.train]) == set(range(10))
        assert set(trials[split.val]) == set(range(10, 15))
        assert set(trials[split.test]) == set(range(15, 20))

    def test_partition_property(self):
        ds = gen_synthetic(small_spec())
        split = split_dataset(ds.meta, "within_session", (10, 5, 5))
        joined = np.concatenate([split.train, split.val, split.test])
        assert len(joined) == len(set(joined.tolist())) == 120

    def test_no_subject_overlap_in_subject_wise(self):
        ds = gen_synthetic(small_spec())
        split = split_dataset(ds.meta, "subject_wise", (1, 1, 1))
        subjects = np.asarray(ds.meta["subjects"])
        groups = [set(subjects[split.train]), set(subjects[split.val]), set(subjects[split.test])]
        assert groups[0].isdisjoint(groups[1]) and groups[1].isdisjoint(groups[2])

    def test_bad_ratio_sum(self):
        ds = gen_synthetic(small_spec())
        with pytest.raises(ConfigError):
            split_dataset(ds.meta, "within_session", (10, 5, 6))
        with pytest.raises(ConfigError):
            split_dataset(ds.meta, "subject_wise", (2, 2, 2))

    def test_unknown_protocol(self):
        ds = gen_synthetic(small_spec())
        with pytest.raises(ConfigError):
            split_dataset(ds.meta, "leave_one_out", (1, 1, 1))

    @pytest.mark.parametrize("ratios", [["a", 5, 5], [[10], 5, 5], [10.5, 5, 5], [10, 5],
                                        [10, 5, 5, 0], [True, 5, 5], [10, -5, 15],
                                        [float("nan"), 5, 5], "10,5,5", None])
    def test_ratios_must_be_three_whole_numbers(self, ratios):
        ds = gen_synthetic(small_spec())
        with pytest.raises(ConfigError, match="ratios"):
            split_dataset(ds.meta, "within_session", ratios)

    def test_integral_float_ratios_count(self):
        ds = gen_synthetic(small_spec())
        a = split_dataset(ds.meta, "within_session", [10.0, 5.0, 5.0])
        b = split_dataset(ds.meta, "within_session", (10, 5, 5))
        for part in ("train", "val", "test"):
            np.testing.assert_array_equal(getattr(a, part), getattr(b, part))


class TestTensorFiles:
    def test_scalar_round_trip(self, tmp_path):
        write_tensor(tmp_path / "s.mstf", np.float64(3.25))
        assert read_tensor(tmp_path / "s.mstf") == 3.25

    def test_known_payload_size(self, tmp_path):
        path = tmp_path / "t.mstf"
        write_tensor(path, np.arange(6.0).reshape(2, 3), name="probe")
        raw = path.read_bytes()
        magic, header, payload = raw.split(b"\n", 2)
        assert magic == b"MSTF1"
        assert json.loads(header) == {"dtype": "f8", "name": "probe", "shape": [2, 3]}
        assert len(payload) == 48

    def test_bad_magic_names_expected(self, tmp_path):
        path = tmp_path / "bad.mstf"
        path.write_bytes(b"NOPE!\n{}\n")
        with pytest.raises(FormatError, match="MSTF1"):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.mstf"
        write_tensor(path, np.arange(6.0).reshape(2, 3))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="offset"):
            read_tensor(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "t.mstf"
        write_tensor(path, np.arange(6.0).reshape(2, 3))
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(FormatError, match="payload length 56 != expected 48"):
            read_tensor(path)

    def test_int_payload(self, tmp_path):
        path = tmp_path / "labels.mstf"
        write_tensor(path, np.array([3, 1, 2]), dtype="i8")
        np.testing.assert_array_equal(read_tensor(path), [3, 1, 2])

    @given(seed=st.integers(0, 10_000), ndim=st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_lossless(self, tmp_path_factory, seed, ndim):
        rng = np.random.default_rng(seed)
        shape = tuple(int(rng.integers(1, 5)) for _ in range(ndim))
        arr = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8)
        path = tmp_path_factory.mktemp("mstf") / "x.mstf"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.tobytes() == arr.tobytes()
        assert back.shape == arr.shape

    def test_dataset_directory_round_trip(self, tmp_path):
        ds = gen_synthetic(small_spec())
        save_dataset(tmp_path / "data", ds)
        back = load_dataset(tmp_path / "data")
        assert back.samples.tobytes() == ds.samples.tobytes()
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.meta == ds.meta


class TestDatasetMeta:
    """A damaged meta.json ends in FormatError, never in KeyError or a numpy error."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("meta")
        save_dataset(root / "data", gen_synthetic(small_spec()))
        return root / "data"

    def damaged(self, saved, tmp_path, text):
        for name in ("samples.mstf", "labels.mstf"):
            (tmp_path / name).write_bytes((saved / name).read_bytes())
        (tmp_path / "meta.json").write_text(text, encoding="utf-8")
        return tmp_path

    def edited(self, saved, tmp_path, edit):
        meta = json.loads((saved / "meta.json").read_text(encoding="utf-8"))
        edit(meta)
        return self.damaged(saved, tmp_path, json.dumps(meta))

    @pytest.mark.parametrize("text", ["{", "", "not json", "[1, 2]", "null"])
    def test_unparseable_or_not_an_object(self, saved, tmp_path, text):
        with pytest.raises(FormatError, match="meta.json"):
            load_dataset(self.damaged(saved, tmp_path, text))

    @pytest.mark.parametrize("key", ["subjects", "sessions", "trials", "C", "S", "P", "M"])
    def test_missing_key(self, saved, tmp_path, key):
        with pytest.raises(FormatError, match=key):
            load_dataset(self.edited(saved, tmp_path, lambda meta: meta.pop(key)))

    @pytest.mark.parametrize("key", ["subjects", "sessions", "trials"])
    @pytest.mark.parametrize("bad", [7, "1,2", [1.5], [True], [[1]], None])
    def test_not_a_list_of_ints(self, saved, tmp_path, key, bad):
        def edit(meta):
            meta[key] = bad if not isinstance(bad, list) else bad + meta[key][1:]
        with pytest.raises(FormatError, match=key):
            load_dataset(self.edited(saved, tmp_path, edit))

    @pytest.mark.parametrize("key", ["subjects", "sessions", "trials"])
    @pytest.mark.parametrize("change", [-1, 1])
    def test_length_differs_from_sample_count(self, saved, tmp_path, key, change):
        def edit(meta):
            meta[key] = meta[key][:-1] if change < 0 else meta[key] + [1]
        with pytest.raises(FormatError, match=key):
            load_dataset(self.edited(saved, tmp_path, edit))

    @pytest.mark.parametrize("bad", [0, 2.5, "6", None])
    def test_bad_geometry(self, saved, tmp_path, bad):
        with pytest.raises(FormatError, match="C"):
            load_dataset(self.edited(saved, tmp_path, lambda meta: meta.update(C=bad)))


class TestDatasetTensors:
    """samples.mstf and labels.mstf must agree with meta.json: (N, C, S, P)
    samples and one integer label in [0, M) per sample."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("tensors")
        save_dataset(root / "data", gen_synthetic(small_spec()))
        return root / "data"

    def with_tensor(self, saved, tmp_path, name, array, dtype):
        for other in ("samples.mstf", "labels.mstf", "meta.json"):
            (tmp_path / other).write_bytes((saved / other).read_bytes())
        write_tensor(tmp_path / name, array, name=name.split(".")[0], dtype=dtype)
        return tmp_path

    @pytest.mark.parametrize("reshape", [
        lambda s: s[:, :, :-1], lambda s: s[:, :-1], lambda s: s[..., :-1],
        lambda s: s[:, :, :, :, None], lambda s: s[0], lambda s: s.reshape(-1)])
    def test_samples_must_match_meta_geometry(self, saved, tmp_path, reshape):
        samples = reshape(read_tensor(saved / "samples.mstf"))
        with pytest.raises(FormatError, match="samples.mstf"):
            load_dataset(self.with_tensor(saved, tmp_path, "samples.mstf", samples, "f8"))

    @pytest.mark.parametrize("edit,dtype", [
        (lambda y: y[:50], "i8"), (lambda y: np.append(y, 0), "i8"), (lambda y: y[:, None], "i8"),
        (lambda y: np.where(np.arange(y.size) == 3, -1, y), "i8"),
        (lambda y: np.where(np.arange(y.size) == 3, 4, y), "i8"),
        (lambda y: y + 0.5, "f8"), (lambda y: np.where(np.arange(y.size) == 0, np.nan, y), "f8"),
        (lambda y: np.where(np.arange(y.size) == 0, np.inf, y), "f4")])
    def test_labels_must_be_one_class_per_sample(self, saved, tmp_path, edit, dtype):
        labels = edit(read_tensor(saved / "labels.mstf"))
        with pytest.raises(FormatError, match="labels.mstf"):
            load_dataset(self.with_tensor(saved, tmp_path, "labels.mstf", labels, dtype))

    def test_integral_float_labels_load_as_ints(self, saved, tmp_path):
        labels = read_tensor(saved / "labels.mstf")
        ds = load_dataset(self.with_tensor(saved, tmp_path, "labels.mstf", labels, "f8"))
        assert ds.labels.dtype == np.int64
        np.testing.assert_array_equal(ds.labels, labels)


class TestCheckpoints:
    def _model(self, seed=0, **overrides):
        base = dict(C=4, S=6, D=5, P=7, M=3, hidden=6, out_dim=4, seed=seed)
        base.update(overrides)
        return MscgcKanModel(ModelConfig(**base))

    def test_forward_bitwise_after_reload(self, tmp_path):
        model = self._model()
        x = np.random.default_rng(0).normal(size=(2, 4, 6, 7))
        model.set_mode("train")
        model.forward(x)  # move the running statistics off their init
        model.set_mode("eval")
        before = model.forward(x).data
        save_checkpoint(tmp_path / "m.ckpt", model, epoch=3, val_kappa=0.5)
        fresh = self._model()
        load_checkpoint(tmp_path / "m.ckpt", fresh)
        fresh.set_mode("eval")
        after = fresh.forward(x).data
        assert before.tobytes() == after.tobytes()

    def test_mismatched_channels_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "m.ckpt", self._model(), epoch=1, val_kappa=0.0)
        with pytest.raises(CompatibilityError):
            load_checkpoint(tmp_path / "m.ckpt", self._model(C=5))

    def test_header_exposes_selection_kappa(self, tmp_path):
        save_checkpoint(tmp_path / "m.ckpt", self._model(), epoch=7, val_kappa=0.4375)
        header = read_checkpoint_header(tmp_path / "m.ckpt")
        assert header["epoch"] == 7
        assert header["val_kappa"] == 0.4375
        assert header["config"]["C"] == 4

    def test_optimizer_state_round_trip(self, tmp_path):
        model = self._model()
        cfg = TrainConfig(seed=0)
        opt = AdamW(model.parameter_groups(), cfg)
        for _, p in model.named_parameters():
            if p.requires_grad:
                p.grad = np.random.default_rng(1).normal(size=p.shape)
        opt.step({"backbone": 1e-4, "head": 5e-4})
        save_checkpoint(tmp_path / "m.ckpt", model, opt, epoch=1, val_kappa=0.1)
        fresh = self._model()
        fresh_opt = AdamW(fresh.parameter_groups(), cfg)
        load_checkpoint(tmp_path / "m.ckpt", fresh, fresh_opt)
        assert fresh_opt.step_count == opt.step_count
        for a, b in zip(opt.groups["head"]["entries"], fresh_opt.groups["head"]["entries"]):
            np.testing.assert_array_equal(a["m"], b["m"])
            np.testing.assert_array_equal(a["v"], b["v"])

    def test_build_from_checkpoint(self, tmp_path):
        model = self._model(seed=5)
        save_checkpoint(tmp_path / "m.ckpt", model, epoch=2, val_kappa=0.2)
        rebuilt, header = build_model_from_checkpoint(tmp_path / "m.ckpt")
        assert rebuilt.cfg == model.cfg
        x = np.random.default_rng(2).normal(size=(1, 4, 6, 7))
        rebuilt.set_mode("eval")
        model.set_mode("eval")
        assert rebuilt.forward(x).data.tobytes() == model.forward(x).data.tobytes()

    def test_bad_magic(self, tmp_path):
        (tmp_path / "m.ckpt").write_bytes(b"WRONG\n{}\n")
        with pytest.raises(FormatError, match="MSCP1"):
            load_checkpoint(tmp_path / "m.ckpt", self._model())

    def test_mis_shaped_buffer_rejected(self, tmp_path):
        model = self._model()
        model.block.post_bn.running_mean = np.zeros(1)  # would broadcast into (C,)
        save_checkpoint(tmp_path / "m.ckpt", model, epoch=1, val_kappa=0.0)
        with pytest.raises(CompatibilityError, match="running_mean"):
            load_checkpoint(tmp_path / "m.ckpt", self._model())

    def test_mis_shaped_optimizer_moment_rejected(self, tmp_path):
        model = self._model()
        opt = AdamW(model.parameter_groups(), TrainConfig())
        opt.groups["head"]["entries"][0]["m"] = np.zeros(1)
        save_checkpoint(tmp_path / "m.ckpt", model, opt)
        fresh = self._model()
        with pytest.raises(CompatibilityError, match="opt.m."):
            load_checkpoint(tmp_path / "m.ckpt", fresh, AdamW(fresh.parameter_groups(), TrainConfig()))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, self._model(), epoch=1, val_kappa=0.0)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(path, self._model())

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path):
        path = tmp_path / "m.ckpt"
        model = self._model()
        save_checkpoint(path, model, epoch=1, val_kappa=0.0)
        before = path.read_bytes()
        # a buffer numpy cannot cast to float64 makes the write fail after
        # the header and the first tensors are out
        model.block.post_bn.running_var = np.array(["not a number"] * 4)
        with pytest.raises(ValueError):
            save_checkpoint(path, model, epoch=2, val_kappa=0.5)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]
        assert load_checkpoint(path, self._model())["epoch"] == 1


def _mangle(raw: bytes, kind: str, where: int, bit: int) -> bytes:
    """Truncate, flip one bit, or damage the header line of a saved file."""
    if kind == "truncate":
        return raw[:where % len(raw)]
    if kind == "flip":
        i = where % len(raw)
        return raw[:i] + bytes([raw[i] ^ (1 << bit)]) + raw[i + 1:]
    magic, header, payload = raw.split(b"\n", 2)
    doc = json.loads(header)
    if kind == "drop_key":
        del doc[sorted(doc)[where % len(doc)]]
    elif kind == "not_object":
        doc = [doc]
    elif kind == "bad_shape":
        shapes = [doc] if "shape" in doc else doc["tensors"]
        shapes[where % len(shapes)]["shape"] = [[-1], [1.5], "x", [True], None][bit % 5]
    return magic + b"\n" + json.dumps(doc).encode() + b"\n" + payload


class TestCorruptFiles:
    """Damaged files end in a typed package error, never another exception."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("clean")
        cfg = dict(C=3, S=5, D=2, P=3, M=2, hidden=3, out_dim=2, seed=1)
        save_checkpoint(root / "m.ckpt", MscgcKanModel(ModelConfig(**cfg)), epoch=1)
        write_tensor(root / "t.mstf", np.arange(6.0).reshape(2, 3))
        return cfg, (root / "m.ckpt").read_bytes(), (root / "t.mstf").read_bytes()

    @given(kind=st.sampled_from(["truncate", "flip", "drop_key", "not_object", "bad_shape"]),
           where=st.integers(0, 1 << 20), bit=st.integers(0, 7))
    @settings(max_examples=150, deadline=None)
    def test_only_typed_errors(self, saved, tmp_path_factory, kind, where, bit):
        cfg, ckpt, tensor = saved
        root = tmp_path_factory.mktemp("bad")
        (root / "m.ckpt").write_bytes(_mangle(ckpt, kind, where, bit))
        (root / "t.mstf").write_bytes(_mangle(tensor, kind, where, bit))
        calls = (lambda: read_tensor(root / "t.mstf"),
                 lambda: read_checkpoint_header(root / "m.ckpt"),
                 lambda: load_checkpoint(root / "m.ckpt", MscgcKanModel(ModelConfig(**cfg))),
                 lambda: build_model_from_checkpoint(root / "m.ckpt"))
        for call in calls:
            try:
                call()
            except MscgcError:
                pass


# The writers as they stood before `_write_file` took over, kept verbatim
# (renamed) so the bytes on disk are pinned to them.
def _old_write_tensor(path, tensor, name: str = "tensor", dtype: str = "f8") -> None:
    arr = tensor.data if isinstance(tensor, Tensor) else np.asarray(tensor)
    header = json.dumps({"dtype": dtype, "shape": list(arr.shape), "name": name},
                        sort_keys=True)
    with open(path, "wb") as fh:
        fh.write(MSTF_MAGIC + b"\n")
        fh.write(header.encode("utf-8") + b"\n")
        fh.write(np.ascontiguousarray(arr.astype(_DTYPES[dtype])))


def _old_save_checkpoint(path, model, optimizer=None, epoch: int = 0, val_kappa: float = 0.0):
    named = [("param." + n, p.data) for n, p in model.named_parameters()]
    named += [("buffer." + n, b) for n, b in model.named_buffers()]
    if optimizer is not None:
        named += [("opt." + n, b) for n, b in optimizer.named_state()]
    header = {
        "config": asdict(model.cfg),
        "config_hash": model.cfg.config_hash(),
        "epoch": int(epoch),
        "val_kappa": float(val_kappa),
        "tensors": [{"name": n, "dtype": "f8", "shape": list(np.asarray(a).shape)}
                    for n, a in named],
    }
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CKPT_MAGIC + b"\n")
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            for _, arr in named:
                fh.write(np.ascontiguousarray(np.asarray(arr, dtype="<f8")))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _trained(data_seed):
    """A model and optimizer of one config whose parameters, running statistics,
    moments and step count are moved off their initial values by `data_seed`."""
    model = MscgcKanModel(ModelConfig(C=4, S=6, D=5, P=7, M=3, hidden=6, out_dim=4))
    opt = AdamW(model.parameter_groups(), TrainConfig())
    rng = np.random.default_rng(data_seed)
    x = rng.normal(size=(3, 4, 6, 7))
    for _ in range(data_seed % 3 + 1):
        model.zero_grads()
        softmax_cross_entropy(model.forward(x), rng.integers(0, 3, size=3)).backward()
        opt.step({"backbone": 1e-3, "head": 1e-2})
    return model, opt


def _state(model, opt=None):
    """Bytes of every array a checkpoint restores, plus the step count."""
    named = [(n, p.data) for n, p in model.named_parameters()] + model.named_buffers()
    if opt is not None:
        named += opt.named_state()
    return {n: (a.shape, a.tobytes()) for n, a in named}


class TestOneWriterOneReader:
    """Both formats go through one writer and one read path; the bytes on disk
    are the same as before, and a checkpoint fills the live arrays in place."""

    @pytest.mark.parametrize("dtype", ["f8", "f4", "i8"])
    def test_tensor_bytes_unchanged(self, tmp_path, dtype):
        arr = np.random.default_rng(0).normal(size=(3, 4, 5)) * 100
        for tensor in (arr, arr[:, ::2].T, np.float64(2.5), Tensor(arr[0])):
            write_tensor(tmp_path / "new.mstf", tensor, name="x", dtype=dtype)
            _old_write_tensor(tmp_path / "old.mstf", tensor, name="x", dtype=dtype)
            assert (tmp_path / "new.mstf").read_bytes() == (tmp_path / "old.mstf").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["new.mstf", "old.mstf"]

    @pytest.mark.parametrize("with_opt", [False, True])
    def test_checkpoint_bytes_unchanged(self, tmp_path, with_opt):
        model, opt = _trained(4)
        opt = opt if with_opt else None
        save_checkpoint(tmp_path / "new.ckpt", model, opt, epoch=3, val_kappa=0.25)
        _old_save_checkpoint(tmp_path / "old.ckpt", model, opt, epoch=3, val_kappa=0.25)
        assert (tmp_path / "new.ckpt").read_bytes() == (tmp_path / "old.ckpt").read_bytes()

    def test_old_checkpoint_loads_bitwise(self, tmp_path):
        model, opt = _trained(5)
        _old_save_checkpoint(tmp_path / "old.ckpt", model, opt, epoch=2, val_kappa=0.5)
        fresh, fresh_opt = _trained(7)
        assert load_checkpoint(tmp_path / "old.ckpt", fresh, fresh_opt)["epoch"] == 2
        assert _state(fresh, fresh_opt) == _state(model, opt)
        assert fresh_opt.step_count == opt.step_count

    def test_moments_are_skipped_without_an_optimizer(self, tmp_path):
        model, opt = _trained(5)
        save_checkpoint(tmp_path / "m.ckpt", model, opt)
        fresh, _ = _trained(7)
        load_checkpoint(tmp_path / "m.ckpt", fresh)
        assert _state(fresh) == _state(model)

    def test_rejected_checkpoint_changes_nothing(self, tmp_path):
        model, opt = _trained(5)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, opt)
        magic, header, payload = path.read_bytes().split(b"\n", 2)
        doc = json.loads(header)
        last_v = [e for e in doc["tensors"] if e["name"].startswith("opt.v.")][-1]
        # same element count, so the payload length still matches the header
        last_v["shape"] = [math.prod(last_v["shape"])] + ([1] if len(last_v["shape"]) == 1 else [])
        path.write_bytes(magic + b"\n" + json.dumps(doc).encode() + b"\n" + payload)
        fresh, fresh_opt = _trained(7)
        before, step = _state(fresh, fresh_opt), fresh_opt.step_count
        with pytest.raises(CompatibilityError, match=last_v["name"]):
            load_checkpoint(path, fresh, fresh_opt)
        assert _state(fresh, fresh_opt) == before
        assert fresh_opt.step_count == step

    def test_bad_step_count_changes_nothing(self, tmp_path):
        model, opt = _trained(5)
        opt.step_count = 0.5
        save_checkpoint(tmp_path / "m.ckpt", model, opt)
        fresh, fresh_opt = _trained(7)
        before = _state(fresh, fresh_opt)
        with pytest.raises(FormatError, match="step count"):
            load_checkpoint(tmp_path / "m.ckpt", fresh, fresh_opt)
        assert _state(fresh, fresh_opt) == before

    def test_non_contiguous_live_array_rejected_before_reading(self, tmp_path):
        model, _ = _trained(5)
        save_checkpoint(tmp_path / "m.ckpt", model)
        fresh, _ = _trained(7)
        name, weight = next((n, p) for n, p in fresh.named_parameters() if p.data.ndim == 2)
        weight.data = np.asfortranarray(weight.data)
        before = _state(fresh)
        with pytest.raises(CompatibilityError, match=f"param.{name}"):
            load_checkpoint(tmp_path / "m.ckpt", fresh)
        assert _state(fresh) == before

    def test_load_allocates_nothing_at_paper_width(self, tmp_path):
        cfg = ModelConfig(hidden=512, out_dim=64, block="identity")
        model = MscgcKanModel(cfg)
        opt = AdamW(model.parameter_groups(), TrainConfig())
        save_checkpoint(tmp_path / "m.ckpt", model, opt)
        checkpoint_bytes = (tmp_path / "m.ckpt").stat().st_size
        assert checkpoint_bytes > 60e6
        tracemalloc.start()
        try:
            load_checkpoint(tmp_path / "m.ckpt", model, opt)
            load_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            tracemalloc.clear_traces()
            build_model_from_checkpoint(tmp_path / "m.ckpt")
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            tracemalloc.clear_traces()
            MscgcKanModel(cfg)
            model_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert load_peak < 1e6
        assert abs(build_peak - model_peak) < 1e6
