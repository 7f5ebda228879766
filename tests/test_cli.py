"""Command-line interface: commands, outputs, exit codes, reproducibility."""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from mscgc.cli import load_split, main
from mscgc.config import RunConfig
from mscgc.data import read_checkpoint_header, read_tensor, save_checkpoint, write_tensor
from mscgc.errors import MscgcError
from mscgc.model import ModelConfig, MscgcKanModel

TINY_SPEC = {
    "n_subjects": 4,
    "trials_per_subject": 40,
    "sessions_per_subject": 2,
    "C": 6,
    "S": 8,
    "P": 10,
    "M": 2,
    "seed": 5,
    "communities": 2,
}

TINY_CONFIG = {
    "model.D": 8,
    "model.hidden": 12,
    "model.out_dim": 8,
    "train.epochs": 2,
    "train.batch_size": 16,
    "train.seed": 1,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec_file = root / "spec.json"
    spec_file.write_text(json.dumps(TINY_SPEC))
    config_file = root / "config.json"
    config_file.write_text(json.dumps(TINY_CONFIG))
    data_dir = root / "data"
    assert main(["gen-data", "--spec", str(spec_file), "--out", str(data_dir)]) == 0
    return root, spec_file, config_file, data_dir


@pytest.fixture(scope="module")
def trained(workspace):
    """best.ckpt of one TINY_CONFIG run, shared by the tests that only read it."""
    code, run_dir = run_training(workspace, "shared")
    assert code == 0
    return run_dir / "best.ckpt"


def nan_copy(data_dir, dest):
    """A copy of the dataset in `data_dir` whose samples are all NaN."""
    dest.mkdir()
    samples = read_tensor(data_dir / "samples.mstf")
    write_tensor(dest / "samples.mstf", np.full_like(samples, np.nan), name="samples")
    for name in ("labels.mstf", "meta.json"):
        (dest / name).write_bytes((data_dir / name).read_bytes())
    return dest


def run_training(workspace, run_name, extra=()):
    root, _, config_file, data_dir = workspace
    out_dir = root / "runs"
    code = main(["train", "--config", str(config_file), "--data", str(data_dir),
                 "--out", str(out_dir), "--run-name", run_name, *extra])
    return code, out_dir / run_name


class TestGenData:
    def test_dataset_layout_and_balance(self, workspace):
        _, _, _, data_dir = workspace
        for name in ("samples.mstf", "labels.mstf", "meta.json"):
            assert (data_dir / name).exists()
        labels = read_tensor(data_dir / "labels.mstf")
        counts = np.bincount(labels.astype(int))
        assert counts.max() - counts.min() <= 1

    def test_same_seed_identical_directory(self, workspace, tmp_path):
        root, spec_file, _, data_dir = workspace
        again = tmp_path / "data2"
        assert main(["gen-data", "--spec", str(spec_file), "--out", str(again)]) == 0
        for name in ("samples.mstf", "labels.mstf", "meta.json"):
            assert (again / name).read_bytes() == (data_dir / name).read_bytes()

    def test_high_channel_shape(self, tmp_path):
        spec = dict(TINY_SPEC, C=32, S=10, M=9, nonlinearity=False,
                    n_subjects=2, trials_per_subject=18, sessions_per_subject=1)
        spec_file = tmp_path / "s.json"
        spec_file.write_text(json.dumps(spec))
        assert main(["gen-data", "--spec", str(spec_file), "--out", str(tmp_path / "d")]) == 0
        samples = read_tensor(tmp_path / "d" / "samples.mstf")
        assert samples.shape == (36, 32, 10, 10)

    @pytest.mark.parametrize("spec", [[], {"C": "x"}, {"n_subjects": -1},
                                      {"sessions_per_subject": 0}, {"n_subjects": 0}, {"P": 0},
                                      {"nonlinearity": "no"}, {"noise_scale": -1},
                                      {"community_scale": -0.5}])
    def test_bad_spec_exits_2_and_writes_nothing(self, tmp_path, spec, capsys):
        spec_file = tmp_path / "bad.json"
        spec_file.write_text(json.dumps(spec))
        assert main(["gen-data", "--spec", str(spec_file), "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "d").exists()

    def test_invalid_spec_exits_2(self, tmp_path):
        spec_file = tmp_path / "bad.json"
        spec_file.write_text(json.dumps({"M": 3}))  # odd classes + nonlinearity
        assert main(["gen-data", "--spec", str(spec_file), "--out", str(tmp_path / "d")]) == 2


class TestTrain:
    def test_outputs_and_metrics_keys(self, workspace):
        code, run_dir = run_training(workspace, "first")
        assert code == 0
        for name in ("effective.json", "log.jsonl", "best.ckpt", "metrics.json", "metrics.csv"):
            assert (run_dir / name).exists()
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert {"ba", "kappa", "wf1"} <= set(metrics)
        effective = json.loads((run_dir / "effective.json").read_text())
        assert effective["train.seed"] == 1
        assert effective["model.C"] == 6  # inherited from the dataset

    def test_rerun_same_seed_byte_identical_metrics(self, workspace):
        code_a, run_a = run_training(workspace, "rep-a")
        code_b, run_b = run_training(workspace, "rep-b")
        assert code_a == code_b == 0
        assert (run_a / "metrics.json").read_bytes() == (run_b / "metrics.json").read_bytes()
        assert (run_a / "log.jsonl").read_bytes() == (run_b / "log.jsonl").read_bytes()

    def test_override_flag_changes_config(self, workspace):
        code, run_dir = run_training(workspace, "override", ["--train.epochs=1"])
        assert code == 0
        assert json.loads((run_dir / "effective.json").read_text())["train.epochs"] == 1
        assert len((run_dir / "log.jsonl").read_text().splitlines()) == 1

    def test_missing_data_dir_exits_2(self, workspace, tmp_path):
        root, _, config_file, _ = workspace
        code = main(["train", "--config", str(config_file), "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "runs")])
        assert code == 2

    def test_unknown_config_key_exits_2(self, workspace, tmp_path):
        root, _, _, data_dir = workspace
        code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "runs"),
                     "--train.warmup=5"])
        assert code == 2

    def test_renamed_config_key_exits_2_naming_replacement(self, workspace, tmp_path, capsys):
        _, _, _, data_dir = workspace
        code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "r"),
                     "--train.dropout=0.2"])
        assert code == 2
        assert "model.dropout" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["model.out_dim", "model.D"])
    def test_zero_geometry_exits_2(self, workspace, tmp_path, key, capsys):
        _, _, config_file, data_dir = workspace
        code = main(["train", "--config", str(config_file), "--data", str(data_dir),
                     "--out", str(tmp_path / "r"), f"--{key}=0"])
        assert code == 2
        assert key.split(".")[1] in capsys.readouterr().err

    def test_meta_without_subjects_exits_2(self, workspace, tmp_path, capsys):
        _, _, config_file, data_dir = workspace
        damaged = tmp_path / "data"
        damaged.mkdir()
        for name in ("samples.mstf", "labels.mstf"):
            (damaged / name).write_bytes((data_dir / name).read_bytes())
        meta = json.loads((data_dir / "meta.json").read_text())
        del meta["subjects"]
        (damaged / "meta.json").write_text(json.dumps(meta))
        code = main(["train", "--config", str(config_file), "--data", str(damaged),
                     "--out", str(tmp_path / "r")])
        assert code == 2
        assert "subjects" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,dtype", [
        (lambda y: y[:50], "i8"),
        (lambda y: np.where(np.arange(y.size) == 0, -1, np.where(np.arange(y.size) == 1, 7, y)),
         "i8"),
        (lambda y: y + 0.5, "f8")])
    def test_bad_labels_exit_2_before_run_dir(self, workspace, tmp_path, edit, dtype, capsys):
        _, _, config_file, data_dir = workspace
        damaged = tmp_path / "data"
        damaged.mkdir()
        for name in ("samples.mstf", "meta.json"):
            (damaged / name).write_bytes((data_dir / name).read_bytes())
        write_tensor(damaged / "labels.mstf", edit(read_tensor(data_dir / "labels.mstf")),
                     name="labels", dtype=dtype)
        code = main(["train", "--config", str(config_file), "--data", str(damaged),
                     "--out", str(tmp_path / "r")])
        assert code == 2
        assert "labels.mstf" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("ratios", ['["a",5,5]', "[[10],5,5]", "[10.5,5,5]"])
    def test_bad_ratios_exit_2_before_run_dir(self, workspace, tmp_path, ratios, capsys):
        _, _, config_file, data_dir = workspace
        code = main(["train", "--config", str(config_file), "--data", str(data_dir),
                     "--out", str(tmp_path / "r"), f"--data.ratios={ratios}"])
        assert code == 2
        assert "ratios" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("override,named", [
        ("--train.batch_size=0", "batch_size"), ("--train.eval_batch_size=0", "eval_batch_size"),
        ("--train.epochs=0", "epochs"), ("--train.clip_norm=-1", "clip_norm"),
        ("--train.beta1=2", "betas"), ('--model.kernels=["a"]', "kernels"),
        ("--model.kernels=[1.5]", "kernels"), ("--model.dropout=1.5", "dropout")])
    def test_bad_config_exits_2_before_run_dir(self, workspace, tmp_path, override, named,
                                               capsys):
        _, _, config_file, data_dir = workspace
        code = main(["train", "--config", str(config_file), "--data", str(data_dir),
                     "--out", str(tmp_path / "r"), "--model.block=identity", override])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("key", ["model.hidden", "train.seed", "train.lr_head"])
    @pytest.mark.parametrize("value", ["true", "false", "null", '"abc"', "abc", "[1]", "{}"])
    def test_non_number_for_numeric_key_exits_2_before_run_dir(self, workspace, tmp_path, key,
                                                               value, capsys):
        # a JSON boolean must not pass as 1 or 0, and nothing else may end in a traceback
        _, _, config_file, data_dir = workspace
        code = main(["train", "--config", str(config_file), "--data", str(data_dir),
                     "--out", str(tmp_path / "r"), f"--{key}={value}"])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_run_name_collision_exits_2(self, workspace):
        code, _ = run_training(workspace, "dup")
        assert code == 0
        code, _ = run_training(workspace, "dup")
        assert code == 2

    def test_non_finite_abort_exits_3(self, workspace, tmp_path):
        root, _, config_file, data_dir = workspace
        broken = nan_copy(data_dir, tmp_path / "broken")
        code = main(["train", "--config", str(config_file), "--data", str(broken),
                     "--out", str(tmp_path / "runs")])
        assert code == 3


class TestEval:
    def test_eval_checkpoint(self, workspace, tmp_path):
        root, _, config_file, data_dir = workspace
        code, run_dir = run_training(workspace, "for-eval")
        assert code == 0
        code = main(["eval", "--config", str(config_file), "--data", str(data_dir),
                     "--out", str(tmp_path / "eval"), "--run-name", "e",
                     "--checkpoint", str(run_dir / "best.ckpt")])
        assert code == 0
        metrics = json.loads((tmp_path / "eval" / "e" / "metrics.json").read_text())
        trained = json.loads((run_dir / "metrics.json").read_text())
        assert metrics == trained

    def test_non_finite_logits_exit_3_without_metrics(self, workspace, trained, tmp_path,
                                                       capsys):
        _, _, _, data_dir = workspace
        broken = nan_copy(data_dir, tmp_path / "broken")
        code = main(["eval", "--data", str(broken), "--out", str(tmp_path / "eval"),
                     "--run-name", "e", "--checkpoint", str(trained)])
        assert code == 3
        assert "non-finite logits for sample" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "e" / "metrics.json").exists()


    def test_effective_config_is_the_checkpoints(self, workspace, trained, tmp_path):
        _, _, _, data_dir = workspace
        code = main(["eval", "--data", str(data_dir), "--out", str(tmp_path / "eval"),
                     "--run-name", "e", "--checkpoint", str(trained)])
        assert code == 0
        effective = json.loads((tmp_path / "eval" / "e" / "effective.json").read_text())
        assert (effective["model.D"], effective["model.hidden"], effective["model.out_dim"],
                effective["train.seed"]) == (8, 12, 8, 1)

    @pytest.mark.parametrize("key,given,stored", [("model.hidden", "7", "12"),
                                                  ("model.block", "identity", "mcr"),
                                                  ("train.seed", "3", "1")])
    def test_override_differing_from_checkpoint_exits_2(self, workspace, trained, tmp_path,
                                                        key, given, stored, capsys):
        _, _, _, data_dir = workspace
        code = main(["eval", "--data", str(data_dir), "--out", str(tmp_path / "eval"),
                     "--checkpoint", str(trained), f"--{key}={given}"])
        assert code == 2
        err = capsys.readouterr().err
        assert key in err and given in err and stored in err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_bad_eval_batch_size_exits_2_before_run_dir(self, workspace, trained, tmp_path,
                                                       value, capsys):
        # eval builds no TrainConfig, so the key's own interval must hold
        _, _, _, data_dir = workspace
        code = main(["eval", "--data", str(data_dir), "--out", str(tmp_path / "eval"),
                     "--checkpoint", str(trained), f"--train.eval_batch_size={value}"])
        assert code == 2
        assert "train.eval_batch_size" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("damage", ["bit_flip", "missing_key"])
    def test_damaged_checkpoint_header_exits_2(self, workspace, tmp_path, damage, capsys):
        _, _, config_file, data_dir = workspace
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, MscgcKanModel(ModelConfig(C=6, S=8, D=8, P=10, M=2, hidden=12,
                                                        out_dim=8)))
        magic, header, payload = ckpt.read_bytes().split(b"\n", 2)
        if damage == "bit_flip":
            header = header[:5] + bytes([header[5] ^ 0x80]) + header[6:]
        else:
            doc = json.loads(header)
            del doc["tensors"]
            header = json.dumps(doc).encode()
        ckpt.write_bytes(magic + b"\n" + header + b"\n" + payload)
        code = main(["eval", "--config", str(config_file), "--data", str(data_dir),
                     "--out", str(tmp_path / "eval"), "--checkpoint", str(ckpt)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


    def test_class_count_mismatch_exits_2_before_run_dir(self, workspace, trained, tmp_path,
                                                          capsys):
        spec_file = tmp_path / "four.json"
        spec_file.write_text(json.dumps(dict(TINY_SPEC, M=4)))
        assert main(["gen-data", "--spec", str(spec_file), "--out", str(tmp_path / "m4")]) == 0
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(trained), "--data", str(tmp_path / "m4"),
                     "--out", str(tmp_path / "eval")])
        assert code == 2
        assert "(C, S, P, M)" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()


class TestUnusableInputs:
    """Values and files that cannot be used end in `error: ...` and exit 2,
    before any run directory is made, never in a traceback."""

    @pytest.mark.parametrize("command,extra", [("train", ["--train.seed=-1"]),
                                               ("ablate", ["--seeds=0,-1"])])
    def test_negative_seed_exits_2_before_run_dir(self, workspace, tmp_path, command, extra,
                                                  capsys):
        _, _, config_file, data_dir = workspace
        code = main([command, "--config", str(config_file), "--data", str(data_dir),
                     "--out", str(tmp_path / "r"), *extra])
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_negative_gradcheck_seed_exits_2(self, capsys):
        assert main(["gradcheck", "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: --seed")

    @pytest.mark.parametrize("key,value", [("C", 2.5), ("hidden", True), ("harmonics", 2.0),
                                           ("bn_eps", -1.0), ("bn_momentum", 2.0),
                                           ("provider_trainable", "no"), ("seed", -1)])
    def test_invalid_config_in_rehashed_checkpoint_exits_2(self, workspace, trained, tmp_path,
                                                           key, value, capsys):
        _, _, _, data_dir = workspace
        magic, header, payload = trained.read_bytes().split(b"\n", 2)
        doc = json.loads(header)
        doc["config"][key] = value
        # a matching hash, so only the value itself can be at fault
        doc["config_hash"] = hashlib.sha256(
            json.dumps(doc["config"], sort_keys=True).encode("utf-8")).hexdigest()[:16]
        ckpt = tmp_path / "m.ckpt"
        ckpt.write_bytes(magic + b"\n" + json.dumps(doc).encode() + b"\n" + payload)
        code = main(["eval", "--data", str(data_dir), "--out", str(tmp_path / "eval"),
                     "--checkpoint", str(ckpt)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("flag,content", [("--config", b"\xff\xfe{}"), ("--config", None),
                                              ("--checkpoint", None), ("--spec", b"{\"seed\": \xe9}")])
    def test_unreadable_input_file_exits_2(self, workspace, trained, tmp_path, flag, content,
                                           capsys):
        _, _, config_file, data_dir = workspace
        path = tmp_path / "input"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        command = {"--config": ["train"], "--checkpoint": ["eval"], "--spec": ["gen-data"]}[flag]
        if flag != "--spec":
            command += ["--data", str(data_dir)]
        code = main([*command, "--out", str(tmp_path / "r"), flag, str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "r").exists()


class TestAblate:
    def test_four_labeled_rows(self, workspace, tmp_path):
        root, _, config_file, data_dir = workspace
        code = main(["ablate", "--config", str(config_file), "--data", str(data_dir),
                     "--out", str(tmp_path / "ab"), "--run-name", "a", "--seeds", "0",
                     "--train.epochs=1"])
        assert code == 0
        with open(tmp_path / "ab" / "a" / "ablation.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "config"
        labels = [r[0] for r in rows[1:]]
        assert labels == ["Baseline (CBraMod+Linear)", "+KAN", "+MCRBlock-GCN",
                          "MSCGC-KAN (full model)"]
        for row in rows[1:]:
            assert float(row[2]) >= 0.0  # ba recorded
            assert row[5]  # config hash recorded

    def test_each_seed_records_the_hash_of_its_own_checkpoint(self, workspace, tmp_path):
        """The seed is part of the model config, so each seed's run has its own hash."""
        _, _, config_file, data_dir = workspace
        code = main(["ablate", "--config", str(config_file), "--data", str(data_dir),
                     "--out", str(tmp_path / "ab"), "--run-name", "a", "--seeds", "0,1",
                     "--train.epochs=1"])
        assert code == 0
        run_dir = tmp_path / "ab" / "a"
        rows = json.loads((run_dir / "ablation.json").read_text())
        with open(run_dir / "ablation.csv") as fh:
            csv_rows = list(csv.reader(fh))[1:]
        assert len(rows) == len(csv_rows) == 4
        for row, csv_row in zip(rows, csv_rows):
            assert [r["seed"] for r in row["runs"]] == [0, 1]
            hashes = [read_checkpoint_header(run_dir / r["checkpoint"])["config_hash"]
                      for r in row["runs"]]
            assert [r["config_hash"] for r in row["runs"]] == hashes
            assert hashes[0] != hashes[1]
            assert csv_row[5] == row["config_hash"] == ";".join(hashes)


    def test_spread_over_seeds_and_paired_deltas_from_baseline(self, workspace, tmp_path):
        _, _, config_file, data_dir = workspace
        code = main(["ablate", "--config", str(config_file), "--data", str(data_dir),
                     "--out", str(tmp_path / "ab"), "--run-name", "a", "--seeds", "2,0,1",
                     "--train.epochs=1"])
        assert code == 0
        run_dir = tmp_path / "ab" / "a"
        rows = json.loads((run_dir / "ablation.json").read_text())
        with open(run_dir / "ablation.csv") as fh:
            header, *csv_rows = list(csv.reader(fh))
        stats = [f"{key}_{stat}" for key in ("ba", "kappa", "wf1") for stat in ("std", "min", "max")]
        deltas = [f"{key}_{stat}" for key in ("ba", "kappa", "wf1") for stat in ("delta", "ahead")]
        assert header == ["config", "seeds", "ba", "kappa", "wf1", "config_hash", "error",
                          *stats, *deltas]
        baseline = rows[0]
        assert baseline["config"] == "Baseline (CBraMod+Linear)"
        for row, csv_row in zip(rows, csv_rows):
            for key in ("ba", "kappa", "wf1"):
                values = [r[key] for r in row["runs"]]
                assert row[key] == float(np.mean(values))
                assert row[f"{key}_std"] == pytest.approx(np.std(values, ddof=1), abs=1e-15)
                assert (row[f"{key}_min"], row[f"{key}_max"]) == (min(values), max(values))
                if row is baseline:
                    assert f"{key}_delta" not in row and f"{key}_ahead" not in row
                    continue
                diffs = [r[key] - b[key] for r, b in zip(row["runs"], baseline["runs"])]
                assert row[f"{key}_delta"] == pytest.approx(np.mean(diffs), abs=1e-15)
                assert row[f"{key}_ahead"] == sum(diff > 0 for diff in diffs)
            cells = dict(zip(header, csv_row))
            for column in stats + deltas:
                assert cells[column] == ("" if column not in row else repr(row[column]))

    def test_one_seed_has_no_sample_std(self, workspace, tmp_path):
        _, _, config_file, data_dir = workspace
        code = main(["ablate", "--config", str(config_file), "--data", str(data_dir),
                     "--out", str(tmp_path / "ab"), "--run-name", "a", "--seeds", "0",
                     "--train.epochs=1"])
        assert code == 0
        rows = json.loads((tmp_path / "ab" / "a" / "ablation.json").read_text())
        assert all(row["ba_std"] is None and row["ba_min"] == row["ba_max"] == row["ba"]
                   for row in rows)
        assert all(row["ba_ahead"] in (0, 1) for row in rows[1:])


class TestAblateErrors:
    def test_non_integer_seeds_exit_2(self, workspace, tmp_path, capsys):
        _, _, config_file, data_dir = workspace
        code = main(["ablate", "--config", str(config_file), "--data", str(data_dir),
                     "--out", str(tmp_path / "ab"), "--seeds=a"])
        assert code == 2
        assert "--seeds" in capsys.readouterr().err
        assert not (tmp_path / "ab").exists()

    def test_repeated_seed_exits_2_before_run_dir(self, workspace, tmp_path, capsys):
        _, _, config_file, data_dir = workspace
        code = main(["ablate", "--config", str(config_file), "--data", str(data_dir),
                     "--out", str(tmp_path / "ab"), "--seeds=0,1,0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --seeds repeats a seed")
        assert not (tmp_path / "ab").exists()


class TestInterpret:
    def test_exports_five_csvs(self, workspace, tmp_path):
        root, _, config_file, data_dir = workspace
        code, run_dir = run_training(workspace, "for-interpret")
        assert code == 0
        code = main(["interpret", "--checkpoint", str(run_dir / "best.ckpt"),
                     "--data", str(data_dir), "--out", str(tmp_path / "itp"),
                     "--run-name", "i", "--samples", "4"])
        assert code == 0
        out = tmp_path / "itp" / "i"
        names = ["adjacency.csv", "hubs.csv", "saliency.csv", "kan_importance.csv",
                 "activation.csv"]
        for name in names:
            assert (out / name).exists()
        with open(out / "hubs.csv") as fh:
            assert len(list(csv.reader(fh))) == 1 + 6  # header + C rows
        with open(out / "saliency.csv") as fh:
            sample_ids = {int(r[0]) for r in list(csv.reader(fh))[1:]}
        assert sample_ids <= set(range(160))

    def test_mismatched_checkpoint_exits_2(self, workspace, tmp_path):
        root, _, config_file, data_dir = workspace
        other_spec = dict(TINY_SPEC, C=4, communities=2)
        spec_file = tmp_path / "other.json"
        spec_file.write_text(json.dumps(other_spec))
        assert main(["gen-data", "--spec", str(spec_file), "--out", str(tmp_path / "od")]) == 0
        code, run_dir = run_training(workspace, "mismatch-src")
        assert code == 0
        code = main(["interpret", "--checkpoint", str(run_dir / "best.ckpt"),
                     "--data", str(tmp_path / "od"), "--out", str(tmp_path / "x")])
        assert code == 2

    def test_class_count_mismatch_exits_2_before_run_dir(self, workspace, trained, tmp_path,
                                                          capsys):
        spec_file = tmp_path / "four.json"
        spec_file.write_text(json.dumps(dict(TINY_SPEC, M=4)))
        assert main(["gen-data", "--spec", str(spec_file), "--out", str(tmp_path / "m4")]) == 0
        capsys.readouterr()
        code = main(["interpret", "--checkpoint", str(trained), "--data", str(tmp_path / "m4"),
                     "--out", str(tmp_path / "x"), "--samples", "0"])
        assert code == 2
        assert "(C, S, P, M)" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_negative_sample_count_exits_2_before_run_dir(self, workspace, trained, tmp_path,
                                                          capsys):
        _, _, _, data_dir = workspace
        code = main(["interpret", "--checkpoint", str(trained), "--data", str(data_dir),
                     "--out", str(tmp_path / "x"), "--samples", "-1"])
        assert code == 2
        assert "--samples" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_config_file_rejected(self, workspace, trained, tmp_path):
        _, _, _, data_dir = workspace
        with pytest.raises(SystemExit) as exc:
            main(["interpret", "--checkpoint", str(trained), "--data", str(data_dir),
                  "--out", str(tmp_path / "x"), "--config", "/nonexistent.json"])
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()

    def test_config_override_rejected(self, workspace, trained, tmp_path, capsys):
        _, _, _, data_dir = workspace
        code = main(["interpret", "--checkpoint", str(trained), "--data", str(data_dir),
                     "--out", str(tmp_path / "x"), "--train.lr_head=99"])
        assert code == 2
        assert "train.lr_head" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_non_finite_samples_exit_3_without_activation(self, workspace, trained, tmp_path,
                                                         capsys):
        _, _, _, data_dir = workspace
        broken = nan_copy(data_dir, tmp_path / "broken")
        code = main(["interpret", "--checkpoint", str(trained), "--data", str(broken),
                     "--out", str(tmp_path / "itp"), "--run-name", "i", "--samples", "0"])
        assert code == 3
        assert capsys.readouterr().err.endswith("non-finite features for sample 0\n")
        # every table is computed before the first CSV is written
        assert sorted(p.name for p in (tmp_path / "itp" / "i").iterdir()) == ["effective.json"]

    def test_identity_block_checkpoint_exits_2(self, workspace, tmp_path, capsys):
        _, _, _, data_dir = workspace
        code, run_dir = run_training(workspace, "identity-src", ["--model.block=identity"])
        assert code == 0
        capsys.readouterr()
        code = main(["interpret", "--checkpoint", str(run_dir / "best.ckpt"),
                     "--data", str(data_dir), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "no graph block" in capsys.readouterr().err


# Each fuzzed file, with the mutations it gets: flips of a byte in the magic
# and JSON header lines, truncations, flips of a payload byte, and an aligned
# 8-byte payload word set to all ones (a NaN in a float64 payload).
# meta.json is all header.
FUZZ_CASES = [(name, kind) for name in ("samples.mstf", "labels.mstf", "meta.json", "best.ckpt")
              for kind in ("header", "truncate", "payload", "nan")
              if name != "meta.json" or kind in ("header", "truncate")]


def mutate(raw: bytes, name: str, kind: str, rng) -> bytes:
    payload = len(raw) if name == "meta.json" else raw.index(b"\n", raw.index(b"\n") + 1) + 1
    if kind == "truncate":
        return raw[:int(rng.integers(0, len(raw)))]
    out = bytearray(raw)
    if kind == "nan":
        at = payload + 8 * int(rng.integers(0, (len(raw) - payload) // 8))
        out[at:at + 8] = b"\xff" * 8
    else:
        at = int(rng.integers(0, payload) if kind == "header" else rng.integers(payload, len(raw)))
        out[at] ^= int(rng.integers(1, 256))
    return bytes(out)


def non_finite_rows(path) -> np.ndarray:
    """Rows of a samples file that hold a non-finite value; none when it does not load."""
    try:
        samples = read_tensor(path)
    except MscgcError:
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(~np.isfinite(samples.reshape(len(samples), -1)).all(axis=1))


class TestFuzz:
    """`eval` and `interpret --samples 0` on seeded mutations of each input
    return a documented exit code without an exception escaping `main`, and
    neither exits 0 on samples it reads that hold a non-finite value. A flipped
    checkpoint payload byte may still exit 0: checkpoints carry no checksum."""

    @pytest.mark.parametrize("name,kind", FUZZ_CASES)
    def test_mutated_input(self, workspace, trained, tmp_path, name, kind):
        _, _, _, data_dir = workspace
        test_rows = load_split(data_dir, RunConfig.load(None, {}))[1].test
        sources = {n: data_dir / n for n in ("samples.mstf", "labels.mstf", "meta.json")}
        sources["best.ckpt"] = trained
        rng = np.random.default_rng([FUZZ_CASES.index((name, kind)), 17])
        for trial in range(8):
            copy = tmp_path / f"copy{trial}"
            copy.mkdir()
            for n, src in sources.items():
                raw = src.read_bytes()
                (copy / n).write_bytes(mutate(raw, n, kind, rng) if n == name else raw)
            args = ["--data", str(copy), "--checkpoint", str(copy / "best.ckpt"),
                    "--out", str(copy / "runs")]
            codes = {"eval": main(["eval", *args, "--run-name", "e"]),
                     "interpret": main(["interpret", *args, "--run-name", "i", "--samples", "0"])}
            assert set(codes.values()) <= {0, 2, 3}, codes
            bad = non_finite_rows(copy / "samples.mstf")
            # interpret reads every sample of this 160-sample set; eval, the test split
            if bad.size:
                assert codes["interpret"] != 0, (trial, bad)
            if np.isin(bad, test_rows).any():
                assert codes["eval"] != 0, (trial, bad)


class TestGradcheckCommand:
    def test_clean_build_exits_0(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 24
        assert "FAIL" not in out

    def test_corrupted_backward_exits_1_naming_layer(self, capsys):
        assert main(["gradcheck", "--corrupt", "elu"]) == 1
        out = capsys.readouterr().out
        assert "elu" in out and "FAIL" in out

    def test_corrupted_adjacency_fails_every_layer_that_uses_it(self, capsys):
        assert main(["gradcheck", "--corrupt", "normalize_adjacency"]) == 1
        failed = capsys.readouterr().out.splitlines()[-1]
        for name in ("normalize_adjacency", "graph_propagate", "mcr_block", "full_model"):
            assert name in failed

    def test_corrupted_train_block_fails_the_checks_through_it(self, capsys):
        """The train-mode MCR block is one node, which the block and model checks reach."""
        assert main(["gradcheck", "--corrupt", "mcr_block"]) == 1
        failed = capsys.readouterr().out.splitlines()[-1]
        assert failed == "gradient check FAILED for: mcr_block, full_model"

    def test_report_covers_each_layer_once(self, capsys):
        main(["gradcheck"])
        out = capsys.readouterr().out
        names = [line.split()[0] for line in out.splitlines() if "max_rel_err" in line]
        assert len(names) == len(set(names)) == 24
        assert "full_model" in names and "conv1d" in names
