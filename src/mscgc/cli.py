"""Command-line entry point.

Grammar:
    mscgc <gen-data|train|eval|ablate|interpret|gradcheck> [--config FILE] [--key=value ...]

Only train, eval and ablate read a config; the other commands reject one.

Exit codes: 0 success, 1 verification failure, 2 input/config error,
3 numerical abort, 4 partial ablation failure. Every command echoes its
effective configuration and seed into its run directory; run directories
are timestamped and never overwritten.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import data as dio
from .config import RunConfig, parse_override_args
from .errors import CompatibilityError, ConfigError, MscgcError, NumericalError, VerificationError
from .gradcheck import TOLERANCE, run_gradcheck
from .interpret import export_all
from .model import ABLATION_VARIANTS, MscgcKanModel
from .tensor import clear_gradient_corruption, set_gradient_corruption
from .training import DatasetBundle, evaluate_model, train_loop


def make_run_dir(base, run_name: str | None = None) -> Path:
    base = Path(base)
    base.mkdir(parents=True, exist_ok=True)
    if run_name:
        path = base / run_name
        if path.exists():
            raise ConfigError(f"run directory {path} already exists")
        path.mkdir()
        return path
    stamp = time.strftime("%Y%m%d-%H%M%S")
    path = base / f"run-{stamp}"
    n = 1
    while path.exists():
        path = base / f"run-{stamp}-{n}"
        n += 1
    path.mkdir()
    return path


def write_metrics(report, json_path, csv_path) -> None:
    flat = report.to_flat_dict()
    Path(json_path).write_text(json.dumps(flat, sort_keys=True) + "\n", encoding="utf-8")
    header, row = report.to_csv_row()
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerow(row)


def load_split(data_dir, cfg: RunConfig):
    """Load a dataset, fill the geometry keys the config leaves open, and split it."""
    dataset = dio.load_dataset(data_dir)
    cfg.inherit_from_meta(dataset.meta)
    return dataset, dio.split_dataset(dataset.meta, cfg["data.protocol"], cfg["data.ratios"])


def check_dataset_geometry(model: MscgcKanModel, dataset) -> None:
    """Raise CompatibilityError unless the dataset's (C, S, P, M) are the model's."""
    found = dataset.samples.shape[1:] + (dataset.meta["M"],)
    expected = (model.cfg.C, model.cfg.S, model.cfg.P, model.cfg.M)
    if found != expected:
        raise CompatibilityError(f"dataset (C, S, P, M) = {found} does not match "
                                 f"the checkpoint's {expected}")


def cmd_gen_data(args) -> int:
    spec_kwargs = {}
    if args.spec:
        spec_kwargs = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        if not isinstance(spec_kwargs, dict):
            raise ConfigError("generator spec must hold a JSON object")
        unknown = set(spec_kwargs) - {f.name for f in dataclasses.fields(dio.SynthSpec)}
        if unknown:
            raise ConfigError(f"unknown generator spec keys: {sorted(unknown)}")
    spec = dio.SynthSpec(**spec_kwargs)
    dataset = dio.gen_synthetic(spec)
    dio.save_dataset(args.out, dataset)
    print(f"wrote {dataset.meta['n_samples']} samples "
          f"(C={spec.C}, S={spec.S}, P={spec.P}, M={spec.M}, seed={spec.seed}) to {args.out}")
    return 0


def cmd_train(args, overrides) -> int:
    cfg = RunConfig.load(args.config, overrides)
    dataset, split = load_split(args.data, cfg)
    bundle = DatasetBundle(dataset.samples, dataset.labels, split, cfg["model.M"])
    # both configs are checked before anything is written
    model_cfg, train_cfg = cfg.model_config(), cfg.train_config()
    run_dir = make_run_dir(args.out, args.run_name)
    cfg.echo(run_dir / "effective.json",
             extra={"command": "train", "data_dir": str(args.data)})
    result = train_loop(MscgcKanModel(model_cfg), bundle, train_cfg,
                        run_dir / "best.ckpt", run_dir / "log.jsonl")
    write_metrics(result.test_report, run_dir / "metrics.json", run_dir / "metrics.csv")
    print(f"best epoch {result.best_epoch} (val kappa {result.best_val_kappa:.4f}); "
          f"test ba={result.test_report.balanced_accuracy:.4f} "
          f"kappa={result.test_report.kappa:.4f} wf1={result.test_report.weighted_f1:.4f}")
    print(f"outputs in {run_dir}")
    return 0


def cmd_eval(args, overrides) -> int:
    cfg = RunConfig.load(args.config, overrides)
    model, header = dio.build_model_from_checkpoint(args.checkpoint)
    dataset, split = load_split(args.data, cfg)
    check_dataset_geometry(model, dataset)
    cfg.adopt_model_config(model.cfg)
    run_dir = make_run_dir(args.out, args.run_name)
    cfg.echo(run_dir / "effective.json",
             extra={"command": "eval", "checkpoint": str(args.checkpoint),
                    "checkpoint_epoch": header["epoch"], "data_dir": str(args.data)})
    report = evaluate_model(model, dataset.samples[split.test], dataset.labels[split.test],
                            model.cfg.M, cfg["train.eval_batch_size"])
    write_metrics(report, run_dir / "metrics.json", run_dir / "metrics.csv")
    print(f"test ba={report.balanced_accuracy:.4f} kappa={report.kappa:.4f} "
          f"wf1={report.weighted_f1:.4f}; outputs in {run_dir}")
    return 0


def run_ablation(cfg: RunConfig, bundle_factory, seeds, run_dir: Path):
    """Train the four head variants over the given seeds.

    Returns (rows, any_failed); each row carries per-seed metrics, means,
    the seeds, and the variant's config hash. A failing variant is reported
    in its row without stopping the others.
    """
    rows = []
    any_failed = False
    for label, (block_mode, kan_mode) in ABLATION_VARIANTS.items():
        row = {"config": label, "seeds": list(seeds), "runs": [], "error": None}
        for seed in seeds:
            variant = RunConfig(dict(cfg.values), set(cfg.explicit))
            variant.set("model.block", block_mode)
            variant.set("model.kan", kan_mode)
            variant.set("train.seed", int(seed))
            row["config_hash"] = variant.model_config().config_hash()
            try:
                model = MscgcKanModel(variant.model_config())
                result = train_loop(model, bundle_factory(), variant.train_config(),
                                    run_dir / f"ablate-{block_mode}-{kan_mode}-seed{seed}.ckpt")
                row["runs"].append({
                    "seed": int(seed),
                    "ba": result.test_report.balanced_accuracy,
                    "kappa": result.test_report.kappa,
                    "wf1": result.test_report.weighted_f1,
                })
            except MscgcError as exc:
                row["error"] = f"seed {seed}: {exc}"
                any_failed = True
                break
        if row["runs"] and row["error"] is None:
            for key in ("ba", "kappa", "wf1"):
                row[key] = float(np.mean([r[key] for r in row["runs"]]))
        rows.append(row)
    return rows, any_failed


def cmd_ablate(args, overrides) -> int:
    cfg = RunConfig.load(args.config, overrides)
    dataset, split = load_split(args.data, cfg)
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--seeds expects comma-separated integers, got {args.seeds!r}") from exc
    if min(seeds) < 0:
        raise ConfigError(f"--seeds must be at least 0, got {args.seeds!r}")
    # check both configs before anything is written
    cfg.model_config()
    cfg.train_config()
    run_dir = make_run_dir(args.out, args.run_name)
    cfg.echo(run_dir / "effective.json",
             extra={"command": "ablate", "data_dir": str(args.data), "seeds": seeds})

    def bundle_factory():
        return DatasetBundle(dataset.samples, dataset.labels, split, cfg["model.M"])

    rows, any_failed = run_ablation(cfg, bundle_factory, seeds, run_dir)
    with open(run_dir / "ablation.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config", "seeds", "ba", "kappa", "wf1", "config_hash", "error"])
        for row in rows:
            writer.writerow([
                row["config"],
                ";".join(str(s) for s in row["seeds"]),
                *(repr(row[key]) if key in row else "" for key in ("ba", "kappa", "wf1")),
                row.get("config_hash", ""),
                row["error"] or "",
            ])
    (run_dir / "ablation.json").write_text(json.dumps(rows, sort_keys=True, indent=1) + "\n",
                                           encoding="utf-8")
    for row in rows:
        status = row["error"] or (f"ba={row['ba']:.4f} kappa={row['kappa']:.4f} wf1={row['wf1']:.4f}")
        print(f"{row['config']}: {status}")
    print(f"outputs in {run_dir}")
    return 4 if any_failed else 0


def cmd_interpret(args) -> int:
    model, header = dio.build_model_from_checkpoint(args.checkpoint)
    dataset = dio.load_dataset(args.data)
    check_dataset_geometry(model, dataset)
    run_dir = make_run_dir(args.out, args.run_name)
    (run_dir / "effective.json").write_text(
        json.dumps({"command": "interpret", "checkpoint": str(args.checkpoint),
                    "checkpoint_epoch": header["epoch"], "data_dir": str(args.data),
                    "samples": args.samples, "seed": model.cfg.seed}, sort_keys=True) + "\n",
        encoding="utf-8")
    limit = min(len(dataset.samples), 1024)
    files = export_all(model, dataset.samples[:limit], dataset.labels[:limit], run_dir,
                       max_saliency_samples=args.samples)
    print(f"wrote {', '.join(files)} to {run_dir}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if args.corrupt:
        set_gradient_corruption(args.corrupt, 1.01)
    try:
        results = run_gradcheck(seed=args.seed)
    finally:
        clear_gradient_corruption()
    all_ok = True
    for name, err, ok in results:
        print(f"{name:24s} max_rel_err={err:.3e} {'PASS' if ok else 'FAIL'}")
        all_ok &= ok
    if not all_ok:
        failing = [name for name, _, ok in results if not ok]
        print(f"gradient check FAILED for: {', '.join(failing)}")
        return 1
    print(f"all {len(results)} layers below {TOLERANCE:g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mscgc",
        description="Task head for windowed multichannel classification: "
                    "data generation, training, ablation, interpretability export.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset directory")
    p.add_argument("--spec", default=None, help="JSON file of generator settings")
    p.add_argument("--out", required=True)

    for name in ("train", "eval", "ablate", "interpret"):
        p = sub.add_parser(name)
        if name != "interpret":
            p.add_argument("--config", default=None, help="JSON config of dotted keys")
        p.add_argument("--data", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--run-name", default=None)
        if name in ("eval", "interpret"):
            p.add_argument("--checkpoint", required=True)
        if name == "ablate":
            p.add_argument("--seeds", default="0,1,2")
        if name == "interpret":
            p.add_argument("--samples", type=int, default=16)

    p = sub.add_parser("gradcheck", help="finite-difference verification of every layer")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt", default=None,
                   help="verification hook: corrupt the named op's backward rule")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    overrides, rest = parse_override_args(argv)
    try:
        args = build_parser().parse_args(rest)
        if overrides and args.command in ("gen-data", "interpret", "gradcheck"):
            raise ConfigError(f"{args.command} takes no config keys, got {sorted(overrides)}")
        if args.command == "gen-data":
            return cmd_gen_data(args)
        if args.command == "train":
            return cmd_train(args, overrides)
        if args.command == "eval":
            return cmd_eval(args, overrides)
        if args.command == "ablate":
            return cmd_ablate(args, overrides)
        if args.command == "interpret":
            return cmd_interpret(args)
        if args.command == "gradcheck":
            return cmd_gradcheck(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (MscgcError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        # every other package error, and a file that cannot be read, is an
        # input, config or usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
