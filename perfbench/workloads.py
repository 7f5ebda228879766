"""Workload geometry, set-up, one round of work, and the output checks.

Every workload uses the planted-structure generator at ``SynthSpec()``
defaults (4000 samples, C=16, S=10, P=24, M=4) with the within-session
10/5/5 split, and drives the package only through its public calls.
A round is one fixed unit of a user's work; rounds repeat identically, so
counts per round repeat exactly:

- training workloads: ``train_loop`` on a fresh model, then reload the best
  checkpoint, evaluate the test split, and compute temporal saliency maps,
  as ``mscgc train`` followed by ``mscgc eval`` and ``mscgc interpret``;
- ``checkpoint_eval``: two ``evaluate_model`` passes over every sample and
  ``gradcam_temporal`` on 1000 single samples, on a desk checkpoint that a
  separate preparation process trained, so this process's peak memory is
  that of evaluation alone.

A check that fails, or a typed package error, counts one failed operation
against those attempted; it never stops the run.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from mscgc import data, interpret, training
from mscgc.errors import MscgcError
from mscgc.model import ModelConfig, MscgcKanModel


@dataclass(frozen=True)
class Workload:
    name: str
    train: bool            # rounds train; otherwise they evaluate a prepared checkpoint
    block: str
    hidden: int
    out_dim: int
    eval_passes: int       # evaluate_model passes per round
    saliency_calls: int    # gradcam_temporal calls per round
    # Best validation kappa must exceed this after `epochs` epochs. Chance is
    # 0; every seed tried at full size cleared it.
    kappa_floor: float = 0.05
    epochs: int = 2        # per train_loop call
    batch_size: int = 64
    eval_batch: int = 256
    D: int = 32
    spec: dict = field(default_factory=dict)
    ratios: tuple = (10, 5, 5)


WORKLOADS = {
    # Full model at the desk ablation geometry: the MCR block is most of a step.
    "desk_train": Workload("desk_train", True, "mcr", 48, 24, eval_passes=4, saliency_calls=400,
                           epochs=1),
    # `+KAN` ablation variant at paper head width: no MCR work, 2.76 M
    # parameters, so AdamW, clipping and 66 MB checkpoint writes dominate.
    "wide_head_train": Workload("wide_head_train", True, "identity", 512, 64,
                                eval_passes=16, saliency_calls=160, epochs=1),
    # Forward-only eval at batch 256 and batch-1 forward+backward saliency,
    # where per-op Python and tape overhead outweigh BLAS.
    "checkpoint_eval": Workload("checkpoint_eval", False, "mcr", 48, 24,
                                eval_passes=2, saliency_calls=1000),
}

PREDICTION_CHECK_SAMPLES = 1000

# Tiny geometry for the smoke test: seconds, not minutes. One epoch on 32
# samples learns nothing, so its kappa check reduces to "not NaN".
SMOKE = dict(D=8, hidden=12, out_dim=8, epochs=1, batch_size=16, eval_batch=16,
             eval_passes=2, saliency_calls=4, kappa_floor=-math.inf, ratios=(2, 2, 1),
             spec=dict(n_subjects=4, trials_per_subject=20, sessions_per_subject=4,
                       C=4, S=6, P=8))


def get_workload(name: str, smoke: bool) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **SMOKE) if smoke else w


def synth_spec(w: Workload, seed: int) -> data.SynthSpec:
    return data.SynthSpec(seed=seed, **w.spec)


def model_config(w: Workload, spec: data.SynthSpec, seed: int) -> ModelConfig:
    return ModelConfig(C=spec.C, S=spec.S, D=w.D, P=spec.P, M=spec.M, hidden=w.hidden,
                       out_dim=w.out_dim, block=w.block, kan="kan", seed=seed)


def train_config(w: Workload, seed: int) -> training.TrainConfig:
    return training.TrainConfig(epochs=w.epochs, batch_size=w.batch_size, seed=seed,
                                eval_batch_size=w.eval_batch)


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)
        return ok


@dataclass
class Measurements:
    setup_s: list = field(default_factory=list)
    train_samples_per_s: list = field(default_factory=list)
    eval_samples_per_s: list = field(default_factory=list)
    saliency_ms: list = field(default_factory=list)
    round_s: list = field(default_factory=list)


class Run:
    """One workload at one seed: set-up, rounds, and the state the checks share."""

    def __init__(self, w: Workload, seed: int, workdir: Path):
        self.w = w
        self.seed = seed
        self.workdir = workdir
        self.tally = Tally()
        self.m = Measurements()
        self.spec = synth_spec(w, seed)
        self.eval_model = None     # model the eval passes and saliency maps use
        self.eval_x = self.eval_y = None
        self.expected = None       # report every eval pass must reproduce

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        """Timed set-up. Training: generate + split + build model and
        optimizer. Eval: load the prepared dataset + build the model from
        the checkpoint."""
        w = self.w
        start = time.perf_counter()
        if w.train:
            self.dataset = data.gen_synthetic(self.spec)
            self.split = data.split_dataset(self.dataset.meta, "within_session", w.ratios)
            model = MscgcKanModel(model_config(w, self.spec, self.seed))
            training.AdamW(model.parameter_groups(), train_config(w, self.seed))
        else:
            self.dataset = data.load_dataset(self.workdir / "data")
            self.eval_model, _ = data.build_model_from_checkpoint(self.workdir / "prep.ckpt")
            self.eval_x, self.eval_y = self.dataset.samples, self.dataset.labels
        self.m.setup_s.append(time.perf_counter() - start)

    def record_preparation(self, prep: dict) -> None:
        """Checks and training rate of the process that made the checkpoint."""
        self.m.train_samples_per_s.append(prep["train_samples_per_s"])
        self._check_training(prep["losses"], prep["best_val_kappa"], "preparation train_loop")

    # -- one round ------------------------------------------------------------

    def round(self) -> None:
        start = time.perf_counter()
        if self.w.train:
            self._train_and_reload()
        if self.eval_model is not None:
            self._eval_and_saliency()
        self.m.round_s.append(time.perf_counter() - start)

    def _train_and_reload(self) -> None:
        w, tally = self.w, self.tally
        model = MscgcKanModel(model_config(w, self.spec, self.seed))
        bundle = training.DatasetBundle(self.dataset.samples, self.dataset.labels,
                                        self.split, self.spec.M)
        ckpt = self.workdir / "best.ckpt"
        self.eval_model = None
        start = time.perf_counter()
        try:
            result = training.train_loop(model, bundle, train_config(w, self.seed), ckpt)
        except MscgcError as exc:
            tally.check(False, f"train_loop raised {exc!r}")
            return
        elapsed = time.perf_counter() - start
        self.m.train_samples_per_s.append(len(self.split.train) * w.epochs / elapsed)
        self._check_training([r["train_loss"] for r in result.records],
                             result.best_val_kappa, "train_loop")
        try:
            self.eval_model, _ = data.build_model_from_checkpoint(ckpt)
        except MscgcError as exc:
            tally.check(False, f"reloading the best checkpoint raised {exc!r}")
            return
        tally.check(True, "reload")
        self.eval_x = self.dataset.samples[self.split.test]
        self.eval_y = self.dataset.labels[self.split.test]
        # the reloaded best checkpoint must reproduce train_loop's test report
        self.expected = result.test_report

    def _check_training(self, losses, best_kappa: float, what: str) -> None:
        finite = all(math.isfinite(x) for x in losses)
        self.tally.check(finite and best_kappa > self.w.kappa_floor,
                         f"{what}: losses {losses}, best val kappa {best_kappa} "
                         f"(floor {self.w.kappa_floor})")

    def _eval_and_saliency(self) -> None:
        """Eval passes with the saliency calls spread between them, so both
        metrics sample the same stretch of time."""
        w = self.w
        share = math.ceil(w.saliency_calls / w.eval_passes)
        for p in range(w.eval_passes):
            self._eval_pass()
            for i in range(p * share, min((p + 1) * share, w.saliency_calls)):
                self._saliency(i % len(self.eval_x))

    def _eval_pass(self) -> None:
        x, y = self.eval_x, self.eval_y
        start = time.perf_counter()
        try:
            report = training.evaluate_model(self.eval_model, x, y, self.spec.M,
                                             self.w.eval_batch)
        except MscgcError as exc:
            self.tally.check(False, f"evaluate_model raised {exc!r}")
            return
        self.m.eval_samples_per_s.append(len(x) / (time.perf_counter() - start))
        if self.expected is None:
            self.expected = report
        self.tally.check(same_report(report, self.expected),
                         "eval pass does not reproduce the expected test report")

    def _saliency(self, j: int) -> None:
        start = time.perf_counter()
        try:
            sal = interpret.gradcam_temporal(self.eval_model, self.eval_x[j], int(self.eval_y[j]))
        except MscgcError as exc:
            self.tally.check(False, f"gradcam_temporal raised {exc!r}")
            return
        self.m.saliency_ms.append((time.perf_counter() - start) * 1e3)
        s, c = self.spec.S, self.spec.C
        self.tally.check(_unit_map(sal.temporal, (s,)) and _unit_map(sal.per_channel, (c, s)),
                         f"saliency map of sample {j} has a bad shape or leaves [0, 1]")

    # -- once per run ---------------------------------------------------------

    def check_predictions(self) -> None:
        """Untimed: two prediction passes over the first eval samples agree."""
        if self.eval_model is None:
            return
        x = self.eval_x[:PREDICTION_CHECK_SAMPLES]
        try:
            first = training.predict_labels(self.eval_model, x, self.w.eval_batch)
            second = training.predict_labels(self.eval_model, x, self.w.eval_batch)
        except MscgcError as exc:
            self.tally.check(False, f"prediction passes raised {exc!r}")
            return
        self.tally.check(np.array_equal(first, second), "two prediction passes disagree")


def _unit_map(a: np.ndarray, shape: tuple) -> bool:
    return a.shape == shape and bool(np.isfinite(a).all()) and a.min() >= 0.0 and a.max() <= 1.0


def same_report(a, b) -> bool:
    """Exact equality of two MetricsReports, confusion counts included."""
    return (a.balanced_accuracy == b.balanced_accuracy and a.kappa == b.kappa
            and a.weighted_f1 == b.weighted_f1 and a.zero_division_flag == b.zero_division_flag
            and np.array_equal(a.cm.counts, b.cm.counts)
            and all(np.array_equal(getattr(a, f), getattr(b, f))
                    for f in ("per_class_recall", "per_class_precision", "per_class_f1")))


def prepare_checkpoint(w: Workload, seed: int, workdir: Path) -> None:
    """Generate and save the dataset, train the desk model, save its best
    checkpoint and the training figures. Runs in its own process."""
    spec = synth_spec(w, seed)
    dataset = data.gen_synthetic(spec)
    data.save_dataset(workdir / "data", dataset)
    split = data.split_dataset(dataset.meta, "within_session", w.ratios)
    model = MscgcKanModel(model_config(w, spec, seed))
    bundle = training.DatasetBundle(dataset.samples, dataset.labels, split, spec.M)
    start = time.perf_counter()
    result = training.train_loop(model, bundle, train_config(w, seed), workdir / "prep.ckpt")
    elapsed = time.perf_counter() - start
    (workdir / "prep.json").write_text(json.dumps({
        "train_samples_per_s": len(split.train) * w.epochs / elapsed,
        "losses": [r["train_loss"] for r in result.records],
        "best_val_kappa": result.best_val_kappa,
    }))
