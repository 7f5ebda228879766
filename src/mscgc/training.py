"""Optimization loop: decoupled-weight-decay Adam with per-iteration cosine
annealing across parameter groups, gradient clipping, and kappa-based
checkpoint selection on the validation split.

The cosine horizon is the total iteration count (epochs x batches per epoch),
with no restarts. Weight decay skips biases and norm scales/shifts unless
`decay_biases` is set. Checkpoints are replaced only on strictly greater
validation kappa, so the earliest best epoch wins ties.
Every prediction pass runs through `MscgcKanModel.infer`, so logits that are
not all finite raise NumericalError naming the first such sample.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .checks import check_fields, check_items
from .errors import ConfigError, DimensionError, NumericalError, UsageError, ValidationError
from .metrics import MetricsReport, report_from_predictions
from .model import MscgcKanModel
from .tensor import softmax_cross_entropy

# Decay skips biases, norm scales/shifts, and the adjacency logits (decaying
# the adjacency pulls the graph back to the identity and erases learned
# connectivity).
NO_DECAY_SUFFIXES = (".bias", ".gamma", ".beta", "ln_gamma", "ln_beta", "adjacency.A")


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 64
    weight_decay: float = 5e-2
    lr_backbone: float = 1e-4
    lr_head: float = 5e-4
    lr_min: float = 1e-6
    clip_norm: float = 1.0
    betas: tuple = (0.9, 0.999)
    adam_eps: float = 1e-8
    seed: int = 0
    decay_biases: bool = False
    eval_batch_size: int = 256

    # an infinite clip_norm turns clipping off
    INTERVALS = {**dict.fromkeys(("epochs", "batch_size", "eval_batch_size"), "[1, inf)"),
                 **dict.fromkeys(("lr_backbone", "lr_head", "lr_min", "adam_eps"), "(0, inf)"),
                 "weight_decay": "[0, inf)", "clip_norm": "(0, inf]", "seed": "[0, inf)"}

    def __post_init__(self):
        check_fields(self)
        if self.lr_min > min(self.lr_backbone, self.lr_head):
            raise ConfigError("lr_min must not exceed the base learning rates")
        self.betas = tuple(float(b) for b in check_items("betas", self.betas, float, "[0, 1)", 2))


def cosine_lr(step: int, total: int, base: float, lr_min: float) -> float:
    """Cosine annealing from `base` at step 0 to `lr_min` at step `total`."""
    if total < 1:
        raise ConfigError(f"total steps must be >= 1, got {total}")
    if step < 0:
        raise ValidationError(f"step must be nonnegative, got {step}")
    if step > total:
        warnings.warn(f"cosine_lr: step {step} beyond horizon {total}; clamping to lr_min")
        return lr_min
    return lr_min + 0.5 * (base - lr_min) * (1.0 + math.cos(math.pi * step / total))


def clip_gradients(params, max_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most `max_norm`.

    Returns the pre-clip global norm. Gradients exactly at the bound are
    left unchanged.
    """
    sq = 0.0
    grads = []
    for p in params:
        if p.grad is not None:
            grads.append(p.grad)
            sq += float(np.vdot(p.grad, p.grad))
    norm = math.sqrt(sq)
    if not math.isfinite(norm):
        raise NumericalError("non-finite gradient norm")
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


# Elements per block of `adamw_step`: 16 Ki float64 = 128 KB per array, so a
# block of the parameter, its gradient, both moments and the scratch array
# stays in a per-core L2 cache.
ADAMW_BLOCK = 1 << 14


def adamw_step(value: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
               step: int, lr_t: float, weight_decay: float,
               beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One in-place update: theta -= lr_t * (m_hat / (sqrt(v_hat) + eps) + wd * theta).

    Computed in the algebraically identical form
    m * c / (sqrt(v) + eps * sqrt(1 - beta2^t)), c = sqrt(1 - beta2^t) / (1 - beta1^t),
    which avoids materializing the bias-corrected moments. The update runs
    block by block over flat views, ADAMW_BLOCK elements at a time, with the
    same elementwise operations in the same order as a whole-array update,
    so the result is bitwise the same. The step spends `grad`: once a block
    of `v` is updated, that block of `grad` holds the update. All four arrays
    must be C-contiguous and writeable.
    """
    if grad.shape != value.shape or m.shape != value.shape or v.shape != value.shape:
        raise DimensionError(f"adamw_step: grad {grad.shape}, m {m.shape} and v {v.shape} "
                             f"must match the parameter shape {value.shape}")
    if not all(a.flags.c_contiguous and a.flags.writeable for a in (value, grad, m, v)):
        raise UsageError("adamw_step: value, grad, m and v must be C-contiguous and writeable")
    if not np.isfinite(grad).all():
        raise NumericalError("non-finite gradient in optimizer step")
    x, g, mf, vf = (a.reshape(-1) for a in (value, grad, m, v))
    bc2_sqrt = math.sqrt(1.0 - beta2 ** step)
    eps_t = eps * bc2_sqrt
    step_size = lr_t * bc2_sqrt / (1.0 - beta1 ** step)
    decay = lr_t * weight_decay
    scratch = np.empty(min(x.size, ADAMW_BLOCK))
    for lo in range(0, x.size, ADAMW_BLOCK):
        hi = min(lo + ADAMW_BLOCK, x.size)
        gb, mb, vb, xb = g[lo:hi], mf[lo:hi], vf[lo:hi], x[lo:hi]
        t = scratch[:hi - lo]
        mb *= beta1
        mb += np.multiply(1.0 - beta1, gb, out=t)
        vb *= beta2
        np.multiply(1.0 - beta2, gb, out=t)
        vb += np.multiply(t, gb, out=t)
        np.sqrt(vb, out=gb)
        gb += eps_t
        np.divide(mb, gb, out=gb)
        gb *= step_size
        if weight_decay:
            gb += np.multiply(decay, xb, out=t)
        xb -= gb


# One optimized parameter: its group and name, the tensor, both moments and
# its weight decay.
Slot = namedtuple("Slot", "group name param m v decay")


class AdamW:
    """Decoupled-weight-decay Adam with one slot per parameter, in group order."""

    def __init__(self, groups: dict, cfg: TrainConfig):
        self.cfg = cfg
        self.slots = [
            Slot(group, name, p, np.zeros_like(p.data), np.zeros_like(p.data),
                 0.0 if not cfg.decay_biases and name.endswith(NO_DECAY_SUFFIXES)
                 else cfg.weight_decay)
            for group, named in groups.items() for name, p in named]
        self.step_count = 0

    def all_params(self):
        return [s.param for s in self.slots]

    def step(self, lrs: dict) -> None:
        """Apply one update with the given per-group learning rates. Each
        parameter's gradient is spent by the update, so its `.grad` ends None."""
        self.step_count += 1
        b1, b2 = self.cfg.betas
        for s in self.slots:
            p = s.param
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            adamw_step(p.data, grad, s.m, s.v, self.step_count, lrs[s.group], s.decay,
                       beta1=b1, beta2=b2, eps=self.cfg.adam_eps)
            p.grad = None

    def named_state(self):
        """(name, array) pairs to checkpoint. The moments are the live arrays,
        which load_checkpoint fills in place; the step count is a copy."""
        named = [("step_count", np.asarray(float(self.step_count)))]
        for s in self.slots:
            named += [(f"m.{s.name}", s.m), (f"v.{s.name}", s.v)]
        return named


class DatasetBundle:
    """Train/val/test views over one sample array, with access recording.

    `access_log` keeps the order in which splits were read, so tests can
    assert the loop never touches test data before final evaluation.
    """

    def __init__(self, samples: np.ndarray, labels: np.ndarray, split, num_classes: int):
        self.samples = samples
        self.labels = labels
        self.split = split
        self.num_classes = num_classes
        self.access_log: list[str] = []

    def take(self, name: str):
        """The split's row indices into `samples` and its labels; the rows
        themselves are gathered a batch at a time, so no split is copied."""
        if name not in ("train", "val", "test"):
            raise ValidationError(f"unknown split {name!r}")
        self.access_log.append(name)
        idx = np.asarray(getattr(self.split, name))
        return idx, self.labels[idx]


@dataclass
class TrainResult:
    best_epoch: int
    best_val_kappa: float
    records: list
    test_report: MetricsReport
    checkpoint_path: str
    final_train_ba: float = float("nan")


def predict_labels(model: MscgcKanModel, samples: np.ndarray, batch_size: int = 256,
                   index=None) -> np.ndarray:
    """Argmax of the logits of `model.infer`; with `index`, those of the rows
    `samples[index]`, in that order."""
    preds = model.infer(samples, lambda logits: np.argmax(logits, axis=1),
                        batch_size=batch_size, index=index)
    return np.concatenate(preds) if preds else np.zeros(0, dtype=np.int64)


def evaluate_model(model: MscgcKanModel, samples: np.ndarray, labels: np.ndarray,
                   num_classes: int, batch_size: int = 256, index=None) -> MetricsReport:
    """Metrics of `predict_labels`; with `index`, `labels` are those of the
    rows `samples[index]`."""
    preds = predict_labels(model, samples, batch_size, index)
    return report_from_predictions(labels, preds, num_classes)


def train_loop(model: MscgcKanModel, bundle: DatasetBundle, cfg: TrainConfig,
               checkpoint_path, log_path=None) -> TrainResult:
    """Run the full optimization schedule and return test metrics of the best
    validation-kappa checkpoint."""
    from .data import load_checkpoint, save_checkpoint

    train_idx, train_y = bundle.take("train")
    val_idx, val_y = bundle.take("val")
    if len(train_idx) == 0 or len(val_idx) == 0:
        raise ConfigError("train and validation splits must be nonempty")

    optimizer = AdamW(model.parameter_groups(), cfg)
    batches_per_epoch = math.ceil(len(train_idx) / cfg.batch_size)
    total_steps = cfg.epochs * batches_per_epoch
    shuffle_rng = np.random.default_rng([cfg.seed, 2])

    records = []
    best_kappa = -np.inf
    best_epoch = -1
    step = 0
    log_file = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        for epoch in range(1, cfg.epochs + 1):
            model.set_mode("train")
            perm = shuffle_rng.permutation(len(train_idx))
            losses = []
            lrs = {}
            for b in range(batches_per_epoch):
                idx = perm[b * cfg.batch_size:(b + 1) * cfg.batch_size]
                logits = model.forward(bundle.samples[train_idx[idx]])
                loss = softmax_cross_entropy(logits, train_y[idx])
                loss_val = float(loss.data)
                if not math.isfinite(loss_val):
                    raise NumericalError(f"non-finite loss at epoch {epoch}, batch {b}")
                model.zero_grads()
                loss.backward()
                clip_gradients(optimizer.all_params(), cfg.clip_norm)
                lrs = {
                    "backbone": cosine_lr(step, total_steps, cfg.lr_backbone, cfg.lr_min),
                    "head": cosine_lr(step, total_steps, cfg.lr_head, cfg.lr_min),
                }
                optimizer.step(lrs)
                step += 1
                losses.append(loss_val)

            val_report = evaluate_model(model, bundle.samples, val_y, bundle.num_classes,
                                        cfg.eval_batch_size, val_idx)
            record = {
                "epoch": epoch,
                "train_loss": float(np.mean(losses)),
                "val_ba": val_report.balanced_accuracy,
                "val_kappa": val_report.kappa,
                "val_wf1": val_report.weighted_f1,
                "lr_head": lrs["head"],
                "lr_backbone": lrs["backbone"],
            }
            records.append(record)
            if log_file:
                log_file.write(json.dumps(record, sort_keys=True) + "\n")
                log_file.flush()
            if val_report.kappa > best_kappa:
                best_kappa = val_report.kappa
                best_epoch = epoch
                save_checkpoint(checkpoint_path, model, optimizer, epoch, val_report.kappa)
    finally:
        if log_file:
            log_file.close()

    # train-split accuracy of the final-epoch state, before the best
    # checkpoint is restored; diagnostic for fitting capacity
    final_train = evaluate_model(model, bundle.samples, train_y, bundle.num_classes,
                                 cfg.eval_batch_size, train_idx)
    load_checkpoint(checkpoint_path, model)  # the optimizer is dropped on return
    test_idx, test_y = bundle.take("test")
    if len(test_idx) == 0:
        raise ConfigError("test split must be nonempty")
    test_report = evaluate_model(model, bundle.samples, test_y, bundle.num_classes,
                                 cfg.eval_batch_size, test_idx)
    return TrainResult(best_epoch, best_kappa, records, test_report, str(checkpoint_path),
                       final_train_ba=final_train.balanced_accuracy)
