"""Optimization loop: decoupled-weight-decay Adam with per-iteration cosine
annealing across parameter groups, gradient clipping, and kappa-based
checkpoint selection on the validation split.

The cosine horizon is the total iteration count (epochs x batches per epoch),
with no restarts. Weight decay skips biases and norm scales/shifts unless
`decay_biases` is set. Checkpoints are replaced only on strictly greater
validation kappa, so the earliest best epoch wins ties.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NumericalError, ValidationError
from .metrics import MetricsReport, report_from_predictions
from .model import MscgcKanModel, is_int
from .tensor import no_grad, softmax_cross_entropy

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

    def __post_init__(self):
        for name in ("epochs", "batch_size", "eval_batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        # written as `not (ok)` so that NaN is rejected too
        for name in ("lr_backbone", "lr_head", "lr_min", "clip_norm", "adam_eps"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.weight_decay >= 0:
            raise ConfigError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if not is_int(self.seed, 0):
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.lr_min > min(self.lr_backbone, self.lr_head):
            raise ConfigError("lr_min must not exceed the base learning rates")
        self.betas = tuple(float(b) for b in self.betas)
        if not all(0.0 <= b < 1.0 for b in self.betas):
            raise ConfigError(f"betas must lie in [0, 1), got {list(self.betas)}")


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
# block of the parameter, its gradient, both moments and two scratch arrays
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
    so the result is bitwise the same. Arrays that are not C-contiguous are
    updated through contiguous copies that are written back.
    """
    if grad.shape != value.shape or m.shape != value.shape or v.shape != value.shape:
        raise DimensionError(f"adamw_step: grad {grad.shape}, m {m.shape} and v {v.shape} "
                             f"must match the parameter shape {value.shape}")
    if not np.isfinite(grad).all():
        raise NumericalError("non-finite gradient in optimizer step")
    state = (value, m, v)
    work = [a if a.flags.c_contiguous else np.ascontiguousarray(a) for a in state]
    x, mf, vf = (a.reshape(-1) for a in work)
    g = np.ascontiguousarray(grad).reshape(-1)
    bc2_sqrt = math.sqrt(1.0 - beta2 ** step)
    eps_t = eps * bc2_sqrt
    step_size = lr_t * bc2_sqrt / (1.0 - beta1 ** step)
    decay = lr_t * weight_decay
    scratch = np.empty(min(x.size, ADAMW_BLOCK))
    update = np.empty_like(scratch)
    for lo in range(0, x.size, ADAMW_BLOCK):
        hi = min(lo + ADAMW_BLOCK, x.size)
        gb, mb, vb, xb = g[lo:hi], mf[lo:hi], vf[lo:hi], x[lo:hi]
        t, u = scratch[:hi - lo], update[:hi - lo]
        mb *= beta1
        mb += np.multiply(1.0 - beta1, gb, out=t)
        vb *= beta2
        np.multiply(1.0 - beta2, gb, out=t)
        vb += np.multiply(t, gb, out=t)
        np.sqrt(vb, out=u)
        u += eps_t
        np.divide(mb, u, out=u)
        u *= step_size
        if weight_decay:
            u += np.multiply(decay, xb, out=t)
        xb -= u
    for dst, src in zip(state, work):
        if src is not dst:
            dst[...] = src


class AdamW:
    """Decoupled-weight-decay Adam over named parameter groups."""

    def __init__(self, groups: dict, cfg: TrainConfig):
        self.cfg = cfg
        self.groups = {}
        for group_name, named in groups.items():
            entries = []
            for name, p in named:
                decay = cfg.weight_decay
                if not cfg.decay_biases and name.endswith(NO_DECAY_SUFFIXES):
                    decay = 0.0
                entries.append({
                    "name": name,
                    "param": p,
                    "m": np.zeros_like(p.data),
                    "v": np.zeros_like(p.data),
                    "decay": decay,
                })
            self.groups[group_name] = {"entries": entries}
        self.step_count = 0

    def all_params(self):
        return [e["param"] for g in self.groups.values() for e in g["entries"]]

    def step(self, lrs: dict) -> None:
        """Apply one update with the given per-group learning rates."""
        self.step_count += 1
        b1, b2 = self.cfg.betas
        for group_name, group in self.groups.items():
            lr_t = lrs[group_name]
            for e in group["entries"]:
                p = e["param"]
                grad = p.grad if p.grad is not None else np.zeros_like(p.data)
                adamw_step(p.data, grad, e["m"], e["v"], self.step_count, lr_t,
                           e["decay"], beta1=b1, beta2=b2, eps=self.cfg.adam_eps)

    def named_state(self):
        """(name, array) pairs to checkpoint. The moments are the live arrays,
        which load_checkpoint fills in place; the step count is a copy."""
        named = [("step_count", np.asarray(float(self.step_count)))]
        for group in self.groups.values():
            for e in group["entries"]:
                named.append((f"m.{e['name']}", e["m"]))
                named.append((f"v.{e['name']}", e["v"]))
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
        if name not in ("train", "val", "test"):
            raise ValidationError(f"unknown split {name!r}")
        self.access_log.append(name)
        idx = getattr(self.split, name)
        return self.samples[idx], self.labels[idx]


@dataclass
class TrainResult:
    best_epoch: int
    best_val_kappa: float
    records: list
    test_report: MetricsReport
    checkpoint_path: str
    final_train_ba: float = float("nan")


def predict_labels(model: MscgcKanModel, samples: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Eval-mode argmax predictions, batched and without a tape; restores the
    model's prior mode."""
    preds = []
    with model.eval_mode(), no_grad():
        for start in range(0, len(samples), batch_size):
            logits = model.forward(samples[start:start + batch_size])
            preds.append(np.argmax(logits.data, axis=1))
    return np.concatenate(preds) if preds else np.zeros(0, dtype=np.int64)


def evaluate_model(model: MscgcKanModel, samples: np.ndarray, labels: np.ndarray,
                   num_classes: int, batch_size: int = 256) -> MetricsReport:
    preds = predict_labels(model, samples, batch_size)
    return report_from_predictions(labels, preds, num_classes)


def train_loop(model: MscgcKanModel, bundle: DatasetBundle, cfg: TrainConfig,
               checkpoint_path, log_path=None) -> TrainResult:
    """Run the full optimization schedule and return test metrics of the best
    validation-kappa checkpoint."""
    from .data import load_checkpoint, save_checkpoint

    train_x, train_y = bundle.take("train")
    val_x, val_y = bundle.take("val")
    if len(train_x) == 0 or len(val_x) == 0:
        raise ConfigError("train and validation splits must be nonempty")

    optimizer = AdamW(model.parameter_groups(), cfg)
    batches_per_epoch = math.ceil(len(train_x) / cfg.batch_size)
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
            perm = shuffle_rng.permutation(len(train_x))
            losses = []
            lrs = {}
            for b in range(batches_per_epoch):
                idx = perm[b * cfg.batch_size:(b + 1) * cfg.batch_size]
                logits = model.forward(train_x[idx])
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

            val_report = evaluate_model(model, val_x, val_y, bundle.num_classes,
                                        cfg.eval_batch_size)
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
    final_train = evaluate_model(model, train_x, train_y, bundle.num_classes,
                                 cfg.eval_batch_size)
    load_checkpoint(checkpoint_path, model, optimizer)
    test_x, test_y = bundle.take("test")
    if len(test_x) == 0:
        raise ConfigError("test split must be nonempty")
    test_report = evaluate_model(model, test_x, test_y, bundle.num_classes, cfg.eval_batch_size)
    return TrainResult(best_epoch, best_kappa, records, test_report, str(checkpoint_path),
                       final_train_ba=final_train.balanced_accuracy)
