"""Interpretability exports: learned connectivity and hub ranking, temporal
saliency via gradient-weighted activations, basis-group importance of the
mapping layer, and per-class channel activation profiles.

All exports are numeric (CSV); rendering is left to external tools. Hub
strength excludes the diagonal so self-loops never dominate the ranking.
The saliency target layer is the block output H (B, C, S, D): weights
alpha[c, d] are the gradient of the target logit pooled over the window
axis, and saliency(s) = relu(sum_{c,d} alpha[c, d] * H[c, s, d]), shifted
and scaled to [0, 1]; the per-channel variant skips the sum over channels.
The activation profile and the basis probe read H through
`MscgcKanModel.infer`: an H that is not all finite raises NumericalError
naming its sample, so no export averages a NaN.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import UsageError, ValidationError
from .graph import normalize_adjacency
from .kan import KanLayer, basis_expand
from .model import MscgcKanModel
from .tensor import Tensor, as_tensor, backward_hook, reduce_sum


@dataclass
class HubReport:
    """Channels ranked by off-diagonal connection strength (descending,
    ties broken by ascending channel index)."""

    ranking: np.ndarray
    strengths: np.ndarray


@dataclass
class SaliencyMap:
    temporal: np.ndarray
    per_channel: np.ndarray


def export_adjacency(model: MscgcKanModel):
    """Normalized adjacency plus the hub ranking derived from it."""
    if model.block is None:
        raise UsageError("model has no graph block to export")
    a_hat = normalize_adjacency(model.block.adjacency).data
    off_diag = np.abs(a_hat) - np.diag(np.diag(np.abs(a_hat)))
    strengths = off_diag.sum(axis=1)
    order = np.lexsort((np.arange(strengths.size), -strengths))
    return a_hat, HubReport(order, strengths)


def gradcam_temporal(model: MscgcKanModel, sample, target_class: int) -> SaliencyMap:
    """Gradient-weighted temporal saliency of one sample for one class.

    The backward stops at the head's weights (`model.frozen_head`), so no
    mapping or classifier weight gradient is built, and a backward hook copies
    out the block output's gradient; H is made a leaf where nothing upstream
    of it requires grad. Every parameter's `.grad` is the caller's again on
    return or error.
    """
    x = as_tensor(sample)
    if x.ndim == 3:
        x = x.reshape((1,) + x.shape)
    if x.shape[0] != 1:
        raise ValidationError(f"gradcam expects a single sample, got batch {x.shape[0]}")
    if (isinstance(target_class, bool) or not isinstance(target_class, (int, np.integer))
            or not 0 <= target_class < model.cfg.M):
        raise ValidationError(f"target class {target_class!r} is not an integer in [0, {model.cfg.M})")
    if not np.isfinite(x.data).all():
        raise ValidationError("gradcam expects a finite sample")
    held = [(p, p.grad) for _, p in model.named_parameters()]
    try:
        with model.eval_mode(), model.frozen_head():
            model.zero_grads()
            h = model.features(x)
            if not h.requires_grad:
                h = Tensor(h.data, requires_grad=True)
            logits = model.head(h)
            mask = np.zeros(logits.shape)
            mask[0, target_class] = 1.0
            h_grad = []

            def keep_h_grad(node, grad):
                if node is h:
                    h_grad.append(grad.copy())  # an interior H's rule hands views of it on
                return grad

            with backward_hook(keep_h_grad):
                reduce_sum(logits * Tensor(mask)).backward()
    finally:
        for p, grad in held:
            p.grad = grad
    act = h.data[0]          # (C, S, D)
    alpha = h_grad[0][0].mean(axis=1)                     # (C, D), pooled over windows
    per_channel = _rescale(np.maximum(np.einsum("cd,csd->cs", alpha, act), 0.0))
    temporal = _rescale(np.maximum(np.einsum("cd,csd->s", alpha, act), 0.0))
    return SaliencyMap(temporal, per_channel)


def _rescale(cam: np.ndarray) -> np.ndarray:
    # shift-and-scale to [0, 1]: removes the position-constant attribution
    # offset so the map highlights relative salience; all-zero maps stay zero
    cam = cam - cam.min()
    peak = cam.max()
    return cam / peak if peak > 0 else cam


def kan_basis_importance(model: MscgcKanModel, probe_batch=None, bins: int = 20):
    """Mean |weight| of the output projection per basis group (in the order of
    `model.kan.basis_names`), plus response histograms of each basis over an
    optional probe batch."""
    kan = model.kan
    if not isinstance(kan, KanLayer):
        raise UsageError("model uses an affine mapping; no basis groups to analyze")
    w = np.abs(kan.out_proj.weight.data)
    hidden = kan.hidden
    groups = [slice(g * hidden, (g + 1) * hidden) for g in range(kan.num_bases)]
    importance = np.array([w[:, group].mean() for group in groups])
    histograms = None
    if probe_batch is not None:
        responses = np.concatenate(model.infer(np.asarray(probe_batch), lambda h: basis_expand(
            kan.hidden_activations(h.reshape(len(h), -1)), kan.harmonics).data, "features"))
        histograms = {name: np.histogram(responses[:, group].ravel(), bins=bins)
                      for name, group in zip(kan.basis_names, groups)}
    return importance, histograms


def channel_activation(model: MscgcKanModel, samples, labels, batch_size: int = 256):
    """Per class, mean |H| per channel over samples and (S, D).

    Returns an (M, C) array; classes without samples get a zero row and a
    warning, and are omitted from the CSV export. H comes from `model.infer`,
    so a sample whose H is not all finite raises NumericalError naming it.
    """
    samples = np.asarray(samples)
    labels = np.asarray(labels)
    m, c = model.cfg.M, model.cfg.C
    if labels.shape != (len(samples),) or labels.size and (
            labels.dtype.kind not in "iu" or labels.min() < 0 or labels.max() >= m):
        raise ValidationError(f"labels must be one integer in [0, {m}) per sample")
    labels = labels.astype(np.int64)  # an empty label list may be a float array
    parts = model.infer(samples, lambda h: np.abs(h).mean(axis=(2, 3)), "features", batch_size)
    sums = np.zeros((m, c))
    # np.add.at adds the rows in sample order, as a loop over samples would
    np.add.at(sums, labels, np.concatenate(parts) if parts else np.zeros((0, c)))
    counts = np.bincount(labels, minlength=m)
    empty = [cls for cls in range(m) if counts[cls] == 0]
    for cls in empty:
        warnings.warn(f"class {cls} has no samples; activation row omitted")
    return sums / np.maximum(counts, 1)[:, None], empty


# -- CSV writers --------------------------------------------------------------


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(header)
        writer.writerows(rows)


def export_all(model: MscgcKanModel, samples, labels, out_dir, max_saliency_samples: int = 16):
    """Write the five interpretability CSVs into `out_dir`. Every table is
    computed before the first file is written, so an export that fails
    writes none."""
    a_hat, hubs = export_adjacency(model)
    saliency_rows = []
    for sid in range(min(max_saliency_samples, len(samples))):
        sal = gradcam_temporal(model, samples[sid], int(labels[sid]))
        saliency_rows.extend([sid, s, repr(float(value))] for s, value in enumerate(sal.temporal))
    importance, _ = kan_basis_importance(model)
    activation, empty = channel_activation(model, samples, labels)

    tables = {
        "adjacency.csv": (None, [[repr(v) for v in row] for row in a_hat]),
        "hubs.csv": (["rank", "channel", "strength"],
                     [[rank, int(ch), repr(float(hubs.strengths[ch]))]
                      for rank, ch in enumerate(hubs.ranking)]),
        "saliency.csv": (["sample", "s", "value"], saliency_rows),
        "kan_importance.csv": (["basis", "importance"],
                               [[name, repr(float(value))]
                                for name, value in zip(model.kan.basis_names, importance)]),
        "activation.csv": (["class", "channel", "value"],
                           [[cls, ch, repr(float(activation[cls, ch]))]
                            for cls in range(model.cfg.M) if cls not in empty
                            for ch in range(model.cfg.C)]),
    }
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        _write_csv(out_dir / name, header, rows)
    return list(tables)
