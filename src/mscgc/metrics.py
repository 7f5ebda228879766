"""Confusion-matrix evaluation: balanced accuracy, Cohen's kappa, weighted F1.

Per-class 0/0 ratios resolve to 0 and set a warning flag on the report; the
aggregate "accuracy" notion exposed here is always balanced accuracy, never
plain accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UndefinedMetricError, ValidationError


@dataclass
class ConfusionMatrix:
    """Counts n[i, j]: row = true class i, column = predicted class j."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValidationError(f"confusion matrix must be square, got {self.counts.shape}")
        if (self.counts < 0).any():
            raise ValidationError("confusion matrix entries must be nonnegative")

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass
class MetricsReport:
    balanced_accuracy: float
    kappa: float
    weighted_f1: float
    per_class_recall: np.ndarray
    per_class_precision: np.ndarray
    per_class_f1: np.ndarray
    cm: ConfusionMatrix
    zero_division_flag: bool = field(default=False)

    def to_flat_dict(self) -> dict:
        out = {"ba": self.balanced_accuracy, "kappa": self.kappa, "wf1": self.weighted_f1}
        for c in range(self.cm.num_classes):
            out[f"recall_{c}"] = float(self.per_class_recall[c])
            out[f"precision_{c}"] = float(self.per_class_precision[c])
            out[f"f1_{c}"] = float(self.per_class_f1[c])
        return out

    def to_csv_row(self) -> tuple[list[str], list[str]]:
        flat = self.to_flat_dict()
        header = list(flat.keys())
        return header, [repr(flat[k]) for k in header]


def confusion_from_predictions(true_labels, pred_labels, num_classes: int) -> ConfusionMatrix:
    true_labels = np.asarray(true_labels, dtype=np.int64)
    pred_labels = np.asarray(pred_labels, dtype=np.int64)
    if true_labels.shape != pred_labels.shape or true_labels.ndim != 1:
        raise ValidationError("true and predicted labels must be 1-D arrays of equal length")
    for name, arr in (("true", true_labels), ("predicted", pred_labels)):
        if arr.size and (arr.min() < 0 or arr.max() >= num_classes):
            raise ValidationError(f"{name} labels must lie in [0, {num_classes})")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (true_labels, pred_labels), 1)
    return ConfusionMatrix(counts)


def _check_nonempty(cm: ConfusionMatrix) -> None:
    if cm.total == 0:
        raise UndefinedMetricError("metrics are undefined on an all-zero confusion matrix")


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num, dtype=np.float64)
    np.divide(num, den, out=out, where=den > 0)
    return out


def _per_class(cm: ConfusionMatrix):
    """Per-class (support, predicted count, recall, precision, F1); 0/0 ratios are 0."""
    _check_nonempty(cm)
    tp = np.diag(cm.counts).astype(np.float64)
    support = cm.counts.sum(axis=1).astype(np.float64)
    predicted = cm.counts.sum(axis=0).astype(np.float64)
    recall = _safe_div(tp, support)
    precision = _safe_div(tp, predicted)
    f1 = _safe_div(2.0 * precision * recall, precision + recall)
    return support, predicted, recall, precision, f1


def balanced_accuracy(cm: ConfusionMatrix) -> float:
    """Mean per-class recall; 0/0 recall counts as 0."""
    return float(_per_class(cm)[2].mean())


def cohen_kappa(cm: ConfusionMatrix) -> float:
    """(p_o - p_e) / (1 - p_e); undefined when chance agreement p_e is 1."""
    _check_nonempty(cm)
    n = cm.total
    p_o = np.diag(cm.counts).sum() / n
    p_e = float((cm.counts.sum(axis=1) * cm.counts.sum(axis=0)).sum()) / (n * n)
    if p_e == 1.0:
        raise UndefinedMetricError("kappa undefined: chance agreement is 1")
    return float((p_o - p_e) / (1.0 - p_e))


def weighted_f1(cm: ConfusionMatrix) -> float:
    """Support-weighted mean per-class F1; 0/0 ratios resolve to 0."""
    support, _, _, _, f1 = _per_class(cm)
    return float((support / cm.total * f1).sum())


def report_from_confusion(cm: ConfusionMatrix) -> MetricsReport:
    support, predicted, recall, precision, f1 = _per_class(cm)
    return MetricsReport(
        balanced_accuracy=balanced_accuracy(cm),
        kappa=cohen_kappa(cm),
        weighted_f1=weighted_f1(cm),
        per_class_recall=recall,
        per_class_precision=precision,
        per_class_f1=f1,
        cm=cm,
        zero_division_flag=bool((support == 0).any() or (predicted == 0).any()),
    )


def report_from_predictions(true_labels, pred_labels, num_classes: int) -> MetricsReport:
    return report_from_confusion(confusion_from_predictions(true_labels, pred_labels, num_classes))
