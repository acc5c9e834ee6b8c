"""Binary classification metrics and report tables.

The positive class is fraudulent (label 1). A score at exactly the
threshold counts as a positive prediction; precision/recall/F1 fall back
to 0 when their denominators are empty.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError, ShapeError


@dataclass(frozen=True)
class ConfusionMatrix:
    tn: int
    fp: int
    fn: int
    tp: int

    @property
    def total(self) -> int:
        return self.tn + self.fp + self.fn + self.tp


@dataclass(frozen=True)
class MetricsReport:
    """A scored set; the field order is the order of its JSON form."""

    threshold: float
    confusion: ConfusionMatrix
    accuracy: float
    precision: float
    recall: float
    f1: float
    auroc: float

    def to_dict(self) -> dict:
        return asdict(self)


def _check_pair(labels, scores):
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape or labels.ndim != 1:
        raise ShapeError(
            f"labels and scores must be equal-length vectors, got {labels.shape} and {scores.shape}"
        )
    if labels.shape[0] == 0:
        raise DataError("cannot score an empty set")
    return labels.astype(np.int64), scores


def confusion_at(labels, scores, threshold: float) -> ConfusionMatrix:
    """Tally predictions (score >= threshold) against 0/1 labels."""
    labels, scores = _check_pair(labels, scores)
    predicted = scores >= threshold
    actual = labels == 1
    return ConfusionMatrix(
        tn=int((~predicted & ~actual).sum()),
        fp=int((predicted & ~actual).sum()),
        fn=int((~predicted & actual).sum()),
        tp=int((predicted & actual).sum()),
    )


def classification_scores(cm: ConfusionMatrix) -> dict:
    if cm.total == 0:
        raise DataError("empty confusion matrix")
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {
        "accuracy": (cm.tp + cm.tn) / cm.total,
        "precision": precision,
        "recall": recall,
        "f1": f1,
    }


def roc_auc(labels, scores) -> float:
    """Probability a random positive outscores a random negative, ties
    counting one half; computed from average ranks."""
    labels, scores = _check_pair(labels, scores)
    n_pos = int((labels == 1).sum())
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC AUC is undefined when only one class is present")
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (ends - (counts - 1) / 2.0)[group]  # average 1-based rank of each tie group
    pos_rank_sum = ranks[labels == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def compute_report(labels, scores, threshold: float) -> MetricsReport:
    cm = confusion_at(labels, scores, threshold)
    return MetricsReport(threshold=threshold, confusion=cm, **classification_scores(cm),
                         auroc=roc_auc(labels, scores))


def report_tables(named_reports) -> tuple:
    """(markdown text, JSON-ready list) for a set of (name, MetricsReport).

    The table rounds ratios to two decimals and shows accuracy as a
    percentage; the JSON form keeps full precision.
    """
    if not named_reports:
        raise DataError("report_tables needs at least one result")
    lines = [
        "| model | auroc | accuracy | precision | recall | f1 score |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for name, report in named_reports:
        lines.append(
            f"| {name} | {report.auroc:.2f} | {report.accuracy * 100:.2f}% "
            f"| {report.precision:.2f} | {report.recall:.2f} | {report.f1:.2f} |"
        )
    lines.append("")
    for name, report in named_reports:
        cm = report.confusion
        lines.extend(
            [
                f"Confusion matrix - {name} (threshold {report.threshold:g}):",
                "",
                "|  | predicted genuine | predicted fake |",
                "| --- | --- | --- |",
                f"| actual genuine | {cm.tn} | {cm.fp} |",
                f"| actual fake | {cm.fn} | {cm.tp} |",
                "",
            ]
        )
    payload = [{"model": name, **report.to_dict()} for name, report in named_reports]
    return "\n".join(lines), payload
