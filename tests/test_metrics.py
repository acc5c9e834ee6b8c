import itertools
import json

import numpy as np
import pytest

from jobfraud.errors import DataError, ShapeError
from jobfraud.metrics import (
    ConfusionMatrix,
    classification_scores,
    compute_report,
    confusion_at,
    report_tables,
    roc_auc,
)
from jobfraud.rng import SplitMix64


def brute_force_auc(labels, scores):
    """Pairwise oracle: mean of [pos > neg] with ties counting one half."""
    pos = [s for l, s in zip(labels, scores) if l == 1]
    neg = [s for l, s in zip(labels, scores) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


# --------------------------------------------------------------------------
# confusion_at
# --------------------------------------------------------------------------

def test_confusion_perfect_case():
    cm = confusion_at([1, 0], [0.9, 0.1], 0.5)
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (1, 1, 0, 0)


def test_confusion_boundary_score_is_positive():
    cm = confusion_at([0], [0.5], threshold=0.5)
    assert cm.fp == 1 and cm.tn == 0


def test_confusion_hand_tally():
    labels = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
    scores = [0.1, 0.6, 0.4, 0.2, 0.9, 0.8, 0.3, 0.7, 0.55, 0.05]
    cm = confusion_at(labels, scores, 0.5)
    # hand tally at >= 0.5: negatives predicted + at 0.6, 0.9; positives
    # predicted + at 0.8, 0.7, 0.55
    assert (cm.tn, cm.fp, cm.fn, cm.tp) == (3, 2, 2, 3)
    assert cm.total == 10


def test_confusion_length_mismatch():
    with pytest.raises(ShapeError):
        confusion_at([1, 0], [0.5], 0.5)


# --------------------------------------------------------------------------
# classification_scores
# --------------------------------------------------------------------------

def test_scores_hand_case():
    out = classification_scores(ConfusionMatrix(tn=5, fp=1, fn=2, tp=2))
    assert out["accuracy"] == pytest.approx(0.7)
    assert out["precision"] == pytest.approx(2 / 3)
    assert out["recall"] == pytest.approx(0.5)
    assert out["f1"] == pytest.approx(4 / 7)  # 2PR/(P+R)


def test_scores_match_reported_study_regime():
    # 3,576 evaluated rows with 144 true positives and 3,386 true negatives
    # leaves 46 errors; accuracy rounds to 98.71%
    cm = ConfusionMatrix(tn=3386, fp=17, fn=29, tp=144)
    assert cm.total == 3576
    out = classification_scores(cm)
    assert out["accuracy"] * 100 == pytest.approx(98.71, abs=0.005)
    assert out["precision"] == pytest.approx(0.89, abs=0.005)
    assert out["recall"] == pytest.approx(0.83, abs=0.005)
    assert out["f1"] == pytest.approx(0.86, abs=0.005)


def test_scores_zero_division_conventions():
    out = classification_scores(ConfusionMatrix(tn=4, fp=0, fn=0, tp=0))
    assert out == {"accuracy": 1.0, "precision": 0.0, "recall": 0.0, "f1": 0.0}


def test_scores_exhaustive_small_matrix_oracle():
    """Formulas match a direct hand oracle on every matrix with entries <= 10."""
    for tn, fp, fn, tp in itertools.product(range(11), repeat=4):
        if tn + fp + fn + tp == 0:
            continue
        out = classification_scores(ConfusionMatrix(tn=tn, fp=fp, fn=fn, tp=tp))
        total = tn + fp + fn + tp
        assert out["accuracy"] == (tp + tn) / total
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        assert out["precision"] == precision
        assert out["recall"] == recall
        if precision + recall:
            assert out["f1"] == pytest.approx(2 * precision * recall / (precision + recall))
        else:
            assert out["f1"] == 0.0


# --------------------------------------------------------------------------
# roc_auc
# --------------------------------------------------------------------------

def test_auc_hand_case():
    labels = [1, 1, 0, 0, 0]
    scores = [0.9, 0.4, 0.8, 0.3, 0.2]
    assert roc_auc(labels, scores) == pytest.approx(5 / 6)


def test_auc_perfect_separation():
    assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0


def test_auc_all_ties():
    assert roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5


def test_auc_single_class_error():
    with pytest.raises(DataError):
        roc_auc([1, 1], [0.2, 0.4])


def test_auc_invariant_under_monotone_transforms():
    rng = SplitMix64(8)
    labels = np.array([rng.randrange(2) for _ in range(100)])
    labels[:2] = [0, 1]
    scores = np.array([rng.random() * 2 - 1 for _ in range(100)])
    base = roc_auc(labels, scores)
    assert roc_auc(labels, scores**3) == pytest.approx(base)
    assert roc_auc(labels, 1 / (1 + np.exp(-scores))) == pytest.approx(base)


def test_auc_complement_symmetry_without_ties():
    rng = SplitMix64(15)
    labels = np.array([rng.randrange(2) for _ in range(80)])
    labels[:2] = [0, 1]
    scores = np.arange(80, dtype=float)
    SplitMix64(4).shuffle(scores)
    assert roc_auc(labels, scores) + roc_auc(labels, -scores) == pytest.approx(1.0)


def test_auc_equals_brute_force_on_random_instances():
    """Rank-based implementation equals the pairwise oracle exactly."""
    rng = SplitMix64(512)
    for case in range(100):
        n = 2 + rng.randrange(199)
        labels = np.array([rng.randrange(2) for _ in range(n)])
        labels[: 2] = [0, 1]  # both classes present
        # quantized scores so ties actually occur
        scores = np.array([rng.randrange(12) / 11.0 for _ in range(n)])
        fast = roc_auc(labels, scores)
        brute = brute_force_auc(labels, scores)
        assert fast == pytest.approx(brute, abs=1e-12), f"case {case}"


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------

def test_compute_report_consistency():
    labels = [0, 1, 0, 1, 1, 0, 0, 0]
    scores = [0.2, 0.8, 0.6, 0.9, 0.4, 0.1, 0.3, 0.55]
    report = compute_report(labels, scores, threshold=0.5)
    cm = report.confusion
    assert cm.total == 8
    assert report.accuracy == (cm.tp + cm.tn) / cm.total
    if report.precision + report.recall:
        expected_f1 = 2 * report.precision * report.recall / (report.precision + report.recall)
        assert report.f1 == pytest.approx(expected_f1)


def test_report_tables_perfect_model_row():
    report = compute_report([0, 1], [0.1, 0.9], 0.5)
    text, payload = report_tables([("demo", report)])
    row = next(line for line in text.splitlines() if line.startswith("| demo"))
    assert "1.00" in row and "100.00%" in row
    assert payload[0]["model"] == "demo"
    assert payload[0]["accuracy"] == 1.0


def test_report_tables_json_schema():
    report = compute_report([0, 1, 1], [0.4, 0.6, 0.7], 0.5)
    _, payload = report_tables([("m", report)])
    entry = payload[0]
    assert set(entry) == {
        "model", "threshold", "confusion", "accuracy",
        "precision", "recall", "f1", "auroc",
    }
    assert set(entry["confusion"]) == {"tn", "fp", "fn", "tp"}
    json.dumps(payload)  # serializable


def test_report_tables_empty_error():
    with pytest.raises(DataError):
        report_tables([])
