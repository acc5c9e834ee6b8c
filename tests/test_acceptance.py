"""Acceptance suite.

Criteria 1-4 run against the real postings CSV when one is supplied via
the JOBFRAUD_DATA environment variable (detected by its 17,880-row size);
otherwise they run against the bundled 2,000-row synthetic fixture at the
fallback thresholds (BiLSTM accuracy >= 95%, ROC AUC >= 0.90, and the
BiLSTM's AUC above every baseline's). Criteria 5-8 are dataset-independent.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them on success).
"""

import itertools
import json
import os
import time

import numpy as np
import pytest

from jobfraud import bilstm, ndgrad, synth, trainer
from jobfraud.cli import run_cli
from jobfraud.config import MODEL_KINDS, RunConfig
from jobfraud.ingest import load_dataset, parse_csv_text, format_csv
from jobfraud.features import term_frequencies
from jobfraud.pipeline import DetectionPipeline, prepare, train_pipeline
from jobfraud.rng import SplitMix64

from test_forests import brute_force_best_gain, gini_gain_exact
from test_metrics import brute_force_auc
from tape_reference import activation, gather, grad_check, multiply, sum_all
from jobfraud.forests import best_split
from jobfraud.metrics import ConfusionMatrix, classification_scores, roc_auc

KAGGLE_ROWS = 17880

# (accuracy floor, auc floor) per regime for the BiLSTM, then baseline
# accuracy floors which only apply at full scale.
REAL_THRESHOLDS = {
    "bilstm_accuracy": 0.975,
    "bilstm_auc": 0.85,
    "baseline_accuracy": {"leafwise_gbm": 0.975, "random_forest": 0.960, "gbm": 0.955},
}
SYNTH_THRESHOLDS = {"bilstm_accuracy": 0.95, "bilstm_auc": 0.90}


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE CRITERION {criterion}: {status} - {detail}")


@pytest.fixture(scope="session")
def acceptance_data(tmp_path_factory):
    override = os.environ.get("JOBFRAUD_DATA")
    if override:
        dataset = load_dataset(override)
        real = dataset.summary["total"] == KAGGLE_ROWS
        return override, dataset, real
    path = tmp_path_factory.mktemp("acceptance") / "postings.csv"
    synth.write_fixture(path, n_rows=2000, seed=7)
    return str(path), load_dataset(path), False


@pytest.fixture(scope="session")
def compare_results(acceptance_data):
    """One default-config seed-42 run of all four models on a shared split."""
    _, dataset, real = acceptance_data
    cfg = RunConfig()  # defaults; seed 42
    started = time.time()
    prepared = prepare(dataset, cfg, kinds=MODEL_KINDS)
    pipes = {
        kind: train_pipeline(dataset, cfg, kind, prepared=prepared)
        for kind in MODEL_KINDS
    }
    elapsed = time.time() - started
    return {
        "pipes": pipes,
        "prepared": prepared,
        "dataset": dataset,
        "real": real,
        "elapsed": elapsed,
    }


# --------------------------------------------------------------------------
# Criterion 1: headline BiLSTM metrics under the default configuration
# --------------------------------------------------------------------------

def test_criterion_1_bilstm_accuracy_and_auc(compare_results):
    limits = REAL_THRESHOLDS if compare_results["real"] else SYNTH_THRESHOLDS
    report_ = compare_results["pipes"]["bilstm"].test_metrics
    elapsed = compare_results["elapsed"]
    ok = (
        report_.accuracy >= limits["bilstm_accuracy"]
        and report_.auroc >= limits["bilstm_auc"]
        and elapsed <= 1800.0
    )
    report(
        1,
        ok,
        f"bilstm accuracy={report_.accuracy:.4f} (floor {limits['bilstm_accuracy']}), "
        f"auc={report_.auroc:.4f} (floor {limits['bilstm_auc']}), "
        f"all-model training {elapsed:.0f}s (cap 1800s)",
    )
    assert report_.accuracy >= limits["bilstm_accuracy"]
    assert report_.auroc >= limits["bilstm_auc"]
    assert elapsed <= 1800.0


# --------------------------------------------------------------------------
# Criterion 2: baseline regime and AUC ordering
# --------------------------------------------------------------------------

def test_criterion_2_baselines_and_ordering(compare_results):
    pipes = compare_results["pipes"]
    aucs = {k: pipes[k].test_metrics.auroc for k in MODEL_KINDS}
    baselines = [k for k in MODEL_KINDS if k != "bilstm"]
    ordering_ok = all(aucs["bilstm"] > aucs[k] for k in baselines)
    floors_ok = True
    if compare_results["real"]:
        for kind, floor in REAL_THRESHOLDS["baseline_accuracy"].items():
            floors_ok &= pipes[kind].test_metrics.accuracy >= floor
    detail = ", ".join(f"{k}={aucs[k]:.4f}" for k in MODEL_KINDS)
    report(2, ordering_ok and floors_ok, f"auc {detail}; bilstm above all baselines: {ordering_ok}")
    assert ordering_ok
    assert floors_ok


# --------------------------------------------------------------------------
# Criterion 3: confusion-matrix consistency on the shared test split
# --------------------------------------------------------------------------

def test_criterion_3_confusion_counts(compare_results):
    r = compare_results["pipes"]["bilstm"].test_metrics
    cm = r.confusion
    n_test = len(compare_results["prepared"].splits.test)
    errors = cm.fp + cm.fn
    consistent = (
        cm.total == n_test
        and r.accuracy == pytest.approx((cm.tp + cm.tn) / cm.total)
    )
    if compare_results["real"]:
        count_ok = n_test == 3576 and errors <= 90 and cm.tp >= 110
    else:
        # the synthetic regime pins no absolute counts; the accuracy floor
        # of criterion 1 already bounds the error count
        count_ok = errors <= 0.05 * n_test
    report(
        3,
        consistent and count_ok,
        f"test rows={n_test}, tn={cm.tn} fp={cm.fp} fn={cm.fn} tp={cm.tp}, errors={errors}",
    )
    assert consistent
    assert count_ok


# --------------------------------------------------------------------------
# Criterion 4: EDA term rankings
# --------------------------------------------------------------------------

def test_criterion_4_eda_terms(compare_results):
    postings = compare_results["dataset"].postings
    top_title = {t for t, _ in term_frequencies([p.title_clean for p in postings], 10)}
    top_full = {t for t, _ in term_frequencies([p.full_text for p in postings], 10)}
    title_ok = {"manager", "developer", "engineer"} <= top_title
    full_ok = {"experience", "work", "team"} <= top_full
    report(
        4,
        title_ok and full_ok,
        f"title top-10 {sorted(top_title)}; full-text top-10 {sorted(top_full)}",
    )
    assert title_ok
    assert full_ok


# --------------------------------------------------------------------------
# Criterion 5: gradient correctness
# --------------------------------------------------------------------------

def test_criterion_5_gradient_checks():
    rng = np.random.default_rng(33)
    cfg = bilstm.ModelConfig(
        vocab_size=12, embedding_dim=3, hidden_units=4, dense_units=5,
        sequence_length=4, numeric_width=3, seed=9,
    )
    params = bilstm.init_params(cfg)
    ids = rng.integers(0, cfg.vocab_size, size=(2, cfg.sequence_length))
    numeric = rng.normal(size=(2, cfg.numeric_width))
    y = np.array([[1.0], [0.0]])

    def full_model():
        return ndgrad.bce_loss(bilstm.model_forward(ids, numeric, params), y)

    model_err = grad_check(full_model, list(params.values()))

    op_errs = {}
    a = ndgrad.param(rng.normal(size=(3, 4)))
    b = ndgrad.param(rng.normal(size=(4, 2)))
    op_errs["matmul"] = grad_check(
        lambda: sum_all(ndgrad.matmul(a, b)), [a, b]
    )
    x = ndgrad.param(rng.normal(size=(4, 3)) + 0.05)
    for kind in ("sigmoid", "tanh", "relu"):
        op_errs[kind] = grad_check(
            lambda k=kind: sum_all(activation(k, x)), [x]
        )
    table = ndgrad.param(rng.normal(size=(5, 3)))
    op_errs["gather"] = grad_check(
        lambda: sum_all(multiply(gather(table, [1, 1, 4]), 2.0)),
        [table],
    )
    left = ndgrad.param(rng.normal(size=(2, 2)))
    right = ndgrad.param(rng.normal(size=(2, 3)))

    def concat_loss():
        joined = ndgrad.concat(left, right)
        return sum_all(multiply(joined, joined))

    op_errs["concat"] = grad_check(concat_loss, [left, right])
    p = ndgrad.param(rng.uniform(0.1, 0.9, size=(5, 1)))
    op_errs["bce"] = grad_check(
        lambda: ndgrad.bce_loss(p, np.array([[1.0], [0.0], [1.0], [0.0], [1.0]])), [p]
    )

    worst_op = max(op_errs.values())
    ok = model_err < 1e-5 and worst_op < 1e-6
    report(
        5,
        ok,
        f"full-model rel err {model_err:.2e} (<1e-5), worst per-op {worst_op:.2e} (<1e-6)",
    )
    assert model_err < 1e-5
    assert worst_op < 1e-6


# --------------------------------------------------------------------------
# Criterion 6: oracle equivalences
# --------------------------------------------------------------------------

def test_criterion_6_oracle_equivalence():
    rng = SplitMix64(512)
    auc_exact = 0
    for _ in range(100):
        n = 2 + rng.randrange(199)
        labels = np.array([rng.randrange(2) for _ in range(n)])
        labels[:2] = [0, 1]
        scores = np.array([rng.randrange(12) / 11.0 for _ in range(n)])
        if abs(roc_auc(labels, scores) - brute_force_auc(labels, scores)) < 1e-12:
            auc_exact += 1

    rng = SplitMix64(2024)
    split_exact = 0
    for _ in range(100):
        n = 5 + rng.randrange(46)
        n_features = 1 + rng.randrange(5)
        X = np.array(
            [[float(rng.randrange(5)) for _ in range(n_features)] for _ in range(n)]
        )
        y = np.array([rng.randrange(2) for _ in range(n)], dtype=float)
        found = best_split(X, y, [range(n_features)], 1, "gini")[0]
        brute = brute_force_best_gain(X, y, 1, gini_gain_exact)
        if found is None:
            split_exact += brute == 0
        else:
            f, threshold, _ = found
            split_exact += gini_gain_exact(y, X[:, f] <= threshold) == brute

    metric_exact = True
    for tn, fp, fn, tp in itertools.product(range(11), repeat=4):
        if tn + fp + fn + tp == 0:
            continue
        out = classification_scores(ConfusionMatrix(tn=tn, fp=fp, fn=fn, tp=tp))
        total = tn + fp + fn + tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        metric_exact &= (
            out["accuracy"] == (tp + tn) / total
            and out["precision"] == precision
            and out["recall"] == recall
            and out["f1"] == f1
        )

    ok = auc_exact == 100 and split_exact == 100 and metric_exact
    report(
        6,
        ok,
        f"auc oracle {auc_exact}/100, split oracle {split_exact}/100, "
        f"metric oracle exhaustive: {metric_exact}",
    )
    assert auc_exact == 100
    assert split_exact == 100
    assert metric_exact


# --------------------------------------------------------------------------
# Criterion 7: determinism
# --------------------------------------------------------------------------

def test_criterion_7_determinism(tmp_path, small_csv):
    # split indices and initial weights at default scale
    splits_equal = trainer.split_dataset(17880, 42) == trainer.split_dataset(17880, 42)
    cfg = bilstm.ModelConfig(vocab_size=500, numeric_width=10, seed=42)
    a, b = bilstm.init_params(cfg), bilstm.init_params(cfg)
    weights_equal = all(
        np.array_equal(ta.values, tb.values)
        for (_, ta), (_, tb) in zip(a.items(), b.items())
    )

    # end-to-end CLI train twice: identical metrics and manifests
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 13,
        "features": {"max_tokens": 1500, "sequence_length": 48, "tabular_terms": 100},
        "bilstm": {"embedding_dim": 8, "hidden_units": 10, "dense_units": 10},
        "train": {"max_epochs": 3, "batch_size": 16, "patience": 2},
    }), encoding="utf-8")
    payloads = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        assert run_cli([
            "train", "--data", str(small_csv), "--config", str(config),
            "--out", str(out), "--model", "bilstm",
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        blob = (out / "weights.bin").read_bytes()
        payloads.append((manifest, blob))
    manifests_equal = payloads[0][0] == payloads[1][0]
    blobs_equal = payloads[0][1] == payloads[1][1]
    metrics_a = payloads[0][0]["test_metrics"]
    metrics_b = payloads[1][0]["test_metrics"]
    delta = max(
        abs(metrics_a[k] - metrics_b[k])
        for k in ("accuracy", "precision", "recall", "f1", "auroc")
    )
    ok = splits_equal and weights_equal and manifests_equal and blobs_equal and delta == 0.0
    report(
        7,
        ok,
        f"splits equal: {splits_equal}, init weights equal: {weights_equal}, "
        f"repeat-run metric delta: {delta}",
    )
    assert ok


# --------------------------------------------------------------------------
# Criterion 8: round trips
# --------------------------------------------------------------------------

def test_criterion_8_round_trips(tmp_path, compare_results):
    pipe = compare_results["pipes"]["bilstm"]
    postings = compare_results["dataset"].postings[:100]
    before = pipe.predict_scores(postings)
    pipe.save(tmp_path / "bundle")
    reloaded = DetectionPipeline.load(tmp_path / "bundle")
    after = reloaded.predict_scores(postings)
    predictions_identical = np.array_equal(before, after)

    torture = [
        ["id", "note", "tail"],
        ["1", 'comma, "quote" and\nnewline', "x"],
        ["2", "", '""""'],
        ["3", "\r\n\r", ","],
    ]
    text = format_csv(torture[0], torture[1:])
    parsed = parse_csv_text(text)
    reparsed = parse_csv_text(format_csv(parsed[0], parsed[1:]))
    csv_identity = parsed == torture and reparsed == torture

    ok = predictions_identical and csv_identity
    report(
        8,
        ok,
        f"bundle round-trip bit-identical on 100 rows: {predictions_identical}, "
        f"csv parse/write/parse identity: {csv_identity}",
    )
    assert predictions_identical
    assert csv_identity
