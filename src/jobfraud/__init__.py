"""Fake job posting detection: a dual-input BiLSTM classifier, tree-ensemble
baselines, and the evaluation tooling to compare them."""

from .bilstm import BiLstmClassifier
from .config import RunConfig
from .features import CategoricalEncoder, TextVectorizer
from .ingest import assemble_dataset, load_dataset, normalize_text, parse_csv
from .metrics import compute_report, roc_auc
from .pipeline import DetectionPipeline, prepare, train_pipeline
from .trainer import split_dataset

__version__ = "0.1.0"

__all__ = [
    "BiLstmClassifier",
    "CategoricalEncoder",
    "DetectionPipeline",
    "RunConfig",
    "TextVectorizer",
    "assemble_dataset",
    "compute_report",
    "load_dataset",
    "normalize_text",
    "parse_csv",
    "prepare",
    "roc_auc",
    "split_dataset",
    "train_pipeline",
]
