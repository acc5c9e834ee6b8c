"""Estimator base classes and input validation helpers.

``fit`` stores fitted state in attributes with a trailing underscore. A
classifier is built from the ``RunConfig`` and reads its hyperparameters
from its own section of it, so each is declared once, in ``config.py``.
``X`` is the input the model reads: the tabular matrix for a tree
ensemble, the ``(ids, numeric)`` pair for the BiLSTM. ``decision_scores``
gives the fraud probability of each row, and ``predict`` labels a score at
or above ``cfg.threshold`` as 1.
"""

import numpy as np

from .errors import DataError, ShapeError


class NotFittedError(RuntimeError):
    """Estimator method called before fit()."""


class Estimator:
    """Fitted state lives in attributes with a trailing underscore."""

    def _check_fitted(self, attr):
        if not hasattr(self, attr):
            raise NotFittedError(
                f"{type(self).__name__} instance is not fitted yet"
            )


class Classifier(Estimator):
    """Holds the run's ``cfg``; prediction over a subclass's ``decision_scores``."""

    def __init__(self, cfg):
        self.cfg = cfg

    def predict_proba(self, X) -> np.ndarray:
        scores = self.decision_scores(X)
        return np.column_stack([1.0 - scores, scores])

    def predict(self, X) -> np.ndarray:
        return (self.decision_scores(X) >= self.cfg.threshold).astype(np.int64)


def check_matrix(X, name="X") -> np.ndarray:
    """Coerce to a 2-D float64 array with at least one row."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {X.shape}")
    if X.shape[0] == 0:
        raise DataError(f"{name} has no rows")
    return X


def check_labels(y, n_rows) -> np.ndarray:
    """Coerce to a 1-D 0/1 int array of length n_rows."""
    y = np.asarray(y)
    if y.ndim != 1 or y.shape[0] != n_rows:
        raise ShapeError(f"labels must be 1-D of length {n_rows}, got {y.shape}")
    vals = np.unique(y)
    if not np.isin(vals, (0, 1)).all():
        raise DataError(f"labels must be 0/1, found values {vals!r}")
    return y.astype(np.int64)
