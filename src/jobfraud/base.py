"""Input validation shared by the model fits.

``check_matrix`` and ``check_labels`` coerce a fit's inputs to the arrays
the learners read and reject a wrong shape or a non-0/1 label.
"""

import numpy as np

from .errors import DataError, ShapeError


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
