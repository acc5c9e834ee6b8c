"""Reference exact tree learners for the tests in test_forests.py.

`reference_best_split` is the one-numpy-scan-per-feature CART search that
the batched `forests.best_split` replaced. The fits are the learners as
they were before the node gathers and the boosting root presort: every
node copies its rows of X (`X[rows]`), every boosting round sorts its root
again, and every forest tree copies its bootstrap rows. The fits call
`reference_best_split` through this module's global, so a test can count
the calls. The fast learners must grow the same trees, byte for byte.
"""

import numpy as np

from jobfraud.forests import (
    EnsembleModel,
    TreeNode,
    _clamped_log_odds,
    _newtonize,
)
from jobfraud.ndgrad import _sigmoid_values
from jobfraud.rng import SplitMix64


def reference_best_split(X, y, feature_indices, min_samples_leaf, criterion):
    n = y.shape[0]
    total = y.sum()
    if criterion == "gini":
        parent_term = total * (n - total) / n
    else:
        parent_term = total * total / n

    best_score = -np.inf
    best_feature = None
    best_threshold = 0.0
    left_n = np.arange(1, n, dtype=np.float64)
    right_n = n - left_n

    for f in feature_indices:
        x = X[:, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        ys = y[order]
        boundary = xs[1:] != xs[:-1]
        if not boundary.any():
            continue
        cum = np.cumsum(ys)[:-1]
        if criterion == "gini":
            pos_l = cum
            pos_r = total - cum
            score = -(pos_l * (left_n - pos_l) / left_n + pos_r * (right_n - pos_r) / right_n)
        else:
            score = cum * cum / left_n + (total - cum) ** 2 / right_n
        valid = boundary & (left_n >= min_samples_leaf) & (right_n >= min_samples_leaf)
        if not valid.any():
            continue
        score = np.where(valid, score, -np.inf)
        i = int(np.argmax(score))
        if score[i] > best_score:
            best_score = score[i]
            best_feature = f
            best_threshold = (xs[i] + xs[i + 1]) / 2.0

    if best_feature is None:
        return None
    if criterion == "gini":
        gain = 2.0 * (parent_term + best_score) / n
    else:
        gain = (best_score - parent_term) / n
    if gain <= 0.0:
        return None
    return best_feature, best_threshold, gain


def reference_fit_tree(
    X, y, max_depth=None, min_samples_leaf=1, criterion="gini", feature_subsample=None, rng=None,
):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n_features = X.shape[1]

    def grow(rows, depth):
        yr = y[rows]
        node = TreeNode(value=float(yr.mean()))
        if (
            rows.shape[0] < 2 * min_samples_leaf
            or (max_depth is not None and depth >= max_depth)
            or (yr == yr[0]).all()
        ):
            return node
        if feature_subsample is None or feature_subsample >= n_features:
            candidates = range(n_features)
        else:
            candidates = rng.sample_indices(n_features, feature_subsample)
        found = reference_best_split(X[rows], yr, candidates, min_samples_leaf, criterion)
        if found is None:
            return node
        f, threshold, _ = found
        mask = X[rows, f] <= threshold
        node.feature = f
        node.threshold = threshold
        node.left = grow(rows[mask], depth + 1)
        node.right = grow(rows[~mask], depth + 1)
        return node

    return grow(np.arange(X.shape[0]), 0)


def reference_fit_random_forest(
    X, y, n_trees=100, max_depth=25, min_samples_leaf=1, bootstrap=True, seed=42,
):
    X = np.asarray(X, dtype=np.float64)
    n, n_features = X.shape
    per_node = max(1, int(np.sqrt(n_features)))
    trees = []
    for i in range(n_trees):
        rng = SplitMix64(seed + i)
        if bootstrap:
            rows = np.fromiter((rng.randrange(n) for _ in range(n)), np.int64, n)
            Xi, yi = X[rows], y[rows]
        else:
            Xi, yi = X, y
        trees.append(reference_fit_tree(
            Xi, yi, max_depth=max_depth, min_samples_leaf=min_samples_leaf,
            criterion="gini", feature_subsample=per_node, rng=rng,
        ))
    return EnsembleModel(kind="random_forest", trees=tuple(trees), n_features=n_features)


def reference_fit_gbm(X, y, n_rounds=100, learning_rate=0.1, max_depth=3, min_samples_leaf=1):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y).astype(np.float64)
    base = _clamped_log_odds(float(y.mean()))
    scores = np.full(X.shape[0], base)
    trees = []
    all_rows = np.arange(X.shape[0])
    for _ in range(n_rounds):
        p = _sigmoid_values(scores)
        residual = y - p
        hessian = p * (1.0 - p)
        tree = reference_fit_tree(
            X, residual, max_depth=max_depth, min_samples_leaf=min_samples_leaf,
            criterion="variance",
        )
        step = np.empty(X.shape[0])
        _newtonize(tree, X, all_rows, residual, hessian, step)
        scores += learning_rate * step
        trees.append(tree)
    return EnsembleModel(
        kind="gbm", trees=tuple(trees), n_features=X.shape[1],
        learning_rate=learning_rate, base_score=base,
    )
