"""Reference exact tree learners and predictor for the tests in
test_forests.py.

`sorted_scan_best_split` is the one-numpy-scan-per-feature CART search
that the batched and then the histogram `forests.best_split` replaced;
`reference_best_split` is that scan with a variance split's sums added in
the histogram search's order. The fits are the learners as they were
before the node gathers, the histograms and the flat node arrays: every
node copies its rows of X (`X[rows]`) and sorts them, every forest tree
copies its bootstrap rows, and trees are linked `TreeNode` objects whose
GBM leaves get their Newton values by routing the rows again. The fits
call `reference_best_split` through this module's global, so a test can
count the calls, and return the nested JSON of `forests.ensemble_to_dict`.
The fast learners must grow the same trees, byte for byte.
`reference_predict` is the recursive per-tree predictor that the
level-wise `forests.ensemble_predict` replaced; it reads the same nested
JSON.
"""

from dataclasses import dataclass

import numpy as np

from jobfraud.forests import _NEWTON_EPS, _clamped_log_odds
from jobfraud.ndgrad import _sigmoid_values
from jobfraud.rng import SplitMix64


@dataclass(slots=True)
class TreeNode:
    """Internal node (feature/threshold/left/right) or leaf (value).

    Rows with X[:, feature] <= threshold route left.
    """

    value: float = 0.0
    feature: int | None = None
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def tree_predict(root: TreeNode, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape[0])

    def route(node, idx):
        if node.is_leaf:
            out[idx] = node.value
            return
        mask = X[idx, node.feature] <= node.threshold
        route(node.left, idx[mask])
        route(node.right, idx[~mask])

    route(root, np.arange(X.shape[0]))
    return out


def tree_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"value": node.value}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": tree_to_dict(node.left),
        "right": tree_to_dict(node.right),
    }


def tree_from_dict(data: dict) -> TreeNode:
    if "feature" not in data:
        return TreeNode(data["value"])
    return TreeNode(
        0.0, data["feature"], data["threshold"],
        tree_from_dict(data["left"]), tree_from_dict(data["right"]),
    )


def _ensemble_dict(kind, trees, n_features, learning_rate=None, base_score=None):
    return {
        "kind": kind,
        "n_features": n_features,
        "learning_rate": learning_rate,
        "base_score": base_score,
        "trees": [tree_to_dict(t) for t in trees],
    }


def reference_predict(data: dict, X) -> np.ndarray:
    """Class-1 probability per row of the ensemble in nested JSON `data`,
    one recursive tree at a time."""
    X = np.asarray(X, dtype=np.float64)
    trees = [tree_from_dict(t) for t in data["trees"]]
    if data["kind"] == "random_forest":
        total = np.zeros(X.shape[0])
        for tree in trees:
            total += tree_predict(tree, X)
        return total / len(trees)
    scores = np.full(X.shape[0], data["base_score"])
    for tree in trees:
        scores += data["learning_rate"] * tree_predict(tree, X)
    return _sigmoid_values(scores)


def _newtonize(node: TreeNode, X, rows, residual, hessian, out) -> None:
    """Replace leaf means with Newton steps and emit per-row predictions."""
    if node.is_leaf:
        node.value = float(residual[rows].sum() / (hessian[rows].sum() + _NEWTON_EPS))
        out[rows] = node.value
        return
    mask = X[rows, node.feature] <= node.threshold
    _newtonize(node.left, X, rows[mask], residual, hessian, out)
    _newtonize(node.right, X, rows[~mask], residual, hessian, out)


def _per_value_cumsum(xs, ys):
    """At each sorted position, the running sum over distinct values of
    each value's targets, which are added up in row order."""
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    per_value = [sum(ys[a:b], 0.0) for a, b in zip(starts, np.r_[starts[1:], xs.shape[0]])]
    return np.repeat(np.cumsum(per_value), np.diff(np.r_[starts, xs.shape[0]]))


def sorted_scan_best_split(X, y, feature_indices, min_samples_leaf, criterion,
                           cumulative=lambda xs, ys: np.cumsum(ys)):
    """The per-feature scan: one stable sort of each candidate column and,
    by default, one running sum of its sorted targets."""
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
        cum = cumulative(xs, ys)[:-1]
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


def reference_best_split(X, y, feature_indices, min_samples_leaf, criterion):
    """The per-feature scan in the histogram search's summation order: gini
    sums are integer counts, exact in any order, and a variance split's
    left sum adds each value's targets in row order, then runs across the
    values."""
    if criterion == "gini":
        return sorted_scan_best_split(X, y, feature_indices, min_samples_leaf, criterion)
    return sorted_scan_best_split(X, y, feature_indices, min_samples_leaf, criterion,
                                  _per_value_cumsum)


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
    return _ensemble_dict("random_forest", trees, n_features)


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
    return _ensemble_dict("gbm", trees, X.shape[1], learning_rate, base)
