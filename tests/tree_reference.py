"""Reference exact tree learners and predictor for the tests in
test_forests.py.

`sorted_scan_best_split` is the one-numpy-scan-per-feature CART search
that the batched and then the histogram `forests.best_split` replaced;
`reference_best_split` is that scan with a variance split's sums added in
the histogram search's order, whose sum at each column's default (its
most frequent value in the fit's whole matrix) is the node's total less
the others. The fits are the learners as they were before the node
gathers, the histograms and the flat node arrays: every node copies its
rows of X (`X[rows]`) and sorts them, every forest tree copies its
bootstrap rows, and trees are linked `TreeNode` objects whose GBM leaves
get their Newton values by routing the rows again. The forest grows its
trees one after another, each drawing its candidates with
`reference_sample_indices`, the scalar rejection loop that
`rng.sample_indices` batches across streams. The fits
call `reference_best_split` through this module's global, so a test can
count the calls, and return the nested JSON of `forests.ensemble_to_dict`.
The fast learners must grow the same trees, byte for byte.
`full_grid_histograms` and `full_grid_best_hist_split` are the leaf-wise
histograms and scan on a full n_bins-wide grid, which the narrowed grid and
the pruned scan of `forests` must match bit for bit, and
`reference_fit_leafwise_gbm` grows the leaf-wise booster's trees over them
with no pruning: it scans every leaf of any size, unless its residuals are
all equal, and builds every split's histograms.
`reference_predict` is the recursive per-tree predictor that the
level-wise `forests.ensemble_predict` replaced; it reads the same nested
JSON.
"""

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from jobfraud.forests import _NEWTON_EPS, _clamped_log_odds, compute_bins
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


def column_modes(X):
    """Each column's most frequent value, the lowest on ties."""
    modes = []
    for col in np.asarray(X, dtype=np.float64).T:
        distinct, counts = np.unique(col, return_counts=True)
        modes.append(distinct[np.argmax(counts)])
    return modes


def _per_value_cumsum(xs, ys, total, mode):
    """At each sorted position, the running sum over distinct values of
    each value's targets, which are added up in row order, except at the
    value `mode`: its sum is `total` (the node's targets summed in row
    order) less the other values' sums, added one by one from the lowest."""
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    per_value = [sum(ys[a:b], 0.0) for a, b in zip(starts, np.r_[starts[1:], xs.shape[0]])]
    at_mode = np.flatnonzero(xs[starts] == mode)
    if at_mode.shape[0]:
        others = 0.0
        for v, s in enumerate(per_value):
            if v != at_mode[0]:
                others += s
        per_value[at_mode[0]] = total - others
    return np.repeat(np.cumsum(per_value), np.diff(np.r_[starts, xs.shape[0]]))


def sorted_scan_best_split(X, y, feature_indices, min_samples_leaf, criterion,
                           cumulative=lambda f, xs, ys: np.cumsum(ys)):
    """The per-feature scan: one stable sort of each candidate column and,
    by default, one running sum of its sorted targets. A threshold is the
    midpoint of two neighbouring values, or the lower one when the midpoint
    is not below the upper (adjacent floats, overflow)."""
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
        cum = cumulative(f, xs, ys)[:-1]
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
            below, above = float(xs[i]), float(xs[i + 1])
            middle = (below + above) / 2.0
            best_threshold = middle if middle < above else below

    if best_feature is None:
        return None
    if criterion == "gini":
        gain = 2.0 * (parent_term + best_score) / n
    else:
        gain = (best_score - parent_term) / n
    if gain <= 0.0:
        return None
    return best_feature, best_threshold, gain


def reference_best_split(X, y, feature_indices, min_samples_leaf, criterion, modes=None):
    """The per-feature scan in the histogram search's summation order: gini
    sums are integer counts, exact in any order, and a variance split's
    left sum adds each value's targets in row order, except at the
    column's entry of `modes` (column_modes of X when None), then runs
    across the values."""
    if criterion == "gini":
        return sorted_scan_best_split(X, y, feature_indices, min_samples_leaf, criterion)
    if modes is None:
        modes = column_modes(X)
    total = y.sum()
    return sorted_scan_best_split(
        X, y, feature_indices, min_samples_leaf, criterion,
        lambda f, xs, ys: _per_value_cumsum(xs, ys, total, modes[f]),
    )


def reference_sample_indices(rng, n, k):
    """k distinct indices from range(n), ascending, drawn one next_uint64()
    % n at a time from `rng` until k are distinct; range(n), with no draw,
    when k >= n. The scalar loop that rng.sample_indices batches."""
    if k >= n:
        return list(range(n))
    chosen = set()
    while len(chosen) < k:
        chosen.add(rng.next_uint64() % n)
    return sorted(chosen)


def reference_fit_tree(
    X, y, max_depth=None, min_samples_leaf=1, criterion="gini", feature_subsample=None, rng=None,
):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n_features = X.shape[1]
    modes = column_modes(X) if criterion == "variance" else None

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
            candidates = reference_sample_indices(rng, n_features, feature_subsample)
        found = reference_best_split(X[rows], yr, candidates, min_samples_leaf, criterion, modes)
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
    X, y, n_trees=100, max_depth=25, min_samples_leaf=1, feature_subsample="sqrt", bootstrap=True,
    seed=42,
):
    """Bagged trees grown one after another, each from its own stream."""
    X = np.asarray(X, dtype=np.float64)
    n, n_features = X.shape
    if feature_subsample == "sqrt":
        per_node = max(1, int(np.sqrt(n_features)))
    else:
        per_node = feature_subsample
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


# --------------------------------------------------------------------------
# Leaf-wise histogram boosting on full n_bins-wide grids
# --------------------------------------------------------------------------

def full_grid_histograms(bins, rows, targets):
    """Dense histograms of `rows` (all when None) on an n_bins-wide grid,
    each column's default bin (its most frequent in bins.codes, the lowest
    on ties) filled as forests._leaf_histograms states: the rows' number
    and targets.sum() less the other bins, whose sums are added from the
    lowest bin up; a sum of 0.0 when no row is at the default."""
    codes = bins.codes if rows is None else bins.codes[rows]
    n_features = codes.shape[1]
    count = np.zeros((n_features, bins.n_bins))
    grad = np.zeros((n_features, bins.n_bins))
    for f in range(n_features):
        col = codes[:, f]
        default = np.argmax(np.bincount(bins.codes[:, f]))
        count[f] = np.bincount(col, minlength=bins.n_bins)
        weights = np.where(col == default, 0.0, targets)
        grad[f] = np.bincount(col, weights=weights, minlength=bins.n_bins)  # in row order
        others = np.cumsum(grad[f])[-1]  # one by one, the default's 0.0 among them
        grad[f, default] = targets.sum() - others if count[f, default] else 0.0
    return count, grad


def full_grid_best_hist_split(bins, count, grad, min_samples_leaf):
    edge_mask = np.zeros((len(bins.edges), bins.n_bins - 1), dtype=bool)
    for f, e in enumerate(bins.edges):
        edge_mask[f, : e.shape[0]] = True
    total_n = count[0].sum()
    total_g = float(grad[0].sum())
    left_n = count.cumsum(axis=1)[:, :-1]
    left_g = grad.cumsum(axis=1)[:, :-1]
    right_n = total_n - left_n
    right_g = total_g - left_g
    score = left_g**2 / np.maximum(left_n, 1.0) + right_g**2 / np.maximum(right_n, 1.0)
    valid = edge_mask & (left_n >= min_samples_leaf) & (right_n >= min_samples_leaf)
    score = np.where(valid, score, -np.inf)
    feature, b = divmod(int(np.argmax(score)), score.shape[1])
    gain = score[feature, b] - total_g * total_g / total_n
    if not np.isfinite(score[feature, b]) or gain <= 0.0:
        return None
    return gain, feature, b


def reference_grow_leafwise(bins, residual, max_leaves, min_samples_leaf):
    """One leaf-wise tree on full grids: every leaf, of any size, is
    scanned unless its residuals are all equal (as reference_fit_tree
    stops), and every split builds its smaller child's histogram and
    subtracts it from its parent's for the sibling. The leaf with the
    largest gain splits next (the first pushed on ties), until max_leaves."""
    heap = []
    pushed = itertools.count()

    def push(node, rows, count, grad):
        if (residual[rows] == residual[rows[0]]).all():
            return
        found = full_grid_best_hist_split(bins, count, grad, min_samples_leaf)
        if found is not None:
            gain, f, b = found
            heapq.heappush(heap, (-gain, next(pushed), node, rows, f, b, count, grad))

    root = TreeNode()
    push(root, np.arange(bins.codes.shape[0]), *full_grid_histograms(bins, None, residual))
    n_leaves = 1
    while n_leaves < max_leaves and heap:
        _, _, node, rows, f, b, count, grad = heapq.heappop(heap)
        mask = bins.codes[rows, f] <= b
        left_rows, right_rows = rows[mask], rows[~mask]
        if left_rows.shape[0] <= right_rows.shape[0]:
            lc, lg = full_grid_histograms(bins, left_rows, residual[left_rows])
            rc, rg = count - lc, grad - lg
        else:
            rc, rg = full_grid_histograms(bins, right_rows, residual[right_rows])
            lc, lg = count - rc, grad - rg
        node.feature, node.threshold = f, float(bins.edges[f][b])
        node.left, node.right = TreeNode(), TreeNode()
        push(node.left, left_rows, lc, lg)
        push(node.right, right_rows, rc, rg)
        n_leaves += 1
    return root


def reference_fit_leafwise_gbm(X, y, n_rounds=100, learning_rate=0.1, max_leaves=31, n_bins=255,
                               min_samples_leaf=20):
    """The leaf-wise booster over reference_grow_leafwise, on the bins of
    forests.compute_bins (pinned by its own per-column reference)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y).astype(np.float64)
    bins = compute_bins(X, n_bins)
    base = _clamped_log_odds(float(y.mean()))
    scores = np.full(X.shape[0], base)
    trees = []
    all_rows = np.arange(X.shape[0])
    for _ in range(n_rounds):
        p = _sigmoid_values(scores)
        residual = y - p
        hessian = p * (1.0 - p)
        tree = reference_grow_leafwise(bins, residual, max_leaves, min_samples_leaf)
        step = np.empty(X.shape[0])
        _newtonize(tree, X, all_rows, residual, hessian, step)
        scores += learning_rate * step
        trees.append(tree)
    return _ensemble_dict("leafwise_gbm", trees, X.shape[1], learning_rate, base)
