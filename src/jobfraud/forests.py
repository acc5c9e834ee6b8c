"""Tree-ensemble baselines: random forest, depth-wise gradient boosting,
and a leaf-wise histogram-boosting variant.

Split search is exact greedy CART over midpoints between consecutive
distinct sorted values (Gini for classification trees, variance reduction
for regression trees); ties in gain break toward the lowest feature index,
then the lowest threshold. Each fit ranks every column's values once
(rank_codes): integer codes offset by feature, and a table of each
column's distinct values. A node then scores all candidate features
together from one histogram per feature of its rows' row counts and
target sums per distinct value, sorting nothing: with one bin per
distinct value, the histogram search is the exact search (as XGBoost's
exact and histogram split finding coincide when no feature has more
values than bins). Its cost grows with the distinct values per feature,
which the tabular matrix keeps small (flags, one-hots, term counts). Nodes
work on row indices and copy no rows of X: a random-forest node gathers
only its candidate features' codes, from a feature-major copy made once
per fit, and a depth-wise boosting node gathers whole rows of codes. The
leaf-wise trainer bins features into equal-frequency histograms once, on
the same ranking, sizes the histogram grid to the widest feature's real
bin count, scores only the bin boundaries that carry an edge, and always
splits the highest-gain leaf.

An ensemble's trees share one set of flat node arrays, which both growers
append to; the boosters share one boosting loop. Predict walks all rows
through all trees one level at a time. Bundles keep each tree as nested
JSON, which tree_to_dict and tree_from_dict convert to and from the arrays.
"""

import heapq
import logging
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import features as features_mod
from .base import check_labels, check_matrix
from .errors import ModelStoreError, NumericError, ShapeError
from .ndgrad import _sigmoid_values
from .rng import SplitMix64

logger = logging.getLogger(__name__)

_NEWTON_EPS = 1e-12


@dataclass
class EnsembleModel:
    """An ensemble's trees as flat node lists, which the growers append to
    and predict reads as arrays. Node i is a leaf worth value[i] when
    feature[i] == -1; else rows with X[:, feature[i]] <= threshold[i] go on
    to node left[i], the others to right[i]. Tree t is the nodes from
    roots[t] up to the next tree's root."""

    kind: str  # random_forest | gbm | leafwise_gbm
    n_features: int
    learning_rate: float | None = None
    base_score: float | None = None
    feature: list = field(default_factory=list)
    threshold: list = field(default_factory=list)
    left: list = field(default_factory=list)
    right: list = field(default_factory=list)
    value: list = field(default_factory=list)
    roots: list = field(default_factory=list)

    def leaf(self) -> int:
        """Append a leaf; returns its index."""
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.value) - 1

    def split(self, node, feature, threshold) -> int:
        """Turn leaf `node` into a split; returns its new left leaf, the right follows."""
        left = self.leaf()
        self.feature[node], self.threshold[node] = feature, threshold
        self.left[node], self.right[node] = left, self.leaf()
        return left

    def decision_scores(self, X) -> np.ndarray:
        return ensemble_predict(self, X)


# --------------------------------------------------------------------------
# Exact split search
# --------------------------------------------------------------------------

class Ranking(NamedTuple):
    """X ranked once per fit: values[f, c] is column f's c-th smallest
    distinct value (its largest fills the row past its last), and
    flat_codes[i, f] is f * width + c for the c with X[i, f] == values[f, c],
    so that one bincount of a node's codes counts every (feature, value)."""

    flat_codes: np.ndarray  # (n, F), of the narrowest integer type that holds 2 * F * width
    values: np.ndarray  # (F, width): width is the most distinct values of any column

    @property
    def width(self) -> int:
        return self.values.shape[1]


def rank_codes(X) -> Ranking:
    """The Ranking of X (at least one row): per-column dense ranks, which
    are np.unique's inverse for all columns at once, and the distinct
    values they index."""
    X = np.asarray(X, dtype=np.float64)
    n, n_features = X.shape
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    first = np.ones(X.shape, dtype=bool)  # where each value's run of sorted rows begins
    np.not_equal(xs[1:], xs[:-1], out=first[1:])
    ranks = np.cumsum(first, axis=0, dtype=np.min_scalar_type(n))  # 1 + the rank
    width = int(ranks[-1].max(initial=1))
    values = np.repeat(xs[-1:].T, width, axis=1)
    f, i = np.nonzero(first.T)
    values[f, ranks[i, f] - 1] = xs[i, f]
    del xs
    # narrow codes cut what a node gathers; best_split doubles them in place
    codes = np.empty(X.shape, dtype=np.min_scalar_type(-2 * n_features * width))
    np.put_along_axis(codes, order, ranks, axis=0)
    codes += np.arange(n_features, dtype=codes.dtype) * width - 1  # f * width + rank
    return Ranking(codes, values)


def best_split(X, y, feature_indices, min_samples_leaf, criterion, ranking=None, rows=None):
    """Best (feature, threshold, gain) over exact midpoint candidates.

    Gain is the impurity decrease I(parent) - w_l I(left) - w_r I(right);
    returns None when no candidate strictly decreases impurity while
    leaving min_samples_leaf rows on each side. `ranking` is rank_codes of
    X (computed here when absent). `rows` index the node's rows in X and
    the ranking (all rows when None), and y holds one target per node row.

    One histogram per candidate feature holds each distinct value's row
    count and target sum. With column-major flat codes, a gini node gathers
    only its candidates' columns and counts them in one integer bincount of
    code * 2 + label; otherwise the node gathers whole rows for
    _leaf_histograms, whose target sums add up each value's rows in row
    order. A cumulative sum along the values gives every split's left side;
    a split may follow each of the node's values that leaves
    min_samples_leaf rows on each side, and its threshold is the midpoint
    of that value and the node's next one. One argmax, row-major, breaks
    ties toward the first candidate feature, then the lowest threshold.
    """
    n = y.shape[0]
    total = y.sum()
    if criterion == "gini":
        parent_term = total * (n - total) / n  # n/2 * parent impurity
    elif criterion == "variance":
        parent_term = total * total / n  # constant part of the score
    else:
        raise ValueError(f"unknown criterion {criterion!r}")

    if n < 2 * min_samples_leaf:
        return None
    features = np.asarray(feature_indices, dtype=np.intp)
    if ranking is None:
        ranking = rank_codes(X)
    if criterion == "gini" and ranking.flat_codes.flags.f_contiguous:
        width, k = ranking.width, features.shape[0]
        block = ranking.flat_codes.T[features]
        if rows is not None:
            block = block[:, rows]
        block -= ((features - np.arange(k)) * width)[:, None]  # candidate j's values at j * width
        block *= 2
        block += y.astype(block.dtype)
        hist = np.bincount(block.ravel("K"), minlength=2 * k * width).reshape(k, width, 2)
        count, sums = hist[:, :, 0] + hist[:, :, 1], hist[:, :, 1]
    else:
        count, sums = _leaf_histograms(ranking, rows, y)
        count, sums = count[features], sums[features]
    left_n = count.cumsum(axis=1)
    valid = (count > 0) & (left_n >= min_samples_leaf) & (left_n <= n - min_samples_leaf)
    row, lo = np.nonzero(valid)
    if row.shape[0] == 0:
        return None
    # gini's integer sums convert exactly, and only at the candidates
    cum = sums.cumsum(axis=1)[row, lo].astype(np.float64)
    left_n_at = left_n[row, lo].astype(np.float64)
    right_n = n - left_n_at
    if criterion == "gini":
        pos_l, pos_r = cum, total - cum
        score = -(pos_l * (left_n_at - pos_l) / left_n_at + pos_r * (right_n - pos_r) / right_n)
    else:
        score = cum * cum / left_n_at + (total - cum) ** 2 / right_n
    j = int(np.argmax(score))  # first max: first feature, then lowest threshold
    best_score = score[j]
    if criterion == "gini":
        gain = 2.0 * (parent_term + best_score) / n
    else:
        gain = (best_score - parent_term) / n
    if gain <= 0.0:
        return None
    r, a = row[j], lo[j]
    b = np.searchsorted(left_n[r], left_n[r, a], side="right")  # the node's next value
    f = int(features[r])
    return f, (ranking.values[f, a] + ranking.values[f, b]) / 2.0, gain


def fit_tree(X, y, model, max_depth=None, min_samples_leaf=1, criterion="gini",
             feature_subsample=None, rng=None, ranking=None, rows=None):
    """Greedy recursive best-split CART tree, appended to the EnsembleModel
    `model`; returns its leaves, each mapped to its rows.

    `feature_subsample` is a per-node candidate count (None = all
    features), drawn from `rng`. Leaves carry the class-1 fraction
    (classification) or the mean target (regression). `ranking` is
    rank_codes of X, computed here when absent; column-major flat codes let
    a subsampling node read only its candidate columns. `rows` are the
    root's rows of X and y (all when None; a bootstrap sample repeats rows).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n_features = X.shape[1]
    if ranking is None:
        ranking = rank_codes(X)
    subsample = feature_subsample is not None and feature_subsample < n_features
    all_features = np.arange(n_features)
    leaves = {}

    def grow(node, rows, depth):
        yr = y[rows]
        model.value[node] = float(yr.sum() / rows.shape[0])  # yr.mean(), without its overhead
        leaves[node] = rows
        if (
            rows.shape[0] < 2 * min_samples_leaf
            or (max_depth is not None and depth >= max_depth)
            or (yr == yr[0]).all()
        ):
            return
        if subsample:
            candidates = rng.sample_indices(n_features, feature_subsample)
        else:
            candidates = all_features
        found = best_split(X, yr, candidates, min_samples_leaf, criterion, ranking, rows)
        if found is None:
            return
        del leaves[node]
        f, threshold, _ = found
        mask = X[rows, f] <= threshold
        left = model.split(node, f, threshold)
        grow(left, rows[mask], depth + 1)
        grow(left + 1, rows[~mask], depth + 1)

    model.roots.append(model.leaf())
    grow(model.roots[-1], np.arange(X.shape[0]) if rows is None else np.asarray(rows), 0)
    return leaves


# --------------------------------------------------------------------------
# Random forest
# --------------------------------------------------------------------------

def fit_random_forest(
    X,
    y,
    n_trees=100,
    max_depth=25,
    min_samples_leaf=1,
    feature_subsample="sqrt",
    bootstrap=True,
    seed=42,
) -> EnsembleModel:
    """Bagged classification trees; tree i draws from stream seed + i."""
    X = check_matrix(X)
    y = check_labels(y, X.shape[0])
    n, n_features = X.shape
    ranking = rank_codes(X)
    # column-major, so a node gathers only its candidate columns' codes
    ranking = ranking._replace(flat_codes=np.asfortranarray(ranking.flat_codes))
    if feature_subsample == "sqrt":
        per_node = max(1, int(np.sqrt(n_features)))
    else:
        per_node = feature_subsample
    model = EnsembleModel("random_forest", n_features)
    for i in range(n_trees):
        rng = SplitMix64(seed + i)
        rows = None
        if bootstrap:
            rows = rng.randrange_array(n, n)
        fit_tree(X, y, model, max_depth=max_depth, min_samples_leaf=min_samples_leaf,
                 criterion="gini", feature_subsample=per_node, rng=rng, ranking=ranking, rows=rows)
    return model


# --------------------------------------------------------------------------
# Gradient boosting
# --------------------------------------------------------------------------

def _clamped_log_odds(rate: float) -> float:
    if rate <= 0.0:
        return -10.0
    if rate >= 1.0:
        return 10.0
    return float(np.clip(np.log(rate / (1.0 - rate)), -10.0, 10.0))


def _boost(kind, X, y, n_rounds, learning_rate, grow) -> EnsembleModel:
    """Logistic-loss boosting on a checked X, shared by both boosters:
    from the log-odds of the training positive rate, each round's
    grow(residual, model) appends a tree fit to the residuals y - sigmoid(F)
    and returns its leaves, each mapped to its ascending rows; a leaf then
    takes the Newton value sum residual / sum p(1-p) over its rows."""
    y = check_labels(y, X.shape[0]).astype(np.float64)
    base = _clamped_log_odds(float(y.mean()))
    model = EnsembleModel(kind, X.shape[1], learning_rate, base)
    if y.min() == y.max():
        logger.warning("degenerate labels (all %d): base score clamped, no boosting rounds", int(y[0]))
        return model
    scores = np.full(X.shape[0], base)
    for round_number in range(1, n_rounds + 1):
        p = _sigmoid_values(scores)
        residual = y - p
        hessian = p * (1.0 - p)
        leaves = grow(residual, model)
        with np.errstate(over="ignore"):  # an overflow to inf is refused below
            for leaf, rows in leaves.items():
                value = float(residual[rows].sum() / (hessian[rows].sum() + _NEWTON_EPS))
                model.value[leaf] = value
                scores[rows] += learning_rate * value
        if not np.isfinite(scores).all():
            raise NumericError(
                f"boosting round {round_number}: training scores are no longer finite "
                f"(learning_rate {learning_rate})"
            )
    return model


def fit_gbm(
    X,
    y,
    n_rounds=100,
    learning_rate=0.1,
    max_depth=3,
    min_samples_leaf=1,
) -> EnsembleModel:
    """Boosting on exact regression trees: each round fits a depth-limited
    tree to the residuals."""
    X = check_matrix(X)
    ranking = rank_codes(X)
    # bincount counts intp: whole-row gathers of narrower codes would convert twice a node
    ranking = ranking._replace(flat_codes=ranking.flat_codes.astype(np.intp))

    def grow(residual, model):
        return fit_tree(
            X, residual, model, max_depth=max_depth, min_samples_leaf=min_samples_leaf,
            criterion="variance", ranking=ranking,
        )

    return _boost("gbm", X, y, n_rounds, learning_rate, grow)


# --------------------------------------------------------------------------
# Leaf-wise histogram boosting
# --------------------------------------------------------------------------

@dataclass
class FeatureBins:
    """Per-feature split-candidate edges and the binned training matrix.

    Histograms have `width` columns per feature, the widest feature's real
    bin count, however large the n_bins cap.
    """

    edges: list  # per feature, strictly increasing candidate thresholds
    codes: np.ndarray  # (n, F) bin index per value: count of edges < value
    flat_codes: np.ndarray  # codes offset by feature * width, for bincount
    n_bins: int  # the cap on bins per feature
    width: int  # histogram columns per feature: most edges of any feature + 1
    cells: np.ndarray  # feature * width + bin of every boundary with an edge


def compute_bins(X, n_bins=255) -> FeatureBins:
    """Equal-frequency bins; features with few distinct values get one bin
    per value, with edges at midpoints.

    A value's bin is the count of edges below it. rank_codes gives every
    column's distinct values and their ranks, which are the bins, with
    edges at the midpoints of consecutive values; columns with more than
    n_bins distinct values take quantile edges, and a column with a
    midpoint not strictly between its two values (NaN, an infinity,
    overflow, or adjacent floats) is binned on its own, since its bins need
    not be its value ranks.
    """
    X = np.asarray(X, dtype=np.float64)
    n_features = X.shape[1]
    ranking = rank_codes(X)
    codes = ranking.flat_codes - np.arange(n_features) * ranking.width
    values = ranking.values
    with np.errstate(over="ignore", invalid="ignore"):  # such columns are binned on their own
        mids = (values[:, :-1] + values[:, 1:]) / 2.0
    n_mids = codes.max(axis=0)
    edges = [row[:m] for row, m in zip(mids, n_mids)]
    inside = (values[:, :-1] < mids) & (mids < values[:, 1:])
    between = np.arange(ranking.width - 1) < n_mids[:, None]  # two of the column's values
    own = (n_mids >= n_bins) | (between & ~inside).any(axis=1)
    for f in np.flatnonzero(own):
        col = X[:, f]
        distinct = np.unique(col)
        if distinct.shape[0] <= 1:
            e = np.empty(0)
        elif distinct.shape[0] <= n_bins:
            e = (distinct[:-1] + distinct[1:]) / 2.0
        else:
            quantiles = np.quantile(col, np.arange(1, n_bins) / n_bins)
            e = np.unique(quantiles)
        edges[f] = e
        codes[:, f] = np.searchsorted(e, col, side="left")
    n_edges = np.array([e.shape[0] for e in edges], dtype=np.int64)
    width = int(n_edges.max(initial=0)) + 1
    flat = codes + np.arange(n_features) * width
    cells = np.flatnonzero(np.arange(width) < n_edges[:, None])
    return FeatureBins(
        edges=edges, codes=codes, flat_codes=flat, n_bins=n_bins, width=width, cells=cells,
    )


def _leaf_histograms(bins, rows, targets):
    """(count, target sum) per (feature, code) of `rows` (all when None) of
    a FeatureBins or Ranking, whose targets are `targets`: each cell's sum
    adds its rows in row order."""
    n_features = bins.flat_codes.shape[1]
    size = n_features * bins.width
    flat = (bins.flat_codes if rows is None else bins.flat_codes[rows]).ravel()
    count = np.bincount(flat, minlength=size).reshape(n_features, bins.width)
    grad = np.bincount(
        flat, weights=np.repeat(targets, n_features), minlength=size
    ).reshape(n_features, bins.width)
    return count.astype(np.float64), grad


def _best_hist_split(bins: FeatureBins, count, grad, min_samples_leaf):
    """Highest variance-reduction split over the real bin boundaries, or None."""
    total_n = count[0].sum()
    # same row set whichever feature sums it; summed as a row n_bins wide
    # so that the pairwise sum groups the same way for every width
    row = np.zeros(bins.n_bins)
    row[: bins.width] = grad[0]
    total_g = float(row.sum())
    left_n = count.cumsum(axis=1).ravel()[bins.cells]
    left_g = grad.cumsum(axis=1).ravel()[bins.cells]
    right_n = total_n - left_n
    right_g = total_g - left_g
    valid = (left_n >= min_samples_leaf) & (right_n >= min_samples_leaf)
    if not valid.any():
        return None
    score = left_g**2 / np.maximum(left_n, 1.0) + right_g**2 / np.maximum(right_n, 1.0)
    score = np.where(valid, score, -np.inf)
    best = int(np.argmax(score))  # lowest feature, then lowest bin, on ties
    feature, b = divmod(int(bins.cells[best]), bins.width)
    gain = score[best] - total_g * total_g / total_n
    if not np.isfinite(score[best]) or gain <= 0.0:
        return None
    return gain, feature, b


def _grow_leafwise(bins: FeatureBins, residual, model, max_leaves, min_samples_leaf):
    """One tree grown over the histograms of `bins` and appended to
    `model`: the leaf with the largest gain splits next, until max_leaves.
    Returns its leaves, each mapped to its ascending rows."""
    heap = []  # (-gain, node, feature, bin, count, grad) of each leaf that can split
    leaves = {}

    def push(node, rows, count, grad):
        leaves[node] = rows
        best = _best_hist_split(bins, count, grad, min_samples_leaf)
        if best is not None:  # ties pop in push order: node indices rise
            heapq.heappush(heap, (-best[0], node, best[1], best[2], count, grad))

    rows = np.arange(bins.codes.shape[0])
    model.roots.append(model.leaf())
    push(model.roots[-1], rows, *_leaf_histograms(bins, rows, residual))
    while len(leaves) < max_leaves and heap:
        _, node, f, b, count, grad = heapq.heappop(heap)
        rows = leaves.pop(node)
        mask = bins.codes[rows, f] <= b
        left_rows, right_rows = rows[mask], rows[~mask]
        # build the smaller child's histogram, subtract for the sibling
        if left_rows.shape[0] <= right_rows.shape[0]:
            lc, lg = _leaf_histograms(bins, left_rows, residual[left_rows])
            rc, rg = count - lc, grad - lg
        else:
            rc, rg = _leaf_histograms(bins, right_rows, residual[right_rows])
            lc, lg = count - rc, grad - rg
        left = model.split(node, f, float(bins.edges[f][b]))
        push(left, left_rows, lc, lg)
        push(left + 1, right_rows, rc, rg)
    return leaves


def fit_leafwise_gbm(
    X,
    y,
    n_rounds=100,
    learning_rate=0.1,
    max_leaves=31,
    n_bins=255,
    min_samples_leaf=20,
) -> EnsembleModel:
    """Boosting like fit_gbm, but trees grow leaf-wise over histograms:
    the leaf with the largest gain splits next, until max_leaves."""
    X = check_matrix(X)
    bins = compute_bins(X, n_bins)

    def grow(residual, model):
        return _grow_leafwise(bins, residual, model, max_leaves, min_samples_leaf)

    return _boost("leafwise_gbm", X, y, n_rounds, learning_rate, grow)


# --------------------------------------------------------------------------
# Prediction
# --------------------------------------------------------------------------

_WALK_PAIRS = 1 << 16  # (tree, row) pairs a block walks; smaller blocks stay in cache


def ensemble_predict(model: EnsembleModel, X) -> np.ndarray:
    """Class-1 probability per row.

    Each step moves all the (tree, row) pairs not yet at a leaf one level
    down, then the trees' leaf values are added in tree order into the
    block's rows of the running sums. Rows go in blocks of at most
    _WALK_PAIRS pairs, which bounds the walk's memory.
    """
    X = check_matrix(X)
    if X.shape[1] != model.n_features:
        raise ShapeError(
            f"matrix has {X.shape[1]} features, model expects {model.n_features}"
        )
    feature, left, right, roots = (
        np.array(a, dtype=np.intp) for a in (model.feature, model.left, model.right, model.roots)
    )
    threshold, value = np.array(model.threshold, dtype=float), np.array(model.value, dtype=float)
    # a block keeps only the split features' columns, one after another: pair
    # t * rows + i (tree t, row i) at a node of tree t reads pair + shift[node] * rows
    used = np.unique(feature[feature >= 0])
    tree = np.searchsorted(roots, np.arange(feature.shape[0]), side="right") - 1
    shift = np.searchsorted(used, feature) - tree
    children = np.stack([right, left], axis=1).ravel()  # 2 * node + went left
    forest = model.kind == "random_forest"
    total = np.zeros(X.shape[0]) if forest else np.full(X.shape[0], model.base_score)
    step = max(1, _WALK_PAIRS // max(1, roots.shape[0]))
    for lo in range(0, X.shape[0], step):
        block = X[lo : lo + step]
        columns, offset = block.T[used].ravel(), shift * block.shape[0]
        node = np.repeat(roots, block.shape[0])
        walking = np.flatnonzero(feature[node] >= 0)
        while walking.shape[0]:
            at = node[walking]
            go_left = columns[walking + offset[at]] <= threshold[at]
            node[walking] = moved = children[2 * at + go_left]
            walking = walking[feature[moved] >= 0]
        sums = total[lo : lo + block.shape[0]]
        for tree_values in value[node].reshape(roots.shape[0], block.shape[0]):
            sums += tree_values if forest else model.learning_rate * tree_values
    if forest:
        return total / roots.shape[0]
    return _sigmoid_values(total)


# --------------------------------------------------------------------------
# Serialization (trees live inside the bundle manifest as nested JSON)
# --------------------------------------------------------------------------

def tree_to_dict(model: EnsembleModel, node: int) -> dict:
    """The tree below `node` as nested JSON, the bundles' tree format."""
    if model.feature[node] < 0:
        return {"value": model.value[node]}
    return {
        "feature": model.feature[node],
        "threshold": model.threshold[node],
        "left": tree_to_dict(model, model.left[node]),
        "right": tree_to_dict(model, model.right[node]),
    }


_MAX_FLOAT = sys.float_info.max


def _finite(value, what):
    """value as a float, when it is a finite JSON number; else ModelStoreError."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not number or not -_MAX_FLOAT <= value <= _MAX_FLOAT:  # also False for NaN
        raise ModelStoreError(f"{what} must be a finite number, got {value!r:.40}")
    return float(value)


def tree_from_dict(data: dict, n_features: int, model: EnsembleModel) -> None:
    """Append a nested-JSON tree to `model`, read from a stack (any depth),
    checking every node: a leaf's value is a finite number, a split's feature
    an integer in [0, n_features) and its threshold finite; a malformed node
    raises ModelStoreError."""
    model.roots.append(model.leaf())
    pending = [(data, model.roots[-1])]
    while pending:
        data, node = pending.pop()
        # every predict loads every node: a finite float passes without a call
        if not isinstance(data, dict):
            raise ModelStoreError(f"tree node must be an object, got {data!r:.40}")
        if "feature" not in data:
            value = data["value"]
            if type(value) is not float or not -_MAX_FLOAT <= value <= _MAX_FLOAT:
                value = _finite(value, "leaf value")
            model.value[node] = value
            continue
        feature, threshold = data["feature"], data["threshold"]
        if type(feature) is not int or not 0 <= feature < n_features:
            raise ModelStoreError(
                f"split feature must be an integer in [0, {n_features}), got {feature!r:.40}"
            )
        if type(threshold) is not float or not -_MAX_FLOAT <= threshold <= _MAX_FLOAT:
            threshold = _finite(threshold, "split threshold")
        left = model.split(node, feature, threshold)
        pending += [(data["right"], left + 1), (data["left"], left)]


def ensemble_to_dict(model: EnsembleModel) -> dict:
    return {
        "kind": model.kind,
        "n_features": model.n_features,
        "learning_rate": model.learning_rate,
        "base_score": model.base_score,
        "trees": [tree_to_dict(model, root) for root in model.roots],
    }


def ensemble_from_dict(data: dict) -> EnsembleModel:
    """Rebuild an ensemble; a field of the wrong type or range raises
    ModelStoreError (a forest needs at least one tree to vote)."""
    kind, n_features, trees = data["kind"], data["n_features"], data["trees"]
    if kind not in ("random_forest", "gbm", "leafwise_gbm"):
        raise ModelStoreError(f"unknown ensemble kind {kind!r:.40}")
    if type(n_features) is not int or n_features < 1:
        raise ModelStoreError(f"n_features must be a positive integer, got {n_features!r:.40}")
    if not isinstance(trees, list):
        raise ModelStoreError(f"trees must be a list, got {trees!r:.40}")
    if kind == "random_forest" and not trees:
        raise ModelStoreError("a random forest needs at least one tree")
    learning_rate, base_score = data["learning_rate"], data["base_score"]
    if kind != "random_forest":
        learning_rate = _finite(learning_rate, "learning_rate")
        base_score = _finite(base_score, "base_score")
    model = EnsembleModel(kind, n_features, learning_rate, base_score)
    for tree in trees:
        tree_from_dict(tree, n_features, model)
    values = np.array(model.value)
    if kind == "random_forest":  # a forest's leaves hold class-1 fractions
        outside = (values < 0.0) | (values > 1.0)
        if outside.any():
            raise ModelStoreError(
                f"a forest's leaf value must lie in [0, 1], got {float(values[outside][0])!r}"
            )
        return model
    with np.errstate(over="ignore"):  # a row's score adds at most one leaf of each tree
        reach = abs(base_score) + abs(learning_rate) * float(np.abs(values).sum())
    if not reach <= _MAX_FLOAT:
        raise ModelStoreError("base_score and learning_rate times the leaf values can overflow")
    return model


# --------------------------------------------------------------------------
# Tabular featurization (numeric block + term counts)
# --------------------------------------------------------------------------

def count_terms(texts, terms, out=None) -> np.ndarray:
    """(len(texts), len(terms)) counts of each term's tokens per text,
    written into `out` when it is given."""
    if out is None:
        out = np.empty((len(texts), len(terms)))
    index = {t: i for i, t in enumerate(terms)}
    miss = len(terms)  # one extra column takes the tokens outside terms
    width = miss + 1
    for rows, lengths, cols in features_mod.coded_chunks(texts, index, miss):
        n = len(lengths)
        cols += np.repeat(np.arange(0, n * width, width), lengths)
        out[rows] = np.bincount(cols, minlength=n * width).reshape(n, width)[:, :miss]
    return out


def build_tabular(numeric, texts, terms) -> np.ndarray:
    """[numeric features | per-term counts]; column meaning fixed by terms."""
    numeric = check_matrix(numeric, "numeric")
    rows, width = numeric.shape
    if len(texts) != rows:
        raise ShapeError(f"{len(texts)} texts for {rows} numeric rows")
    out = np.empty((rows, width + len(terms)))
    out[:, :width] = numeric
    count_terms(texts, terms, out=out[:, width:])
    return out
