"""Tree-ensemble baselines: random forest, depth-wise gradient boosting,
and a leaf-wise histogram-boosting variant.

Split search is exact greedy CART over midpoints between consecutive
distinct sorted values (Gini for classification trees, variance reduction
for regression trees); ties in gain break toward the lowest feature index,
then the lowest threshold. Each fit ranks every column's values once
(rank_codes): per-column value ranks, of the narrowest unsigned type that
holds them, and a table of each column's distinct values; only
sparse_codes offsets them by feature. Both work on blocks of at most
_BLOCK_CELLS cells (rank_codes on column blocks, sparse_codes' mode counts
on row blocks), so neither holds a whole-matrix sort or intp copy. A node
then scores all candidate features together from one histogram per
feature of its rows' row counts and target sums per distinct value,
sorting nothing: with one bin per distinct value, the histogram search is
the exact search (as XGBoost's exact and histogram split finding coincide
when no feature has more values than bins). Its cost grows with the
distinct values per feature, which the tabular matrix keeps small (flags,
one-hots, term counts). Nodes work on row indices and copy no rows of X.

A random forest grows its trees in lockstep. Breiman's trees are
independent given their streams, so each tree keeps its own depth-first
stack and its own splitmix64 stream, and its draws, its splits and its
node numbers come in the order of the tree grown alone; the trees are
then appended in tree order, so every node array and bundle byte is that
of one tree after another. A tree that draws no candidates, as the
depth-wise GBM's, takes all its open nodes at each step: a node's split
depends only on its rows, so its nested JSON is the depth-first tree's,
and only its in-memory node numbers follow the steps. After a step's
search, fit_tree partitions the rows of all its split nodes with one
gather and one comparison, groups them stably by side and node, and gives
every child its row count, value and stop flag by segment reductions
before it is pushed. A step takes every unfinished tree's next node
to search, draws all their candidate sets in one uint64 block across the
trees' streams, and searches all those nodes in one best_split call: one
gather from a (feature, row) table of 2 * value rank + label, built once
per fit, one integer bincount keyed by (node, candidate, value, label),
one cumulative sum and a first max per node. Each score is the same
float64 formula as a node searched alone. What a fit holds at once stays
bounded: a step's nodes are searched in chunks of at most _SEARCH_CELLS
gathered (candidate, row) pairs and histogram (candidate, value) cells,
and a forest grows as many trees together as hold at most _LOCKSTEP_ROWS
root rows between them.

The leaf-wise trainer bins features into equal-frequency
histograms once, on the same ranking, keeping its narrow codes, sizes the
histogram grid to the widest feature's real bin count, scans each leaf's
histograms with the scan that best_split runs on a node's (a boundary after
each of the leaf's non-empty bins), and always splits the highest-gain
leaf. Like LightGBM's
min_data_in_leaf pruning, it spends work only where a split can land: a
leaf of fewer than 2 * min_samples_leaf rows, or (as a CART node stops)
one whose residuals are all equal, is never scanned, a split whose
children both are such leaves builds no histogram, and a scan reads only
the features whose lowest bin leaves at least min_samples_leaf of the
leaf's rows above it. The row-count and feature rules skip only what no
valid split could use, so the trees are those of a scan of everything.

Both boosters keep their codes once per fit as SparseCodes: each column's
most frequent code is its default, and a row keeps only its other codes,
about a tenth of the product's matrix. A boosting node's histograms count
only its rows' non-default codes and fill each column's default cell from
the node's row count and target total, as LightGBM fills a sparse
feature's zero bin. The cost is per non-default code, not per cell, so a
matrix of continuous columns, where almost every value differs from its
column's mode, gains nothing and pays for the gather instead.

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
from .rng import SplitMix64, sample_indices

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
        left = len(self.value)
        self.feature += (-1, -1)
        self.threshold += (0.0, 0.0)
        self.left += (-1, -1)
        self.right += (-1, -1)
        self.value += (0.0, 0.0)
        self.feature[node], self.threshold[node] = feature, threshold
        self.left[node], self.right[node] = left, left + 1
        return left

    def decision_scores(self, X) -> np.ndarray:
        return ensemble_predict(self, X)


# --------------------------------------------------------------------------
# Exact split search
# --------------------------------------------------------------------------

class Ranking(NamedTuple):
    """X ranked once per fit: values[f, c] is column f's c-th smallest
    distinct value (its largest fills the row past its last), and
    codes[i, f] is the c with X[i, f] == values[f, c]."""

    codes: np.ndarray  # (n, F), of the narrowest unsigned type that holds width
    values: np.ndarray  # (F, width): width is the most distinct values of any column

    @property
    def width(self) -> int:
        return self.values.shape[1]


_BLOCK_CELLS = 1 << 18  # cells of X, or of its codes, that a blocked pass works on at once


def rank_codes(X) -> Ranking:
    """The Ranking of X (at least one row): per-column dense ranks, which
    are np.unique's inverse for all columns at once, and the distinct
    values they index.

    Columns are ranked in blocks of at most _BLOCK_CELLS cells (at least
    one column), so the sort's working set stays bounded however large X
    is: each block, transposed to (columns, rows), gets one stable argsort
    along its rows, and flat takes and index writes read and place its
    sorted values and ranks. A column's ranks never depend on another's.
    """
    X = np.asarray(X, dtype=np.float64)
    n, n_features = X.shape
    step = max(1, _BLOCK_CELLS // n)
    blocks = []  # each block's (columns, n) codes and (columns, its own width) values
    for lo in range(0, n_features, step):
        xt = np.ascontiguousarray(X[:, lo : lo + step].T)
        order = np.argsort(xt, axis=1, kind="stable")
        order += np.arange(0, xt.size, n)[:, None]  # flat: row c of the block starts at c * n
        xs = xt.take(order)
        first = np.ones(xs.shape, dtype=bool)  # where each value's run of sorted rows begins
        np.not_equal(xs[:, 1:], xs[:, :-1], out=first[:, 1:])
        ranks = np.cumsum(first, axis=1, dtype=np.min_scalar_type(n))  # 1 + the rank
        width = int(ranks[:, -1].max())
        values = np.repeat(xs[:, -1:], width, axis=1)
        at = np.flatnonzero(first)
        values.reshape(-1)[at // n * width + ranks.reshape(-1)[at] - 1] = xs.reshape(-1)[at]
        del xs, first
        codes = np.empty(xt.shape, dtype=np.min_scalar_type(width))  # narrow: the ranking stays small
        codes.reshape(-1)[order.reshape(-1)] = ranks.reshape(-1)
        codes -= 1
        blocks.append((codes, values))
    width = max((block_values.shape[1] for _, block_values in blocks), default=1)
    codes = np.empty(X.shape, dtype=np.min_scalar_type(width))
    values = np.empty((n_features, width))
    for lo, (block_codes, block_values) in zip(range(0, n_features, step), blocks):
        hi = lo + block_codes.shape[0]
        codes[:, lo:hi] = block_codes.T
        values[lo:hi, : block_values.shape[1]] = block_values
        values[lo:hi, block_values.shape[1] :] = block_values[:, -1:]
    return Ranking(codes, values)


class SparseCodes(NamedTuple):
    """(n, F) codes offset by feature, f * width + code, kept by row without
    each column's default, its most frequent code (the lowest on ties):
    row i's other codes are codes[indptr[i]:indptr[i + 1]], in column order."""

    default: np.ndarray  # (F,) intp flat code of each column's default
    indptr: np.ndarray  # (n + 1,) intp
    codes: np.ndarray  # intp: the non-default flat codes, row after row
    width: int  # flat codes per feature


def sparse_codes(codes, width) -> SparseCodes:
    """The SparseCodes of (n, F) per-column codes below width."""
    n, n_features = codes.shape
    offsets = np.arange(0, n_features * width, width)
    # narrow flat codes, f * width + code: only the kept ones are widened to intp
    flat = codes.astype(np.min_scalar_type(n_features * width))
    flat += offsets.astype(flat.dtype)
    count = np.zeros(n_features * width, dtype=np.intp)
    step = max(1, _BLOCK_CELLS // max(1, n_features))
    for lo in range(0, n, step):  # bincount widens the codes it reads to intp: a block at a time
        count += np.bincount(flat[lo : lo + step].ravel(), minlength=n_features * width)
    default = count.reshape(n_features, width).argmax(axis=1) + offsets  # first max: lowest code
    other = flat != default.astype(flat.dtype)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(other.sum(axis=1), out=indptr[1:])
    return SparseCodes(default, indptr, flat[other].astype(np.intp), width)


_SEARCH_CELLS = 1 << 18  # (candidate, row) pairs plus (candidate, value) cells of a search chunk
_LOCKSTEP_ROWS = 1 << 21  # root rows of the trees a random forest grows in lockstep


def label_codes(ranking: Ranking, y) -> np.ndarray:
    """(F, n) 2 * c + y[i], for c the rank of X[i, f] among column f's
    distinct values and y 0/1 labels: one bincount of a node's gathered
    entries counts every (value, label) of its candidate features."""
    # row-major (F, n), or take on its flat keys copies it
    table = ranking.codes.T.astype(np.min_scalar_type(2 * ranking.width - 1), order="C")
    table *= 2
    table += np.asarray(y).astype(table.dtype)
    return table


def best_split(X, y, candidates, min_samples_leaf, criterion, ranking=None, rows=None,
               table=None):
    """Best (feature, threshold, gain) of each node, over exact midpoint
    candidates: a list with one entry per node.

    Node j holds rows[j] of X and y (all rows when rows, or rows[j], is
    None; rows None is one node) and searches the features candidates[j],
    ascending. Gain is the impurity decrease I(parent) - w_l I(left) -
    w_r I(right); a node's entry is None when no candidate strictly
    decreases impurity while leaving min_samples_leaf rows on each side.
    `ranking` is rank_codes of X (computed here when absent).

    One histogram per node and candidate feature holds each distinct
    value's row count and target sum. Gini nodes read `table`, the
    label_codes of the ranking and the 0/1 labels y (built here when
    absent): one take gathers their candidates' entries of their rows, and
    one integer bincount keyed by (node, candidate, value, label) counts
    them, for nodes of at most _SEARCH_CELLS (candidate, row) pairs and
    (candidate, value) cells at a time. A variance node reads `table`, the sparse_codes of the ranking
    (built here when absent), through _leaf_histograms, whose non-default
    sums add up each value's rows in row order. _scan, which the leaf-wise
    grower shares, picks each node's split; its threshold is the midpoint
    of the split's value and the node's next one, or that value itself when
    the midpoint rounds up to the next (adjacent floats) or overflows.
    """
    if criterion not in ("gini", "variance"):
        raise ValueError(f"unknown criterion {criterion!r}")
    if ranking is None:
        ranking = rank_codes(X)
    if table is None:
        table = (label_codes(ranking, y) if criterion == "gini"
                 else sparse_codes(ranking.codes, ranking.width))
    rows = [None] if rows is None else rows
    candidates = np.asarray(candidates, dtype=np.intp).reshape(len(rows), -1)
    cells = [candidates.shape[1] * (ranking.width + (y.shape[0] if r is None else r.shape[0]))
             for r in rows]
    found, start, held = [], 0, 0
    for stop, size in enumerate(cells, 1):
        held += size
        if stop == len(rows) or held + cells[stop] > _SEARCH_CELLS:
            found += _search_nodes(y, candidates[start:stop], min_samples_leaf, criterion,
                                   ranking, rows[start:stop], table)
            start, held = stop, 0
    return found


def _search_nodes(y, candidates, min_samples_leaf, criterion, ranking, rows, table):
    """best_split of the nodes holding `rows`, all histograms at once."""
    n_nodes, k = candidates.shape
    width = ranking.width
    if criterion == "gini":
        node_rows = [np.arange(y.shape[0]) if r is None else r for r in rows]
        n = np.array([r.shape[0] for r in node_rows])
        node = np.repeat(np.arange(n_nodes), n)
        every = np.concatenate(node_rows)
        key = (candidates * table.shape[1]).T[:, node]  # each (candidate, row)'s place in table
        key += every
        key = table.take(key).astype(np.intp)  # in place from here: big temporaries are slow
        key += np.arange(0, 2 * width * k, 2 * width)[:, None]
        key += node * (2 * width * k)
        hist = np.bincount(key.ravel(), minlength=2 * n_nodes * k * width)
        hist = hist.reshape(n_nodes, k, width, 2)
        count, sums = hist[..., 0] + hist[..., 1], hist[..., 1]
        total = np.bincount(node, weights=y[every], minlength=n_nodes)  # exact, as 0/1 sums are
        parent_term = total * (n - total) / n  # n/2 * parent impurity
    else:
        targets = [y if r is None else y[r] for r in rows]
        n = np.array([t.shape[0] for t in targets])
        total = np.array([t.sum() for t in targets])
        count, sums = map(np.array, zip(*(_leaf_histograms(table, r, t)
                                          for r, t in zip(rows, targets))))
        if k < count.shape[1]:  # k ascending features of F: a subset to pick out
            pick = np.arange(n_nodes)[:, None], candidates
            count, sums = count[pick], sums[pick]
        parent_term = total * total / n  # constant part of the score
    cell, score, left_n = _scan(count, sums, n, total, min_samples_leaf, criterion)
    j, r, a = np.unravel_index(cell, count.shape)
    if criterion == "gini":
        gain = 2.0 * (parent_term[j] + score) / n[j]
    else:
        gain = (score - parent_term[j]) / n[j]
    # the node's next value: where its left side next grows
    b = (left_n[j, r] > left_n.take(cell)[:, None]).argmax(axis=1)
    f = candidates[j, r]
    found = [None] * n_nodes
    for node, f, below, above, gain in zip(j.tolist(), f.tolist(), ranking.values[f, a].tolist(),
                                           ranking.values[f, b].tolist(), gain.tolist()):
        if gain <= 0.0:
            continue
        middle = (below + above) / 2.0  # a Python float: overflow gives inf, and no warning
        found[node] = f, middle if middle < above else below, gain
    return found


def _scan(count, sums, n, total, min_samples_leaf, criterion):
    """The best split of each node from its (nodes, candidates, width)
    histograms: count and sums hold each candidate feature's row count and
    target sum per value (or bin), and n and total each node's rows and
    target total.

    A cumulative sum along the values gives every split's left side; a
    split may follow each of a node's non-empty values that leaves
    min_samples_leaf rows on each side. Its score is the gini or variance
    score below, the same elementwise float64 formula whatever the nodes
    scanned with it, and a node's first max breaks ties toward its first
    candidate, then the lowest value. Returns, node by node for the nodes
    that have a split, the flat index into count of the best split's value
    and its score, then count's cumulative sums.
    """
    n_nodes, k, width = count.shape
    left_n = count.cumsum(axis=2)
    high = (n - min_samples_leaf)[:, None, None]
    cell = np.flatnonzero((count > 0) & (left_n >= min_samples_leaf) & (left_n <= high))
    # each cell's node, ascending: node by node, then feature, then value (a
    # lone node, as every leaf-wise scan, reads its n and total as scalars)
    at = cell // (k * width) if n_nodes > 1 else 0
    # gini's integer sums convert exactly, and only at the candidates
    cum = sums.cumsum(axis=2).take(cell).astype(np.float64, copy=False)
    left_n_at = left_n.take(cell).astype(np.float64, copy=False)
    node_total = total[at]
    right_n = n[at] - left_n_at
    if criterion == "gini":
        pos_l, pos_r = cum, node_total - cum
        score = -(pos_l * (left_n_at - pos_l) / left_n_at + pos_r * (right_n - pos_r) / right_n)
    else:
        score = cum * cum / left_n_at + (node_total - cum) ** 2 / right_n
    if n_nodes == 1:
        best = [int(score.argmax())] if cell.shape[0] else []
    else:
        bounds = np.searchsorted(at, np.arange(n_nodes + 1)).tolist()
        best = [a + int(score[a:b].argmax()) for a, b in zip(bounds, bounds[1:]) if a < b]
    return cell.take(best), score.take(best), left_n


def fit_tree(X, y, model, max_depth=None, min_samples_leaf=1, criterion="gini",
             feature_subsample=None, rngs=None, ranking=None, rows=None, table=None):
    """Greedy best-split CART trees, grown in lockstep and appended to the
    EnsembleModel `model` in order; returns their leaves, each mapped to
    its rows.

    There is one tree per stream of `rngs` (one tree when None), and tree
    t starts from the root rows rows[t] of X and y (all rows when rows, or
    rows[t], is None; a bootstrap sample repeats rows). `feature_subsample`
    is a per-node candidate count (None = all features), drawn from the
    node's tree's stream. Leaves carry the class-1 fraction
    (classification) or the mean target (regression, its targets added in
    row order). `ranking` and `table` go to best_split as they are.

    Each tree grows apart, from its root at node 0. A tree that draws
    candidates keeps its own depth-first stack, so its draws, its splits
    and its node numbers come in the order of a tree grown alone; a step
    takes each such tree's next node. A tree that draws none
    (feature_subsample None or at least the feature count, as the
    depth-wise GBM's) takes all its open nodes at each step: a node's
    split depends only on its rows, so the order cannot change its splits
    or its nested JSON, and only its in-memory node numbers follow the
    steps, level by level. A step's nodes are searched in one best_split
    call. One gather and one comparison then partition the rows
    of all the step's split nodes, grouped stably by side and node, so
    each child keeps its rows in row order, and segment reductions over
    the children give each its value and whether it must stop (fewer than
    2 * min_samples_leaf rows, max_depth reached, or all targets equal)
    before it is pushed.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)  # a step's flat take reads it in place
    y = np.asarray(y, dtype=np.float64)
    n_features = X.shape[1]
    if rows is None:
        rows = [None] * (1 if rngs is None else len(rngs))
    roots = [None if root is None else np.asarray(root) for root in rows]
    trees = [EnsembleModel(model.kind, n_features) for _ in roots]
    draws = feature_subsample is not None and feature_subsample < n_features
    stacks = [[] for _ in roots]  # (node, rows, depth) of each tree's nodes to search
    leaves = [{} for _ in roots]

    def push(nodes, rows, n):
        """Give each of `nodes`, (tree, node, depth) holding the next n[j]
        of `rows`, its value, then stack it to search or keep it as a leaf."""
        yr = y[rows]
        starts = np.cumsum(n) - n
        value = np.add.reduceat(yr, starts) / n
        stop = np.minimum.reduceat(yr, starts) == np.maximum.reduceat(yr, starts)
        stop |= n < 2 * min_samples_leaf
        del yr  # before the copies: a wide step (a forest's roots) holds less at once
        bounds = np.append(starts, rows.shape[0]).tolist()
        for (t, node, depth), mean, done, a, b in zip(nodes, value.tolist(), stop.tolist(),
                                                       bounds, bounds[1:]):
            trees[t].value[node] = mean
            part = rows[a:b].copy()  # not a view, which would keep all of rows while it waits
            if done or (max_depth is not None and depth >= max_depth):
                leaves[t][node] = part
            else:
                stacks[t].append((node, part, depth))

    all_rows, all_features = np.arange(X.shape[0]), np.arange(n_features)
    push([(t, tree.leaf(), 0) for t, tree in enumerate(trees)],
         np.concatenate([all_rows if root is None else root for root in roots]),
         np.array([X.shape[0] if root is None else root.shape[0] for root in roots]))
    while True:
        searched = []  # (tree, node, rows, depth) of the step's searches
        for t, stack in enumerate(stacks):
            if not draws:
                searched += [(t, *entry) for entry in reversed(stack)]  # in pop order
                stack.clear()
            elif stack:
                searched.append((t, *stack.pop()))
        if not searched:
            break
        if draws:
            candidates = sample_indices([rngs[t] for t, *_ in searched], n_features,
                                        feature_subsample)
        else:
            candidates = np.repeat(all_features[None], len(searched), axis=0)
        node_rows = [rows if depth else roots[t] for t, _, rows, depth in searched]
        found = best_split(X, y, candidates, min_samples_leaf, criterion, ranking, node_rows,
                           table)
        splits = []
        for (t, node, rows, depth), split in zip(searched, found):
            if split is None:
                leaves[t][node] = rows
            else:
                splits.append((t, node, rows, depth, *split[:2]))
        if not splits:
            continue
        t, node, rows, depth, f, threshold = zip(*splits)  # a tuple per field
        n = np.array([r.shape[0] for r in rows])
        every = np.concatenate(rows)
        left = X.take(every * n_features + np.repeat(f, n)) <= np.repeat(threshold, n)
        n_left = np.add.reduceat(left, np.cumsum(n) - n, dtype=np.intp)
        first = [trees[i].split(j, g, h) for i, j, g, h in zip(t, node, f, threshold)]
        # right children first, so each depth-first tree pops its left child next
        children = [(i, c + 1, d + 1) for i, c, d in zip(t, first, depth)]
        children += [(i, c, d + 1) for i, c, d in zip(t, first, depth)]
        push(children, np.concatenate((every.compress(~left), every.compress(left))),
             np.concatenate((n - n_left, n_left)))
    leaf_rows = {}
    for tree, tree_leaves in zip(trees, leaves):
        base = len(model.value)
        model.roots.append(base)
        model.feature += tree.feature
        model.threshold += tree.threshold
        model.value += tree.value
        model.left += [c + base if c >= 0 else c for c in tree.left]
        model.right += [c + base if c >= 0 else c for c in tree.right]
        leaf_rows.update((base + node, rows) for node, rows in tree_leaves.items())
    return leaf_rows


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
    """Bagged classification trees; tree i draws from stream seed + i.

    fit_tree grows the trees in lockstep, as many at a time as hold at
    most _LOCKSTEP_ROWS root rows between them (at least one).
    """
    X = check_matrix(X)
    y = check_labels(y, X.shape[0])
    n, n_features = X.shape
    ranking = rank_codes(X)
    table = label_codes(ranking, y)
    if feature_subsample == "sqrt":
        per_node = max(1, int(np.sqrt(n_features)))
    else:
        per_node = feature_subsample
    model = EnsembleModel("random_forest", n_features)
    group = max(1, _LOCKSTEP_ROWS // n)
    for start in range(0, n_trees, group):
        rngs = [SplitMix64(seed + i) for i in range(start, min(n_trees, start + group))]
        rows = [rng.randrange_array(n, n) for rng in rngs] if bootstrap else None
        fit_tree(X, y, model, max_depth=max_depth, min_samples_leaf=min_samples_leaf,
                 criterion="gini", feature_subsample=per_node, rngs=rngs, ranking=ranking,
                 rows=rows, table=table)
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
    table = sparse_codes(ranking.codes, ranking.width)

    def grow(residual, model):
        return fit_tree(
            X, residual, model, max_depth=max_depth, min_samples_leaf=min_samples_leaf,
            criterion="variance", ranking=ranking, table=table,
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
    codes: np.ndarray  # (n, F) bin per value, the count of edges below it: narrowest unsigned type
    n_bins: int  # the cap on bins per feature
    width: int  # histogram columns per feature: most edges of any feature + 1


def compute_bins(X, n_bins=255) -> FeatureBins:
    """Equal-frequency bins; features with few distinct values get one bin
    per value, with edges at midpoints.

    A value's bin is the count of edges below it. rank_codes gives every
    column's distinct values and their ranks, which are the bins, with
    edges at the midpoints of consecutive values; columns with more than
    n_bins distinct values take quantile edges, and a column with a
    midpoint not strictly between its two values (NaN, an infinity,
    overflow, or adjacent floats) is binned on its own, since its bins need
    not be its value ranks. The codes keep the ranking's narrow type, or
    the narrowest unsigned type that holds n_bins - 1 when that is wider,
    so that a column binned on its own fits; the ranking is copied only
    then.
    """
    X = np.asarray(X, dtype=np.float64)
    ranking = rank_codes(X)
    values = ranking.values
    codes = ranking.codes.astype(np.min_scalar_type(max(ranking.width, n_bins) - 1), copy=False)
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
    width = max((e.shape[0] for e in edges), default=0) + 1
    return FeatureBins(edges=edges, codes=codes, n_bins=n_bins, width=width)


def _row_sums(grid):
    """grid.cumsum(axis=1)[:, -1], bit for bit: each row's cells added one
    after another, in about a third of the time. Numpy sums pairwise only
    along the fast axis of memory; along the slow axis of a column-major
    copy it adds in order, and a zero row below keeps that axis the slow
    one when grid has a single row."""
    padded = np.zeros((grid.shape[0] + 1, grid.shape[1]), order="F")
    padded[:-1] = grid
    return padded.sum(axis=1)[:-1]


def _leaf_histograms(table: SparseCodes, rows, targets):
    """(count, target sum) per (feature, code) of `rows` (all when None) of
    the SparseCodes `table`, whose targets are `targets`.

    Two bincounts read only the rows' non-default codes, so each
    non-default cell's sum adds its rows in row order. Each column's
    default cell then takes the rest: its count is the rows' number less
    the column's other counts, and its sum is targets.sum() less the
    column's other sums added one after another from its lowest code up,
    or 0.0 when no row is at the default.
    """
    n_features, width = table.default.shape[0], table.width
    if rows is None:
        flat, per_row = table.codes, np.diff(table.indptr)
    else:
        start = table.indptr[rows]
        per_row = table.indptr[rows + 1] - start
        # the node's k-th code, of its row i, is codes[start[i] + k - (its codes before row i)]
        at = np.repeat(start + per_row - np.cumsum(per_row), per_row)
        at += np.arange(at.shape[0])
        flat = table.codes[at]
    size = n_features * width
    count = np.bincount(flat, minlength=size)
    sums = np.bincount(flat, weights=np.repeat(targets, per_row), minlength=size)
    sums = sums.astype(np.float64, copy=False)  # bincount of no codes gives integer zeros
    at_default = targets.shape[0] - count.reshape(n_features, width).sum(axis=1)
    count[table.default] = at_default
    rest = targets.sum() - _row_sums(sums.reshape(n_features, width))
    sums[table.default] = np.where(at_default > 0, rest, 0.0)
    return count.reshape(n_features, width).astype(np.float64), sums.reshape(n_features, width)


def _best_hist_split(bins: FeatureBins, count, grad, min_samples_leaf):
    """Highest variance-reduction split of a leaf over its bin boundaries,
    as (gain, feature, bin), or None: _scan on the leaf's histograms.

    Only features whose lowest bin holds at most n - min_samples_leaf of
    the leaf's n rows are scanned: a boundary keeps each bin whole on one
    side, so a bin fuller than that leaves fewer than min_samples_leaf rows
    on the other side of every boundary. One bin is read per feature
    because it costs almost nothing; the lowest is the column's default in
    most of the product's columns, and the fullest bin, which would rule
    out a few more features, costs a pass over the whole grid. A boundary
    follows each of the leaf's non-empty bins: above an empty bin it would
    send the rows of the non-empty bin below it the same way, at a higher
    edge. Each kept feature's row of the grid runs through the same
    cumulative sums, in the same feature-then-bin order, as a scan of every
    feature, so every score and tie-break is unchanged.
    """
    total_n = count[0].sum()
    # same row set whichever feature sums it; summed as a row n_bins wide
    # so that the pairwise sum groups the same way for every width
    row = np.zeros(bins.n_bins)
    row[: bins.width] = grad[0]
    total_g = row.sum()
    features = np.flatnonzero(count[:, 0] <= total_n - min_samples_leaf)
    cell, score, _ = _scan(count.take(features, axis=0)[None], grad.take(features, axis=0)[None],
                           total_n[None], total_g[None], min_samples_leaf, "variance")
    if not cell.shape[0]:
        return None
    k, b = divmod(int(cell[0]), bins.width)
    gain = score[0] - total_g * total_g / total_n
    if not np.isfinite(score[0]) or gain <= 0.0:
        return None
    return gain, int(features[k]), b


def _grow_leafwise(bins: FeatureBins, table, residual, model, max_leaves, min_samples_leaf):
    """One tree grown over the histograms of `bins`, read from their
    SparseCodes `table`, and appended to `model`: the leaf with the largest
    gain splits next, until max_leaves. Returns its leaves, each mapped to
    its ascending rows.

    Two kinds of leaf cannot split and are never scanned: one of fewer
    than 2 * min_samples_leaf rows, which has no boundary that leaves
    min_samples_leaf rows on each side, and, as in fit_tree, one whose
    residuals are all equal, where every split's exact gain is 0 and a scan
    could only find a rounding residue. A histogram is read only by its
    leaf's scan and by the subtraction that gives a split child's sibling,
    and a leaf that is never scanned never splits, so a split whose
    children both cannot split (or a root that cannot) builds none. Every
    other histogram is built as before, the smaller child's from its rows
    and its sibling's by subtraction, so every scan sees the same sums.
    """
    heap = []  # (-gain, node, feature, bin, count, grad) of each leaf that can split
    leaves = {}

    def can_split(rows):
        if rows.shape[0] < 2 * min_samples_leaf:
            return False
        r = residual[rows]
        return bool((r[1:] != r[:-1]).any())

    def push(node, rows, hist):
        leaves[node] = rows
        if hist is None:  # the leaf cannot split
            return
        best = _best_hist_split(bins, *hist, min_samples_leaf)
        if best is not None:  # ties pop in push order: node indices rise
            heapq.heappush(heap, (-best[0], node, best[1], best[2], *hist))

    rows = np.arange(bins.codes.shape[0])
    model.roots.append(model.leaf())
    push(model.roots[-1], rows, _leaf_histograms(table, None, residual) if can_split(rows) else None)
    while len(leaves) < max_leaves and heap:
        _, node, f, b, count, grad = heapq.heappop(heap)
        rows = leaves.pop(node)
        mask = bins.codes[rows, f] <= b
        children = rows[mask], rows[~mask]
        scan = [can_split(child) for child in children]
        hists = [None, None]
        if any(scan):
            # build the smaller child's histogram, subtract for the sibling
            i = int(children[0].shape[0] > children[1].shape[0])
            c, g = _leaf_histograms(table, children[i], residual[children[i]])
            hists[i], hists[1 - i] = (c, g), (count - c, grad - g)
        left = model.split(node, f, float(bins.edges[f][b]))
        for k in (0, 1):
            push(left + k, children[k], hists[k] if scan[k] else None)
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
    table = sparse_codes(bins.codes, bins.width)

    def grow(residual, model):
        return _grow_leafwise(bins, table, residual, model, max_leaves, min_samples_leaf)

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
