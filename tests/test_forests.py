import json
import warnings
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jobfraud import features, forests, metrics
from jobfraud.config import GbmSection, LeafwiseSection, RandomForestSection, RunConfig
from jobfraud.errors import ShapeError
from jobfraud.forests import (
    best_split,
    build_tabular,
    compute_bins,
    count_terms,
    ensemble_from_dict,
    ensemble_predict,
    ensemble_to_dict,
    fit_gbm,
    fit_leafwise_gbm,
    fit_random_forest,
    fit_tree,
    rank_codes,
)
from jobfraud.ndgrad import _sigmoid_values
from jobfraud.pipeline import _FIT_ENSEMBLE
from jobfraud.rng import SplitMix64
import features_reference
import tree_reference
from tree_reference import (
    column_modes,
    full_grid_best_hist_split,
    full_grid_histograms,
    reference_best_split,
    reference_fit_gbm,
    reference_fit_leafwise_gbm,
    reference_fit_random_forest,
    reference_fit_tree,
    reference_predict,
    sorted_scan_best_split,
)


# --------------------------------------------------------------------------
# Helpers for the leaf-wise tests; the full-grid histogram references and
# the exact-split references are in tree_reference.py
# --------------------------------------------------------------------------

def _bin_table(bins):
    """The SparseCodes that fit_leafwise_gbm reads its histograms from."""
    return forests.sparse_codes(bins.codes, bins.width)


def reference_compute_bins(X, n_bins=255):
    """compute_bins one column at a time: np.unique, then searchsorted."""
    X = np.asarray(X, dtype=np.float64)
    n, n_features = X.shape
    edges = []
    codes = np.empty((n, n_features), dtype=np.int64)
    for f in range(n_features):
        col = X[:, f]
        distinct = np.unique(col)
        if distinct.shape[0] <= 1:
            e = np.empty(0)
        elif distinct.shape[0] <= n_bins:
            e = (distinct[:-1] + distinct[1:]) / 2.0
        else:
            quantiles = np.quantile(col, np.arange(1, n_bins) / n_bins)
            e = np.unique(quantiles)
        edges.append(e)
        codes[:, f] = np.searchsorted(e, col, side="left")
    n_edges = np.array([e.shape[0] for e in edges], dtype=np.int64)
    width = int(n_edges.max(initial=0)) + 1
    has_edge = np.arange(width) < n_edges[:, None]
    return forests.FeatureBins(edges=edges, codes=codes, n_bins=n_bins, width=width,
                               has_edge=has_edge)


def _random_columns(rng, n, n_features):
    """Columns mixing tied small integers, non-integer values, constant
    columns and duplicates of earlier columns."""
    cols = []
    for f in range(n_features):
        kind = rng.integers(5)
        if kind == 0:
            col = rng.integers(0, 1 + rng.integers(1, 6), size=n).astype(np.float64)
        elif kind == 1:
            col = rng.integers(-4, 5, size=n) / 3.0  # ties, non-integer
        elif kind == 2:
            col = rng.normal(size=n)
        elif kind == 3:
            col = np.full(n, rng.normal())
        else:
            col = cols[rng.integers(f)].copy() if f else rng.normal(size=n)
        cols.append(col)
    return np.column_stack(cols)


# --------------------------------------------------------------------------
# Exact-arithmetic oracles
# --------------------------------------------------------------------------

def gini_gain_exact(y, mask):
    """Impurity decrease as an exact rational."""
    y = [int(v) for v in y]
    n = len(y)

    def gini(sub):
        if not sub:
            return Fraction(0)
        p = Fraction(sum(sub), len(sub))
        return 2 * p * (1 - p)

    left = [v for v, m in zip(y, mask) if m]
    right = [v for v, m in zip(y, mask) if not m]
    return (
        gini(y)
        - Fraction(len(left), n) * gini(left)
        - Fraction(len(right), n) * gini(right)
    )


def variance_gain_exact(y, mask):
    ys = [Fraction(v).limit_denominator(10**6) for v in y]
    n = len(ys)

    def var(sub):
        if not sub:
            return Fraction(0)
        mean = sum(sub) / len(sub)
        return sum((v - mean) ** 2 for v in sub) / len(sub)

    left = [v for v, m in zip(ys, mask) if m]
    right = [v for v, m in zip(ys, mask) if not m]
    return (
        var(ys)
        - Fraction(len(left), n) * var(left)
        - Fraction(len(right), n) * var(right)
    )


def brute_force_best_gain(X, y, min_leaf, exact_gain):
    """Max exact gain over every (feature, midpoint threshold) pair."""
    best = Fraction(0)
    n, n_features = X.shape
    for f in range(n_features):
        values = sorted(set(X[:, f]))
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2.0
            mask = X[:, f] <= threshold
            if mask.sum() < min_leaf or (~mask).sum() < min_leaf:
                continue
            gain = exact_gain(y, mask)
            if gain > best:
                best = gain
    return best


# --------------------------------------------------------------------------
# fit_tree
# --------------------------------------------------------------------------

def _fit_one_tree(X, y, **params):
    """fit_tree's tree, as the nested JSON of a bundle."""
    model = forests.EnsembleModel("random_forest", X.shape[1])
    fit_tree(X, y, model, **params)
    return ensemble_to_dict(model)["trees"][0]


def _leaf_rows(tree, X, rows):
    """(leaf, rows) of every leaf of a nested-JSON tree that rows of X reach."""
    if "feature" not in tree:
        return [(tree, rows)]
    mask = X[rows, tree["feature"]] <= tree["threshold"]
    return _leaf_rows(tree["left"], X, rows[mask]) + _leaf_rows(tree["right"], X, rows[~mask])


def _depth(tree):
    return 0 if "feature" not in tree else 1 + max(_depth(tree["left"]), _depth(tree["right"]))


def test_tree_simple_split_to_pure_leaves():
    X = np.array([[0.0], [1.0], [0.0], [1.0]])
    y = np.array([0, 1, 0, 1])
    tree = _fit_one_tree(X, y)
    assert tree["feature"] == 0 and tree["threshold"] == 0.5
    assert tree["left"] == {"value": 0.0}
    assert tree["right"] == {"value": 1.0}


def test_tree_pure_labels_single_leaf():
    tree = _fit_one_tree(np.array([[1.0], [2.0], [3.0]]), np.array([1, 1, 1]))
    assert tree == {"value": 1.0}


def test_tree_constant_features_mixed_labels_single_leaf():
    tree = _fit_one_tree(np.ones((6, 3)), np.array([0, 1, 0, 1, 1, 0]))
    assert tree == {"value": 0.5}


def test_tree_tie_breaks_lowest_feature_then_threshold():
    # duplicated perfect feature: both give identical gain; feature 0 wins
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    found = best_split(X, np.array([0.0, 1.0, 0.0, 1.0]), [range(2)], 1, "gini")[0]
    assert found[0] == 0
    # three identical-gain thresholds inside one feature: lowest wins
    X2 = np.array([[0.0], [1.0], [2.0], [3.0]])
    y2 = np.array([0.0, 0.0, 1.0, 1.0])
    f2 = best_split(X2, y2, [range(1)], 1, "gini")[0]
    assert f2[1] == 1.5  # the maximizer; 0.5/2.5 are strictly worse


def test_tree_split_matches_brute_force_on_random_instances():
    """Chosen split's exact gain equals the exhaustive-search optimum."""
    rng = SplitMix64(2024)
    for case in range(100):
        n = 5 + rng.randrange(46)
        n_features = 1 + rng.randrange(5)
        X = np.array([[float(rng.randrange(5)) for _ in range(n_features)] for _ in range(n)])
        y = np.array([rng.randrange(2) for _ in range(n)], dtype=float)
        found = best_split(X, y, [range(n_features)], 1, "gini")[0]
        brute = brute_force_best_gain(X, y, 1, gini_gain_exact)
        if found is None:
            assert brute == 0
            continue
        f, threshold, gain = found
        chosen_exact = gini_gain_exact(y, X[:, f] <= threshold)
        assert chosen_exact == brute, f"case {case}"
        assert gain == pytest.approx(float(brute), rel=1e-9)


def test_regression_split_matches_brute_force():
    rng = SplitMix64(77)
    for case in range(40):
        n = 5 + rng.randrange(30)
        X = np.array([[float(rng.randrange(4)) for _ in range(3)] for _ in range(n)])
        y = np.array([rng.randrange(5) / 2.0 for _ in range(n)])
        found = best_split(X, y, [range(3)], 1, "variance")[0]
        brute = brute_force_best_gain(X, y, 1, variance_gain_exact)
        if found is None:
            assert brute == 0
            continue
        f, threshold, _ = found
        chosen = variance_gain_exact(y, X[:, f] <= threshold)
        assert chosen == brute, f"case {case}"


@pytest.mark.parametrize("criterion", ["gini", "variance"])
def test_batched_split_equals_per_feature_reference(criterion):
    """(feature, threshold, gain) equal the per-feature scan's exactly."""
    rng = np.random.default_rng(4 if criterion == "gini" else 5)
    splits = 0
    for case in range(1500):
        n = 2 + int(rng.integers(39))
        n_features = 1 + int(rng.integers(8))
        X = _random_columns(rng, n, n_features)
        if criterion == "gini":
            y = rng.integers(0, 2, size=n).astype(np.float64)
        else:
            y = np.where(rng.random(n) < 0.3, 0.5, rng.normal(size=n))
        if rng.random() < 0.5:
            candidates = range(n_features)
        else:  # ascending, usually non-contiguous subset
            size = 1 + int(rng.integers(n_features))
            candidates = sorted(rng.choice(n_features, size=size, replace=False).tolist())
        min_leaf = 1 + int(rng.integers(4))
        expected = reference_best_split(X, y, candidates, min_leaf, criterion)
        assert best_split(X, y, [candidates], min_leaf, criterion) == [expected], f"case {case}"
        # the ranking of a larger matrix, restricted to the node's rows
        rows = np.sort(rng.choice(n, size=max(2, n // 2), replace=False))
        expected = reference_best_split(X[rows], y[rows], candidates, min_leaf, criterion)
        ranking = rank_codes(X)
        ranking = ranking._replace(codes=ranking.codes[rows])
        found = best_split(X[rows], y[rows], [candidates], min_leaf, criterion, ranking)[0]
        assert found == expected, f"case {case} (row subset)"
        splits += expected is not None
    assert splits > 500  # most instances have a split to agree on


@st.composite
def _node_instances(draw):
    """A matrix, its targets, and a node's rows of it: in any order and
    repeated as in a bootstrap sample, over tied, constant and continuous
    columns, with an ascending candidate subset and min_samples_leaf 1-4."""
    n = draw(st.integers(1, 12))
    n_features = draw(st.integers(1, 6))
    ties = st.sampled_from([-1.0, 0.0, 0.5, 2.0])
    column = st.one_of(
        st.lists(ties, min_size=n, max_size=n),
        st.lists(st.floats(-4, 4, allow_subnormal=False), min_size=n, max_size=n),
        ties.map(lambda v: [v] * n),
    )
    X = np.column_stack([draw(column) for _ in range(n_features)])
    criterion = draw(st.sampled_from(["gini", "variance"]))
    targets = st.sampled_from([0.0, 1.0] if criterion == "gini" else [-0.75, 0.0, 0.1, 1.5])
    y = np.array(draw(st.lists(targets, min_size=n, max_size=n)))
    rows = np.array(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3 * n)))
    candidates = sorted(draw(st.sets(st.integers(0, n_features - 1), min_size=1)))
    return X, y, rows, candidates, draw(st.integers(1, 4)), criterion


@settings(max_examples=400, deadline=None)
@given(_node_instances())
def test_row_indexed_split_equals_reference_on_copied_rows(instance):
    """best_split on a node's row indices equals the reference search on the
    node's copied rows, exactly, for both code layouts."""
    X, y, rows, candidates, min_leaf, criterion = instance
    modes = column_modes(X)  # the defaults of the whole matrix's sparse codes
    expected = reference_best_split(X[rows], y[rows], candidates, min_leaf, criterion, modes)
    ranking = rank_codes(X)
    column_major = ranking._replace(codes=np.asfortranarray(ranking.codes))
    for layout in (ranking, column_major):  # row- and column-major codes
        found = best_split(X, y, [candidates], min_leaf, criterion, layout, [rows])[0]
        assert found == expected


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_variance_split_on_dyadic_targets_equals_sorted_scan_and_fractions(data):
    """With targets in multiples of 1/64 and |y| <= 4, every sum of at most
    50 of them is exact in any order, so the histogram search's summation
    order cannot matter: its split equals the sorted-order scan's exactly,
    and that split's exact gain is the Fraction brute force's maximum."""
    n = data.draw(st.integers(2, 50))
    n_features = data.draw(st.integers(1, 4))
    column = st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0, 3.25]), min_size=n, max_size=n)
    X = np.column_stack([data.draw(column) for _ in range(n_features)])
    y = np.array(data.draw(st.lists(st.integers(-256, 256), min_size=n, max_size=n))) / 64.0
    min_leaf = data.draw(st.integers(1, 3))
    found = best_split(X, y, [range(n_features)], min_leaf, "variance")[0]
    assert found == sorted_scan_best_split(X, y, range(n_features), min_leaf, "variance")
    brute = brute_force_best_gain(X, y, min_leaf, variance_gain_exact)
    if found is None:
        assert brute == 0
    else:
        assert variance_gain_exact(y, X[:, found[0]] <= found[1]) == brute


@st.composite
def _histogram_instances(draw):
    """A matrix with a column whose two most frequent values tie above its
    lowest, a column whose mode is not its lowest value, a single-valued
    and an all-distinct column and up to three drawn ones; its targets; an
    ascending node of its rows; and a bin cap."""
    k = draw(st.integers(2, 6))
    n = 2 * k + 1
    columns = [
        np.r_[np.resize([4.0, -2.0], 2 * k), -5.0],  # ties -2.0 (rank 1) with 4.0
        np.r_[-1.0, np.full(2 * k, 5.0)],
        np.full(n, draw(st.floats(-4, 4))),
        np.array(draw(st.permutations(range(n))), dtype=np.float64) / 2.0,
    ]
    ties = st.sampled_from([-1.0, 0.0, 0.5, 2.0])
    for _ in range(draw(st.integers(0, 3))):
        columns.insert(draw(st.integers(0, len(columns))),
                       np.array(draw(st.lists(ties, min_size=n, max_size=n))))
    inexact = st.sampled_from([0.1, 0.7, 1 / 3, -0.3])  # sums that round by order
    target = st.one_of(st.floats(-4, 4), inexact)
    targets = np.array(draw(st.lists(target, min_size=n, max_size=n)))
    node = np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
    return np.column_stack(columns), targets, node, draw(st.sampled_from([3, 255]))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_histogram_instances())
def test_sparse_histograms_equal_dense_counts_and_row_order_sums(instance):
    """_leaf_histograms on SparseCodes, for a Ranking's codes and for a
    FeatureBins', of all rows (None), of one row and of a node: counts equal
    a dense bincount, every non-default cell's sum is the dense row-order
    sum bit for bit, and each default cell is the stated rest."""
    X, targets, node, n_bins = instance
    n_features = X.shape[1]
    ranking, bins = rank_codes(X), compute_bins(X, n_bins)
    offsets = np.arange(n_features)
    for codes, width in ((ranking.codes, ranking.width), (bins.codes, bins.width)):
        table = forests.sparse_codes(codes, width)
        defaults = [np.argmax(np.bincount(codes[:, f], minlength=width)) for f in offsets]
        assert np.array_equal(table.default, np.array(defaults) + offsets * width)
        for rows in (None, node[:1], node):
            node_codes, node_targets = (codes, targets) if rows is None else (
                codes[rows], targets[rows])
            count, sums = forests._leaf_histograms(table, rows, node_targets)
            assert count.shape == sums.shape == (n_features, width)
            for f, default in enumerate(defaults):
                column = node_codes[:, f]
                assert np.array_equal(count[f], np.bincount(column, minlength=width))
                dense = np.bincount(column, weights=node_targets, minlength=width)
                other = np.arange(width) != default
                assert sums[f, other].tobytes() == dense[other].tobytes()
                rest = node_targets.sum() - np.cumsum(np.where(other, dense, 0.0))[-1]
                assert sums[f, default] == (rest if count[f, default] else 0.0)


def test_adjacent_float_split_keeps_rows_on_both_sides():
    """The midpoint of two adjacent floats rounds up to the upper one; the
    threshold is then the lower one, so a split leaves rows on both sides."""
    a = 1e-300
    b = np.nextafter(a, 1.0)
    assert (a + b) / 2.0 == b
    X = np.array([[a], [b], [a], [b]])
    y = np.array([0, 1, 0, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        models = (fit_random_forest(X, y, n_trees=1, bootstrap=False), fit_gbm(X, y, n_rounds=1))
        for model in models:
            tree = ensemble_to_dict(model)["trees"][0]
            assert (tree["feature"], tree["threshold"]) == (0, a)
            leaves = _leaf_rows(tree, X, np.arange(4))
            assert [rows.tolist() for _, rows in leaves] == [[0, 2], [1, 3]]
            assert all(np.isfinite(leaf["value"]) for leaf, _ in leaves)


def test_rank_codes_are_unique_inverses(fixture_matrix):
    X = np.array([[0.5, -0.0, 3.0], [-1.0, 0.0, 3.0], [0.5, 2.0, 3.0], [2.0, -0.0, 3.0]])
    ranking = rank_codes(X)
    assert ranking.width == 3  # each column's codes are its own ranks, below 3
    assert ranking.codes.T.tolist() == [[1, 0, 1, 2], [0, 0, 1, 0], [0, 0, 0, 0]]
    # each column's distinct values, its largest repeated past its last
    assert ranking.values.tolist() == [[-1.0, 0.5, 2.0], [0.0, 2.0, 2.0], [3.0, 3.0, 3.0]]
    rng = np.random.default_rng(6)
    X = _random_columns(rng, 50, 12)
    ranking = rank_codes(X)
    for f in range(12):
        distinct, inverse = np.unique(X[:, f], return_inverse=True)
        assert np.array_equal(ranking.codes[:, f], inverse)
        assert np.array_equal(ranking.values[f, : distinct.shape[0]], distinct)
    wide = rank_codes(np.arange(40000.0)[::-1].reshape(-1, 1))
    assert np.array_equal(wide.codes[:, 0], np.arange(40000)[::-1])
    assert wide.codes.dtype == np.uint16
    # the narrowest unsigned types: the product's tabular matrix ranks in bytes
    X, y = fixture_matrix
    ranking = rank_codes(X)
    table = forests.label_codes(ranking, y)
    assert ranking.codes.dtype == table.dtype == np.uint8
    assert table.shape == X.shape[::-1] and table.flags.c_contiguous
    assert np.array_equal(table, 2 * ranking.codes.T + y)


@pytest.mark.parametrize("block_columns", [1, 2, 3])
def test_rank_codes_in_column_blocks_equal_one_block(monkeypatch, block_columns):
    """Blocks of 1, 2 or 3 columns rank X as one block does: a block
    boundary falls inside the run of three 3-value columns at 2 and 3
    columns, and the one 300-value column makes every block's codes as wide
    as its own. sparse_codes, which counts codes by row block, keeps its
    defaults too."""
    rng = np.random.default_rng(11)
    n = 300
    X = rng.choice([-1.5, -0.0, 0.0, 2.0], size=(n, 7))  # -0.0 and 0.0 are one value
    X[:, 1:4] = rng.integers(0, 3, size=(n, 3))
    X[:, 4] = rng.permutation(n) / 7.0  # wider than the rest
    X[:, 6] = 5.0
    whole = rank_codes(X)  # 2,100 cells: one block
    sparse = forests.sparse_codes(whole.codes, whole.width)
    monkeypatch.setattr(forests, "_BLOCK_CELLS", block_columns * n)
    blocked = rank_codes(X)
    assert blocked.codes.dtype == whole.codes.dtype == np.uint16
    assert np.array_equal(blocked.codes, whole.codes)
    assert blocked.values.tobytes() == whole.values.tobytes()
    for f in range(X.shape[1]):
        distinct, inverse = np.unique(X[:, f], return_inverse=True)
        assert np.array_equal(blocked.codes[:, f], inverse)
        padded = np.r_[distinct, np.repeat(distinct[-1], blocked.width - distinct.shape[0])]
        assert np.array_equal(blocked.values[f], padded)
    counted = forests.sparse_codes(blocked.codes, blocked.width)  # blocks of 300 // 7 rows and up
    for got, expected in zip(counted, sparse):
        assert np.array_equal(got, expected)


def test_tree_respects_min_samples_leaf():
    X = np.arange(10.0).reshape(-1, 1)
    y = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
    tree = _fit_one_tree(X, y, min_samples_leaf=3)
    for _, rows in _leaf_rows(tree, X, np.arange(10)):
        assert len(rows) >= 3


def test_tree_max_depth():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 3))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    tree = _fit_one_tree(X, y, max_depth=2)
    assert _depth(tree) <= 2


# --------------------------------------------------------------------------
# Random forest
# --------------------------------------------------------------------------

def _separable(n=60, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = (X[:, 2] > 0).astype(int)
    return X, y


def test_forest_perfect_feature_generalizes():
    X, y = _separable()
    model = fit_random_forest(X, y, n_trees=20, seed=5)
    X_new, y_new = _separable(seed=2)
    preds = (ensemble_predict(model, X_new) >= 0.5).astype(int)
    assert (preds == y_new).mean() == 1.0


def test_single_tree_no_bootstrap_equals_fit_tree():
    X, y = _separable(n=40)
    model = fit_random_forest(
        X, y, n_trees=1, bootstrap=False, feature_subsample=4, max_depth=25, seed=9,
    )
    direct = _fit_one_tree(X, y.astype(float), max_depth=25, min_samples_leaf=1)
    assert ensemble_to_dict(model)["trees"] == [direct]
    assert np.array_equal(
        ensemble_predict(model, X), tree_reference.tree_predict(tree_reference.tree_from_dict(direct), X)
    )
    # three streams at once, with no ranking or table, after a tree already in the model
    forest = fit_random_forest(X, y, n_trees=3, bootstrap=False, feature_subsample=1, seed=9)
    assert len({json.dumps(tree) for tree in ensemble_to_dict(forest)["trees"]}) == 3
    grown = forests.EnsembleModel("random_forest", X.shape[1])
    fit_tree(X, y, grown, max_depth=1)
    base = len(grown.value)
    leaves = fit_tree(X, y, grown, max_depth=25, feature_subsample=1,
                      rngs=[SplitMix64(9 + i) for i in range(3)])
    assert ensemble_to_dict(grown)["trees"][0] == _fit_one_tree(X, y, max_depth=1)
    assert grown.roots[1:] == [base + root for root in forest.roots]
    for name in ("feature", "threshold", "value"):
        assert getattr(grown, name)[base:] == getattr(forest, name)
    for name in ("left", "right"):
        assert getattr(grown, name)[base:] == [c + base if c >= 0 else c for c in getattr(forest, name)]
    assert sorted(leaves) == [base + i for i, f in enumerate(forest.feature) if f < 0]
    bounds = grown.roots[1:] + [base + len(forest.value)]
    for start, stop in zip(bounds, bounds[1:]):
        tree_rows = np.concatenate([rows for node, rows in leaves.items() if start <= node < stop])
        assert np.array_equal(np.sort(tree_rows), np.arange(X.shape[0]))


def _reached_leaves(model, X, node, rows):
    """Each leaf below `node` of model, mapped to the rows among `rows`
    (in their order, repeats kept) that reach it."""
    if model.feature[node] < 0:
        return {node: rows}
    mask = X[rows, model.feature[node]] <= model.threshold[node]
    return {**_reached_leaves(model, X, model.left[node], rows[mask]),
            **_reached_leaves(model, X, model.right[node], rows[~mask])}


@pytest.mark.parametrize("min_samples_leaf", [1, 3])
@pytest.mark.parametrize("max_depth", [None, 2])
def test_fit_tree_streams_equal_reference_trees(fixture_matrix, monkeypatch, min_samples_leaf,
                                                max_depth):
    """Four streams from bootstrap roots that repeat rows, searched in
    chunks of a few nodes and partitioned together: each tree is the
    reference's tree fit alone on its root's rows, and fit_tree returns
    every leaf with the rows of its root that reach it, in root order. A
    forest of these sizes, grown two trees at a time, is the reference's."""
    monkeypatch.setattr(forests, "_SEARCH_CELLS", 2000)
    monkeypatch.setattr(forests, "_LOCKSTEP_ROWS", 400)
    X, y = fixture_matrix
    n = X.shape[0]
    roots = [SplitMix64(20 + t).randrange_array(n, n) for t in range(4)]
    assert all(np.unique(root).shape[0] < n for root in roots)
    params = dict(max_depth=max_depth, min_samples_leaf=min_samples_leaf, feature_subsample=5)
    model = forests.EnsembleModel("random_forest", X.shape[1])
    leaves = fit_tree(X, y, model, rngs=[SplitMix64(7 + t) for t in range(4)], rows=roots, **params)
    reached = {}
    for t, root in enumerate(roots):
        expected = reference_fit_tree(X[root], y[root].astype(float), rng=SplitMix64(7 + t), **params)
        assert forests.tree_to_dict(model, model.roots[t]) == tree_reference.tree_to_dict(expected)
        reached.update(_reached_leaves(model, X, model.roots[t], root))
    assert leaves.keys() == reached.keys() == {i for i, f in enumerate(model.feature) if f < 0}
    for node, rows in reached.items():
        assert np.array_equal(leaves[node], rows)
    forest = dict(n_trees=4, max_depth=max_depth, min_samples_leaf=min_samples_leaf, seed=9)
    _assert_same_trees(monkeypatch, lambda: fit_random_forest(X, y, **forest),
                       lambda: reference_fit_random_forest(X, y, **forest))


def test_draw_free_tree_searches_whole_steps_and_keeps_the_nested_json(fixture_matrix, monkeypatch):
    """A tree that draws no candidates searches all its open nodes at each
    step, so its in-memory node numbers follow the steps, and its nested
    JSON is the depth-first reference's. The targets are multiples of 1/8,
    so each leaf's mean is exact in any summation order."""
    X, _ = fixture_matrix
    y = np.random.default_rng(4).integers(0, 9, X.shape[0]) / 8.0
    searched = []
    inner = forests.best_split

    def spy(X, y, candidates, *args):
        searched.append(len(candidates))
        return inner(X, y, candidates, *args)

    monkeypatch.setattr(forests, "best_split", spy)
    model = forests.EnsembleModel("gbm", X.shape[1])
    fit_tree(X, y, model, max_depth=4, criterion="variance")
    reference_calls = _count_calls(monkeypatch, tree_reference, "reference_best_split")
    expected = reference_fit_tree(X, y, max_depth=4, criterion="variance")
    assert forests.tree_to_dict(model, 0) == tree_reference.tree_to_dict(expected)
    assert searched == [1, 2, 3, 4] and sum(searched) == len(reference_calls)
    copy = forests.EnsembleModel("gbm", X.shape[1])
    forests.tree_from_dict(forests.tree_to_dict(model, 0), X.shape[1], copy)
    assert (model.left[:3], copy.left[:3]) == ([1, 3, 5], [1, 3, 17])  # by level; depth-first


def test_forest_same_seed_identical():
    X, y = _separable()
    a = fit_random_forest(X, y, n_trees=5, seed=3)
    b = fit_random_forest(X, y, n_trees=5, seed=3)
    assert ensemble_to_dict(a) == ensemble_to_dict(b)


def test_forest_probability_permutation_invariant():
    X, y = _separable()
    model = fit_random_forest(X, y, n_trees=7, seed=1)
    data = ensemble_to_dict(model)
    shuffled = ensemble_from_dict({**data, "trees": data["trees"][::-1]})
    assert np.allclose(ensemble_predict(model, X), ensemble_predict(shuffled, X))


# --------------------------------------------------------------------------
# GBM
# --------------------------------------------------------------------------

def test_gbm_degenerate_labels():
    X = np.random.default_rng(0).normal(size=(12, 2))
    model = fit_gbm(X, np.ones(12, dtype=int), n_rounds=5)
    assert model.base_score == 10.0
    assert len(model.roots) == 0
    assert (ensemble_predict(model, X) > 0.999).all()


def test_gbm_in_memory_model_predicts_like_its_bundle_copy():
    """The depth-wise GBM's trees number their nodes by step in memory and
    depth-first in a bundle; both score every row the same, bit for bit."""
    rng = np.random.default_rng(5)
    X = rng.normal(size=(200, 6))
    y = (X[:, 0] + X[:, 1] * X[:, 2] + rng.normal(size=200) > 0).astype(int)
    model = fit_gbm(X, y, n_rounds=5, max_depth=4)
    copy = ensemble_from_dict(ensemble_to_dict(model))
    assert model.left != copy.left
    assert ensemble_predict(model, X).tobytes() == ensemble_predict(copy, X).tobytes()


def test_gbm_base_score_balanced():
    X = np.zeros((4, 1))
    model = fit_gbm(X, np.array([0, 1, 0, 1]), n_rounds=0)
    assert model.base_score == 0.0
    assert np.allclose(ensemble_predict(model, X), 0.5)


def test_gbm_first_round_reduces_log_loss():
    X, y = _separable()
    base = fit_gbm(X, y, n_rounds=0)
    one = fit_gbm(X, y, n_rounds=1)

    def log_loss(model):
        p = np.clip(ensemble_predict(model, X), 1e-12, 1 - 1e-12)
        return -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()

    assert log_loss(one) < log_loss(base)


def test_gbm_training_log_loss_non_increasing():
    X, y = _separable(n=50)
    losses = []
    for rounds in range(0, 16, 3):
        model = fit_gbm(X, y, n_rounds=rounds, learning_rate=0.1)
        p = np.clip(ensemble_predict(model, X), 1e-12, 1 - 1e-12)
        losses.append(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


# --------------------------------------------------------------------------
# Leaf-wise GBM
# --------------------------------------------------------------------------

def test_leafwise_max_leaves_two_is_single_split():
    X, y = _separable(n=80)
    model = fit_leafwise_gbm(X, y, n_rounds=3, max_leaves=2, min_samples_leaf=5)
    for tree in ensemble_to_dict(model)["trees"]:
        assert "feature" in tree
        assert "feature" not in tree["left"] and "feature" not in tree["right"]


def test_row_sums_add_each_row_in_order():
    """_row_sums equals the last column of a row-wise cumsum bit for bit,
    for one row or many and rows long enough for numpy's pairwise sum."""
    rng = np.random.default_rng(6)
    for n_rows in (1, 2, 5, 549):
        for width in (1, 8, 9, 13, 255):
            grid = rng.normal(size=(n_rows, width)) * 10.0 ** rng.integers(-8, 9, (n_rows, width))
            got = forests._row_sums(grid)
            assert got.tobytes() == grid.cumsum(axis=1)[:, -1].tobytes(), (n_rows, width)


def test_leafwise_histogram_gain_matches_exact_on_small_instances():
    """With more bins than distinct values the histogram search is exact."""
    rng = SplitMix64(99)
    for case in range(50):
        n = 10 + rng.randrange(41)
        X = np.array([[float(rng.randrange(6)) for _ in range(4)] for _ in range(n)])
        resid = np.array([rng.random() - 0.5 for _ in range(n)])
        bins = compute_bins(X, n_bins=255)
        count, grad = forests._leaf_histograms(_bin_table(bins), np.arange(n), resid)
        hist = forests._best_hist_split(bins, count, grad, 1)
        exact = best_split(X, resid, [range(4)], 1, "variance")[0]
        if hist is None or exact is None:
            assert hist is None and exact is None
            continue
        gain_hist = hist[0] / n  # same 1/n scaling as best_split
        assert gain_hist == pytest.approx(exact[2], rel=1e-9), f"case {case}"
        # and the split itself routes the same rows
        f_h, b_h = hist[1], hist[2]
        mask_hist = X[:, f_h] <= bins.edges[f_h][b_h]
        mask_exact = X[:, exact[0]] <= exact[1]
        assert np.array_equal(mask_hist, mask_exact), f"case {case}"


def _skewed_columns(rng, n):
    """Columns whose lowest value is not their most frequent: a middle or
    the highest value holds most rows, so the lowest bin is not the one
    that rules the feature out."""
    cols = []
    for _ in range(1 + int(rng.integers(4))):
        n_values = 2 + int(rng.integers(4))
        p = np.full(n_values, 0.2 / (n_values - 1))
        p[1 + int(rng.integers(n_values - 1))] = 0.8
        cols.append(rng.choice(n_values, size=n, p=p).astype(np.float64))
    return np.column_stack(cols)


def test_leafwise_scan_equals_full_grid_reference():
    """The pruned histogram scan picks the full 255-wide grid's
    (feature, bin) with the same gain, bit for bit, at a min_samples_leaf
    from 1 to one more than the leaf's n rows, at n = 2 * msl - 1 and
    n = 2 * msl, and where a feature's lowest bin holds exactly n - msl
    rows. Half the matrices also hold columns whose lowest bin is not
    their fullest."""
    rng = np.random.default_rng(8)
    found = set()  # the kinds of min_samples_leaf draw that found a split
    for case in range(600):
        n = 2 + int(rng.integers(60))
        blocks = [_random_columns(rng, n, 1 + int(rng.integers(8)))]
        if case % 2:
            blocks.append(_skewed_columns(rng, n))
        X = np.hstack(blocks)
        resid = rng.normal(size=n)
        bins = compute_bins(X, n_bins=int(rng.choice([3, 8, 255])))
        assert bins.width <= bins.n_bins
        kind = case // 2 % 4
        if kind in (1, 2):  # a leaf of 2 * msl - 1, then of 2 * msl rows
            min_leaf = 1 + int(rng.integers(n // 2))
            size = 2 * min_leaf - (kind == 1)
        else:
            size = 1 + int(rng.integers(n))
        rows = np.sort(rng.choice(n, size=size, replace=False))
        count, grad = forests._leaf_histograms(_bin_table(bins), rows, resid[rows])
        below = np.flatnonzero(count[:, 0] < size)
        if kind == 3 and below.shape[0]:  # a lowest bin of exactly n - msl rows
            min_leaf = size - int(count[rng.choice(below), 0])
        elif kind in (0, 3):
            min_leaf = 1 + int(rng.integers(size + 1))
        expected = full_grid_best_hist_split(
            bins, *full_grid_histograms(bins, rows, resid[rows]), min_leaf
        )
        got = forests._best_hist_split(bins, count, grad, min_leaf)
        assert got == expected, f"case {case}"
        if got is not None:
            found.add(kind)
    assert found == {0, 2, 3}


@pytest.mark.parametrize("min_samples_leaf", [1, 5, 20, 97])
def test_leafwise_equals_reference_grower(fixture_matrix, min_samples_leaf):
    """The leaf-wise fit grows the trees of the reference grower, which
    scans every leaf and builds every histogram on full grids; at 97, more
    than half the fixture's 192 training rows, every tree is one leaf."""
    X, y = fixture_matrix
    params = dict(n_rounds=4, min_samples_leaf=min_samples_leaf)
    expected = reference_fit_leafwise_gbm(X, y, **params)
    assert ensemble_to_dict(fit_leafwise_gbm(X, y, **params)) == expected


def _node_rows(model, X, root):
    """Each node of the tree at `root`, mapped to the rows of X that reach it."""
    reach = {root: np.arange(X.shape[0])}
    stack = [root]
    while stack:
        node = stack.pop()
        f = model.feature[node]
        if f >= 0:
            rows = reach[node]
            left = X[rows, f] <= model.threshold[node]
            reach[model.left[node]], reach[model.right[node]] = rows[left], rows[~left]
            stack += [model.left[node], model.right[node]]
    return reach


def _split_sizes(model, X):
    """(left rows, right rows) of every split of `model`, for the rows of X."""
    sizes = []
    for root in model.roots:
        reach = _node_rows(model, X, root)
        sizes += [(reach[model.left[node]].shape[0], reach[model.right[node]].shape[0])
                  for node in reach if model.feature[node] >= 0]
    return sizes


@pytest.mark.parametrize("min_samples_leaf", [5, 20, 97])
def test_leafwise_builds_and_scans_only_what_can_split(fixture_matrix, monkeypatch,
                                                       min_samples_leaf):
    """No leaf of fewer than 2 * min_samples_leaf rows is scanned, and no
    histogram is built for a split whose children both are that small, or
    for a root that small."""
    X, y = fixture_matrix
    smallest = 2 * min_samples_leaf  # rows of the smallest leaf that can split
    built, scanned = [], []
    build, scan = forests._leaf_histograms, forests._best_hist_split

    def spy_build(table, rows, targets):
        built.append(None if rows is None else rows.shape[0])
        return build(table, rows, targets)

    def spy_scan(bins, count, grad, msl):
        scanned.append(count[0].sum())
        return scan(bins, count, grad, msl)

    monkeypatch.setattr(forests, "_leaf_histograms", spy_build)
    monkeypatch.setattr(forests, "_best_hist_split", spy_scan)
    model = fit_leafwise_gbm(X, y, n_rounds=4, min_samples_leaf=min_samples_leaf)
    assert min(scanned, default=smallest) >= smallest
    assert built.count(None) == (len(model.roots) if X.shape[0] >= smallest else 0)
    needed = Counter(min(pair) for pair in _split_sizes(model, X) if max(pair) >= smallest)
    assert not Counter(size for size in built if size is not None) - needed


@pytest.mark.parametrize("min_samples_leaf", [1, 20])
def test_leafwise_never_splits_a_pure_leaf(fixture_matrix, min_samples_leaf):
    """No split of a leaf-wise fit has training rows whose residuals, in
    its round, are all equal: like fit_tree, the grower leaves such a leaf
    alone, where every split's exact gain is 0."""
    X, y = fixture_matrix
    model = fit_leafwise_gbm(X, y, n_rounds=20, min_samples_leaf=min_samples_leaf)
    scores = np.full(X.shape[0], model.base_score)
    for root in model.roots:
        residual = y - _sigmoid_values(scores)
        for node, rows in _node_rows(model, X, root).items():
            if model.feature[node] >= 0:
                assert (residual[rows] != residual[rows[0]]).any(), f"tree {root} node {node}"
            else:
                scores[rows] += model.learning_rate * model.value[node]


def _special_columns(rng, n):
    """Columns whose bins are not their value ranks, or that need the
    quantile path: adjacent floats, overflowing midpoints, infinities, NaN,
    signed zeros, and many distinct values."""
    def pick(values):
        return rng.choice(np.array(values, dtype=np.float64), size=n)

    return np.column_stack([
        pick([1.0, np.nextafter(1.0, 2.0), 3.0]),
        pick([-1.0, np.nextafter(-1.0, 0.0)]),
        pick([1e308, 1.5e308, 1.7e308]),
        pick([-1.7e308, -1e308, 0.0]),
        pick([-np.inf, 0.0, 1.0, np.inf]),
        pick([np.nan, 0.5, 2.0]),
        pick([-0.0, 0.0, 1.0]),
        rng.normal(size=n) * 1e3,
        np.full(n, 4.0),
    ])


def test_compute_bins_equals_per_column_reference():
    """Every FeatureBins field equals the per-column version exactly, edges
    bit for bit."""
    rng = np.random.default_rng(12)
    for case in range(200):
        n = 1 + int(rng.integers(80))
        blocks = [_random_columns(rng, n, 1 + int(rng.integers(8)))]
        if case % 2:
            blocks.append(_special_columns(rng, n))
        X = np.hstack(blocks)
        X = X[:, rng.permutation(X.shape[1])]
        n_bins = int(rng.choice([3, 8, 255]))
        with np.errstate(over="ignore", invalid="ignore"):  # the special columns' midpoints
            got, expected = compute_bins(X, n_bins), reference_compute_bins(X, n_bins)
        assert len(got.edges) == len(expected.edges), f"case {case}"
        for f, (a, b) in enumerate(zip(got.edges, expected.edges)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f"case {case} feature {f}"
        for name in ("codes", "has_edge"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), f"case {case} {name}"
        assert (got.n_bins, got.width) == (expected.n_bins, expected.width), f"case {case}"


@pytest.fixture(scope="module")
def fixture_matrix(small_csv):
    """The training rows of the 300-row fixture's tabular matrix."""
    from jobfraud import config, ingest, pipeline

    prepared = pipeline.prepare(
        ingest.load_dataset(small_csv), config.RunConfig(), kinds=("gbm",)
    )
    rows = np.array(prepared.splits.train)
    return prepared.tabular[rows], prepared.labels[rows]


def _count_calls(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def _searched_nodes(monkeypatch, fast, reference):
    """fast() and reference() fit equal ensembles, and every node that
    searched for a split did it through the module-level forests.best_split,
    which searches one node per row of its candidates; returns their number."""
    searched = []
    inner = forests.best_split

    def spy(X, y, candidates, *args, **kwargs):
        searched.append(len(candidates))
        return inner(X, y, candidates, *args, **kwargs)

    monkeypatch.setattr(forests, "best_split", spy)
    got = ensemble_to_dict(fast())
    reference_calls = _count_calls(monkeypatch, tree_reference, "reference_best_split")
    assert got == reference()
    assert sum(searched) == len(reference_calls)
    return sum(searched)


def _assert_same_trees(monkeypatch, fast, reference):
    assert _searched_nodes(monkeypatch, fast, reference) > 0


def test_ensembles_equal_reference_search_on_fixture(fixture_matrix, monkeypatch):
    """All three learners grow the trees the reference learners grow."""
    X, y = fixture_matrix
    _assert_same_trees(
        monkeypatch,
        lambda: fit_random_forest(X, y, n_trees=4, seed=3),
        lambda: reference_fit_random_forest(X, y, n_trees=4, seed=3),
    )
    _assert_same_trees(
        monkeypatch,
        lambda: fit_gbm(X, y, n_rounds=4),
        lambda: reference_fit_gbm(X, y, n_rounds=4),
    )

    def fit_leafwise():
        return ensemble_to_dict(fit_leafwise_gbm(X, y, n_rounds=4, min_samples_leaf=5))

    batched = fit_leafwise()
    made = []  # the FeatureBins of the fit, for the dense histograms

    def made_bins(X, n_bins):
        made.append(reference_compute_bins(X, n_bins))
        return made[-1]

    monkeypatch.setattr(forests, "_leaf_histograms",
                        lambda table, rows, targets: full_grid_histograms(made[-1], rows, targets))
    monkeypatch.setattr(forests, "_best_hist_split", full_grid_best_hist_split)
    monkeypatch.setattr(forests, "compute_bins", made_bins)
    assert batched == fit_leafwise()


@pytest.mark.parametrize("min_samples_leaf", [1, 2, 3])
@pytest.mark.parametrize("max_depth", [2, 3, 4])
def test_gbm_equals_reference_fit(fixture_matrix, monkeypatch, min_samples_leaf, max_depth):
    """The histogram search and the node gathers grow the reference's trees
    at every min_samples_leaf and depth, also where the best root split would
    leave a single row on one side."""
    rng = np.random.default_rng(8)
    lone_X = rng.normal(size=(40, 5))
    lone_y = np.zeros(40)
    lone_y[np.argmin(lone_X[:, 2])] = 1.0
    params = dict(n_rounds=3, max_depth=max_depth, min_samples_leaf=min_samples_leaf)
    for X, y in (fixture_matrix, (lone_X, lone_y)):
        _assert_same_trees(
            monkeypatch,
            lambda: fit_gbm(X, y, **params),
            lambda: reference_fit_gbm(X, y, **params),
        )


@pytest.mark.parametrize("bootstrap", [True, False])
def test_random_forest_equals_reference_fit(fixture_matrix, monkeypatch, bootstrap):
    X, y = fixture_matrix
    params = dict(n_trees=4, min_samples_leaf=2, bootstrap=bootstrap, seed=5)
    _assert_same_trees(
        monkeypatch,
        lambda: fit_random_forest(X, y, **params),
        lambda: reference_fit_random_forest(X, y, **params),
    )


@pytest.mark.parametrize("search_cells, lockstep_rows", [
    (1, forests._LOCKSTEP_ROWS),  # every node searched on its own
    (1000, 400),  # a fixture root alone, small nodes together; fixture trees two at a time
])
def test_random_forest_equals_reference_on_uneven_forests(fixture_matrix, monkeypatch, search_cells,
                                                          lockstep_rows):
    """Forests whose trees finish at different lockstep steps, or never
    search, grow the reference's trees, however a step's nodes are chunked
    and the trees grouped."""
    monkeypatch.setattr(forests, "_SEARCH_CELLS", search_cells)
    monkeypatch.setattr(forests, "_LOCKSTEP_ROWS", lockstep_rows)
    X, y = fixture_matrix
    tiny_X = np.random.default_rng(3).integers(0, 3, size=(6, 5)).astype(np.float64)
    tiny_y = np.array([0, 0, 1, 0, 0, 0])
    # some bootstraps of the tiny matrix miss its one positive: a pure root
    tiny = ensemble_to_dict(fit_random_forest(tiny_X, tiny_y, n_trees=12, seed=1))["trees"]
    assert any("feature" in tree for tree in tiny) and any("feature" not in tree for tree in tiny)
    cases = [
        (tiny_X, tiny_y, dict(n_trees=12, seed=1)),
        (X, y, dict(n_trees=5, max_depth=1, seed=2)),
        (X, y, dict(n_trees=3, min_samples_leaf=X.shape[0] + 1, seed=3)),
        (X, y, dict(n_trees=3, max_depth=4, feature_subsample=X.shape[1], seed=4)),
        (tiny_X, tiny_y, dict(n_trees=3, feature_subsample=9, seed=4)),
        (X, y, dict(n_trees=3, max_depth=6, bootstrap=False, seed=5)),
    ]
    searched = []
    for X_case, y_case, params in cases:
        searched.append(_searched_nodes(
            monkeypatch,
            lambda: fit_random_forest(X_case, y_case, **params),
            lambda: tree_reference.reference_fit_random_forest(X_case, y_case, **params),
        ))
    assert searched[2] == 0 and all(searched[:2] + searched[3:])


def test_leafwise_deterministic():
    X, y = _separable(n=70)
    a = fit_leafwise_gbm(X, y, n_rounds=4, min_samples_leaf=5)
    b = fit_leafwise_gbm(X, y, n_rounds=4, min_samples_leaf=5)
    assert ensemble_to_dict(a) == ensemble_to_dict(b)


def test_leafwise_learns_separable():
    X, y = _separable(n=100)
    model = fit_leafwise_gbm(X, y, n_rounds=30, min_samples_leaf=5)
    preds = (ensemble_predict(model, X) >= 0.5).astype(int)
    assert (preds == y).mean() >= 0.99


def test_leafwise_respects_min_samples_leaf():
    X, y = _separable(n=60)
    model = fit_leafwise_gbm(X, y, n_rounds=2, min_samples_leaf=10)
    for tree in ensemble_to_dict(model)["trees"]:
        for _, rows in _leaf_rows(tree, X, np.arange(60)):
            assert len(rows) >= 10


# --------------------------------------------------------------------------
# ensemble_predict
# --------------------------------------------------------------------------

def _ensemble(kind, trees, n_features, learning_rate=None, base_score=None):
    return ensemble_from_dict({
        "kind": kind, "n_features": n_features, "learning_rate": learning_rate,
        "base_score": base_score, "trees": trees,
    })


def test_predict_forest_of_identical_stumps():
    stump = {"feature": 0, "threshold": 0.5, "left": {"value": 0.2}, "right": {"value": 0.9}}
    model = _ensemble("random_forest", [stump, stump, stump], n_features=1)
    out = ensemble_predict(model, np.array([[0.0], [1.0]]))
    assert np.allclose(out, [0.2, 0.9])


def test_predict_zero_rounds_is_constant_sigmoid():
    model = _ensemble("gbm", [], n_features=2, learning_rate=0.1, base_score=-1.3)
    out = ensemble_predict(model, np.zeros((4, 2)))
    assert np.allclose(out, _sigmoid_values(np.array([-1.3])))


def test_predict_probabilities_in_range():
    X, y = _separable()
    for model in (
        fit_random_forest(X, y, n_trees=5, seed=0),
        fit_gbm(X, y, n_rounds=10),
        fit_leafwise_gbm(X, y, n_rounds=10, min_samples_leaf=5),
    ):
        p = ensemble_predict(model, X)
        assert ((p >= 0.0) & (p <= 1.0)).all()


def test_predict_width_mismatch():
    model = _ensemble("random_forest", [{"value": 0.5}], n_features=3)
    with pytest.raises(ShapeError):
        ensemble_predict(model, np.zeros((2, 4)))


def test_tree_serialization_round_trip():
    X, y = _separable(n=40)
    model = fit_gbm(X, y, n_rounds=3)
    clone = ensemble_from_dict(ensemble_to_dict(model))
    assert np.array_equal(ensemble_predict(model, X), ensemble_predict(clone, X))
    assert ensemble_to_dict(clone) == ensemble_to_dict(model)


def _rows_on_thresholds(model, X):
    """One row per split of the model, copied from X with the split's
    feature set exactly to its threshold."""
    feature, threshold = np.array(model.feature), np.array(model.threshold)
    splits = np.flatnonzero(feature >= 0)
    rows = X[np.arange(splits.shape[0]) % X.shape[0]].copy()
    rows[np.arange(splits.shape[0]), feature[splits]] = threshold[splits]
    return rows


@pytest.mark.parametrize("walk_pairs", [forests._WALK_PAIRS, 50])
def test_predict_equals_recursive_reference(fixture_matrix, monkeypatch, walk_pairs):
    """The level-wise walk gives the recursive per-tree predictor's
    probabilities bit for bit, for all three kinds, on the fixture's rows
    and on rows that lie exactly on a split threshold, in one block of rows
    and in many (50 pairs make blocks of 5 rows, the last one shorter)."""
    X, y = fixture_matrix
    monkeypatch.setattr(forests, "_WALK_PAIRS", walk_pairs)
    for model in (
        fit_random_forest(X, y, n_trees=10, max_depth=8, seed=2),
        fit_gbm(X, y, n_rounds=10),
        fit_leafwise_gbm(X, y, n_rounds=10, min_samples_leaf=5),
    ):
        data = json.loads(json.dumps(ensemble_to_dict(model)))
        loaded = ensemble_from_dict(data)
        on_thresholds = _rows_on_thresholds(loaded, X)
        assert on_thresholds.shape[0] > 20
        for rows in (X, on_thresholds):
            expected = reference_predict(data, rows)
            assert np.array_equal(ensemble_predict(model, rows), expected), model.kind
            assert np.array_equal(ensemble_predict(loaded, rows), expected), model.kind


# --------------------------------------------------------------------------
# Tabular featurization
# --------------------------------------------------------------------------

def test_count_terms_hand_case():
    counts = count_terms(["b b a"], ["a", "b"])
    assert counts.tolist() == [[1.0, 2.0]]


def test_count_terms_empty_text():
    assert count_terms([""], ["a", "b"]).tolist() == [[0.0, 0.0]]


def test_count_terms_equals_token_loop():
    rng = np.random.default_rng(13)
    words = ["a", "b", "c", "dd", "e1", "zz"]
    terms = ["dd", "a", "c", "e1"]
    texts = [" ".join(rng.choice(words, size=int(rng.integers(12)))) for _ in range(40)]
    expected = np.zeros((len(texts), len(terms)))
    for row, text in enumerate(texts):
        for token in text.split():
            if token in terms:
                expected[row, terms.index(token)] += 1.0
    counts = count_terms(texts, terms)
    assert counts.dtype == np.float64 and np.array_equal(counts, expected)
    assert count_terms([], terms).shape == (0, 4)
    assert count_terms(["a b"], []).shape == (1, 0)


def test_build_tabular_width_constant():
    numeric = np.zeros((3, 4))
    terms = features_reference.select_terms(["a b c", "a a", "d"], top_k=3)
    X = build_tabular(numeric, ["a b", "c d", ""], terms)
    assert X.shape == (3, 4 + 3)


def test_build_tabular_rejects_row_mismatch():
    with pytest.raises(ShapeError, match="3 texts for 2 numeric rows"):
        build_tabular(np.zeros((2, 4)), ["a", "b", "c"], ["a"])


_token = st.sampled_from(["a", "b", "c", "dd", "e1", "zz"])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(_token, max_size=15).map(" ".join), max_size=12),
    st.lists(_token, max_size=6),
    st.integers(min_value=1, max_value=5),
)
def test_count_terms_equals_reference(texts, terms, chunk_rows):
    """Empty texts, tokens outside the terms, a repeated term and chunk
    boundaries included, for texts given as strings and as SplitTexts."""
    numeric = np.arange(len(texts) * 3, dtype=np.float64).reshape(-1, 3)
    expected = features_reference.count_terms(texts, terms)
    with mock.patch.object(features, "CHUNK_ROWS", chunk_rows):
        for source in (texts, features.SplitTexts(texts)):
            counts = count_terms(source, terms)
            assert counts.dtype == np.float64 and np.array_equal(counts, expected)
            if texts:
                tabular = build_tabular(numeric, source, terms)
                assert np.array_equal(tabular, np.hstack([numeric, expected]))


@pytest.mark.parametrize("extra", [-1, 0, 1, features.CHUNK_ROWS + 1])
def test_count_terms_around_the_chunk_size(extra):
    rows = features.CHUNK_ROWS + extra
    texts = [" ".join(["a", "b", "c", "d"][: 1 + i % 4] * (1 + i % 3)) for i in range(rows)]
    terms = ["c", "a", "x"]
    expected = features_reference.count_terms(texts, terms)
    assert np.array_equal(count_terms(texts, terms), expected)
    assert np.array_equal(count_terms(features.SplitTexts(texts), terms), expected)


def test_estimator_wrappers_fit_predict():
    """Each tree kind's entry of the pipeline's fit table reads its own
    config section and gives an ensemble that scores rows."""
    X, y = _separable(n=80)
    for kind, cfg in (
        ("random_forest", RunConfig(seed=1, random_forest=RandomForestSection(n_trees=10))),
        ("gbm", RunConfig(gbm=GbmSection(n_rounds=10))),
        ("leafwise_gbm",
         RunConfig(leafwise_gbm=LeafwiseSection(n_rounds=10, min_samples_leaf=5))),
    ):
        model = _FIT_ENSEMBLE[kind](X, y, cfg)
        assert model.kind == kind and len(model.roots) == 10
        scores = model.decision_scores(X)
        assert scores.shape == (80,)
        assert ((scores >= 0.0) & (scores <= 1.0)).all()
        assert ((scores >= cfg.threshold) == y).mean() > 0.9


def test_estimator_predict_uses_threshold():
    """A tree kind's scores are labelled at the config's threshold, not at 0.5."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(80, 4))
    y = (X[:, 2] + rng.normal(size=80) > 0).astype(int)  # noisy: scores between 0 and 1
    for kind, cfg in (
        ("random_forest", RunConfig(
            seed=1, threshold=0.7, random_forest=RandomForestSection(n_trees=5)
        )),
        ("gbm", RunConfig(threshold=0.7, gbm=GbmSection(n_rounds=3))),
        ("leafwise_gbm", RunConfig(
            threshold=0.7, leafwise_gbm=LeafwiseSection(n_rounds=3, min_samples_leaf=5)
        )),
    ):
        scores = _FIT_ENSEMBLE[kind](X, y, cfg).decision_scores(X)
        assert ((scores >= 0.5) & (scores < 0.7)).any()  # rows the threshold decides
        predicted = scores >= 0.7
        actual = y == 1
        assert metrics.confusion_at(y, scores, cfg.threshold) == metrics.ConfusionMatrix(
            tn=int((~predicted & ~actual).sum()), fp=int((predicted & ~actual).sum()),
            fn=int((~predicted & actual).sum()), tp=int((predicted & actual).sum()),
        )
