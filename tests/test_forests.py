import json
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
    reference_best_split,
    reference_fit_gbm,
    reference_fit_random_forest,
    reference_predict,
    sorted_scan_best_split,
)


# --------------------------------------------------------------------------
# Reference histogram searches: a full n_bins-wide grid (leaf-wise), the
# design the batched scan in forests replaces and must match bit for bit;
# the exact-split references are in tree_reference.py
# --------------------------------------------------------------------------

def full_grid_histograms(bins, rows, targets):
    n_features = bins.codes.shape[1]
    size = n_features * bins.n_bins
    flat = (bins.codes[rows] + np.arange(n_features) * bins.n_bins).ravel()
    count = np.bincount(flat, minlength=size).reshape(n_features, bins.n_bins)
    grad = np.bincount(
        flat, weights=np.repeat(targets, n_features), minlength=size
    ).reshape(n_features, bins.n_bins)
    return count.astype(np.float64), grad


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
    flat = codes + np.arange(n_features) * width
    cells = np.flatnonzero(np.arange(width) < n_edges[:, None])
    return forests.FeatureBins(
        edges=edges, codes=codes, flat_codes=flat, n_bins=n_bins, width=width, cells=cells,
    )


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
    found = best_split(X, np.array([0.0, 1.0, 0.0, 1.0]), range(2), 1, "gini")
    assert found[0] == 0
    # three identical-gain thresholds inside one feature: lowest wins
    X2 = np.array([[0.0], [1.0], [2.0], [3.0]])
    y2 = np.array([0.0, 0.0, 1.0, 1.0])
    f2 = best_split(X2, y2, range(1), 1, "gini")
    assert f2[1] == 1.5  # the maximizer; 0.5/2.5 are strictly worse


def test_tree_split_matches_brute_force_on_random_instances():
    """Chosen split's exact gain equals the exhaustive-search optimum."""
    rng = SplitMix64(2024)
    for case in range(100):
        n = 5 + rng.randrange(46)
        n_features = 1 + rng.randrange(5)
        X = np.array([[float(rng.randrange(5)) for _ in range(n_features)] for _ in range(n)])
        y = np.array([rng.randrange(2) for _ in range(n)], dtype=float)
        found = best_split(X, y, range(n_features), 1, "gini")
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
        found = best_split(X, y, range(3), 1, "variance")
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
        assert best_split(X, y, candidates, min_leaf, criterion) == expected, f"case {case}"
        # the ranking of a larger matrix, restricted to the node's rows
        rows = np.sort(rng.choice(n, size=max(2, n // 2), replace=False))
        expected = reference_best_split(X[rows], y[rows], candidates, min_leaf, criterion)
        ranking = rank_codes(X)
        ranking = ranking._replace(flat_codes=ranking.flat_codes[rows])
        found = best_split(X[rows], y[rows], candidates, min_leaf, criterion, ranking)
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
    expected = reference_best_split(X[rows], y[rows], candidates, min_leaf, criterion)
    ranking = rank_codes(X)
    column_major = ranking._replace(flat_codes=np.asfortranarray(ranking.flat_codes))
    for layout in (ranking, column_major):  # whole-row and candidate-column gathers
        found = best_split(X, y[rows], candidates, min_leaf, criterion, layout, rows)
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
    found = best_split(X, y, range(n_features), min_leaf, "variance")
    assert found == sorted_scan_best_split(X, y, range(n_features), min_leaf, "variance")
    brute = brute_force_best_gain(X, y, min_leaf, variance_gain_exact)
    if found is None:
        assert brute == 0
    else:
        assert variance_gain_exact(y, X[:, found[0]] <= found[1]) == brute


def test_rank_codes_are_unique_inverses():
    X = np.array([[0.5, -0.0, 3.0], [-1.0, 0.0, 3.0], [0.5, 2.0, 3.0], [2.0, -0.0, 3.0]])
    ranking = rank_codes(X)
    assert ranking.width == 3  # feature f's codes start at 3 f
    assert ranking.flat_codes.T.tolist() == [[1, 0, 1, 2], [3, 3, 4, 3], [6, 6, 6, 6]]
    # each column's distinct values, its largest repeated past its last
    assert ranking.values.tolist() == [[-1.0, 0.5, 2.0], [0.0, 2.0, 2.0], [3.0, 3.0, 3.0]]
    rng = np.random.default_rng(6)
    X = _random_columns(rng, 50, 12)
    ranking = rank_codes(X)
    for f in range(12):
        distinct, inverse = np.unique(X[:, f], return_inverse=True)
        assert np.array_equal(ranking.flat_codes[:, f], f * ranking.width + inverse)
        assert np.array_equal(ranking.values[f, : distinct.shape[0]], distinct)
    wide = rank_codes(np.arange(40000.0)[::-1].reshape(-1, 1))
    assert np.array_equal(wide.flat_codes[:, 0], np.arange(40000)[::-1])


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


def test_leafwise_histogram_gain_matches_exact_on_small_instances():
    """With more bins than distinct values the histogram search is exact."""
    rng = SplitMix64(99)
    for case in range(50):
        n = 10 + rng.randrange(41)
        X = np.array([[float(rng.randrange(6)) for _ in range(4)] for _ in range(n)])
        resid = np.array([rng.random() - 0.5 for _ in range(n)])
        bins = compute_bins(X, n_bins=255)
        count, grad = forests._leaf_histograms(bins, np.arange(n), resid)
        hist = forests._best_hist_split(bins, count, grad, 1)
        exact = best_split(X, resid, range(4), 1, "variance")
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


def test_leafwise_scan_equals_full_grid_reference():
    """The narrowed histogram scan picks the full 255-wide grid's
    (feature, bin) with the same gain, bit for bit."""
    rng = np.random.default_rng(8)
    for case in range(300):
        n = 2 + int(rng.integers(60))
        X = _random_columns(rng, n, 1 + int(rng.integers(8)))
        resid = rng.normal(size=n)
        bins = compute_bins(X, n_bins=int(rng.choice([3, 8, 255])))
        assert bins.width <= bins.n_bins
        rows = np.sort(rng.choice(n, size=1 + int(rng.integers(n)), replace=False))
        min_leaf = 1 + int(rng.integers(4))
        count, grad = forests._leaf_histograms(bins, rows, resid[rows])
        expected = full_grid_best_hist_split(
            bins, *full_grid_histograms(bins, rows, resid[rows]), min_leaf
        )
        assert forests._best_hist_split(bins, count, grad, min_leaf) == expected, f"case {case}"


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
        for name in ("codes", "flat_codes", "cells"):
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


def _assert_same_trees(monkeypatch, fast, reference):
    """fast() and reference() fit equal ensembles, and every node that
    searched for a split did it through the module-level forests.best_split."""
    fast_calls = _count_calls(monkeypatch, forests, "best_split")
    got = ensemble_to_dict(fast())
    reference_calls = _count_calls(monkeypatch, tree_reference, "reference_best_split")
    assert got == reference()
    assert len(fast_calls) == len(reference_calls) > 0


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
    monkeypatch.setattr(forests, "_leaf_histograms", full_grid_histograms)
    monkeypatch.setattr(forests, "_best_hist_split", full_grid_best_hist_split)
    monkeypatch.setattr(forests, "compute_bins", reference_compute_bins)
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
