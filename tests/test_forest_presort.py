"""The presorted, weighted random-forest split search against the per-node-sort
builder it replaced.

The reference below is the earlier engine, kept here as the oracle: every
node gathers its bootstrap sample, repeats included, and stably argsorts the
sampled features. The presorted engine sorts once per fit and grows each tree
over its in-bag rows with the bootstrap counts as row weights; it must draw
the same random numbers and grow the same trees bit for bit, so the saved
model bytes are equal too.
"""

import itertools
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgbeats.model import forest
from ecgbeats.model.ensemble import EnsembleModel
from ecgbeats.model.forest import RfParams, fit_random_forest
from ecgbeats.model.persist import save_model
from ecgbeats.model.tree import LEAF, Tree, first_cut, grow, presort


def _best_gini_split(x_node, y_node, n_classes, min_leaf, feats):
    n = x_node.shape[0]
    if n < 2 * min_leaf:
        return None
    sub = x_node[:, feats]
    order = np.argsort(sub, axis=0, kind="stable")
    xs = np.take_along_axis(sub, order, axis=0)
    ys = y_node[order]

    cum = np.stack([np.cumsum(ys == c, axis=0) for c in range(n_classes)], axis=2)
    totals = cum[-1]
    left = cum[:-1].astype(float)
    right = totals[None].astype(float) - left
    n_left = np.arange(1, n, dtype=float)[:, None]
    n_right = n - n_left

    score = (left ** 2).sum(axis=2) / n_left + (right ** 2).sum(axis=2) / n_right
    valid = (xs[1:] > xs[:-1]) & (n_left >= min_leaf) & (n_right >= min_leaf)
    score = np.where(valid, score, -np.inf)

    parent_score = float((totals[0].astype(float) ** 2).sum() / n)
    per_feature = score.max(axis=0)
    col = int(np.argmax(per_feature))
    if not np.isfinite(per_feature[col]) or per_feature[col] <= parent_score:
        return None
    row = int(np.argmax(score[:, col]))
    return int(feats[col]), float(0.5 * (xs[row, col] + xs[row + 1, col]))


def _build_tree(x, y, sample_idx, n_classes, params, rng):
    n_features = x.shape[1]
    k_feats = params.features_per_split or max(1, round(np.sqrt(n_features)))
    k_feats = min(k_feats, n_features)
    nodes = [None]
    stack = [(0, sample_idx, 0)]
    while stack:
        node, idx, depth = stack.pop()
        counts = np.bincount(y[idx], minlength=n_classes)
        split = None
        pure = np.count_nonzero(counts) <= 1
        if not pure and (params.max_depth is None or depth < params.max_depth):
            feats = np.sort(rng.choice(n_features, size=k_feats, replace=False))
            split = _best_gini_split(x[idx], y[idx], n_classes,
                                     params.min_samples_leaf, feats)
        if split is None:
            nodes[node] = (LEAF, 0.0, LEAF, LEAF, counts)
            continue
        feature, threshold = split
        go_left = x[idx, feature] <= threshold
        left = len(nodes)
        nodes += [None, None]
        nodes[node] = (feature, threshold, left, left + 1, np.zeros_like(counts))
        stack.append((left + 1, idx[~go_left], depth + 1))
        stack.append((left, idx[go_left], depth + 1))
    return Tree.from_nodes(nodes)


def reference_fit(x, y, params, k):
    rng = np.random.default_rng(params.seed)
    n = x.shape[0]
    trees = [_build_tree(x, y, rng.integers(0, n, size=n), k, params, rng)
             for _ in range(params.n_trees)]
    return EnsembleModel(kind="rf", n_classes=k, n_features=x.shape[1], trees=trees)


def saved_bytes(model):
    with tempfile.TemporaryDirectory() as d:
        save_model(model, Path(d) / "m.model")
        return (Path(d) / "m.model").read_bytes()


def bounded_grow(x, rows, sorted_, decide):
    """grow, failing once a tree has more nodes than its rows allow: a split
    that sends every row one way (a cut between equal values) would repeat
    itself without end where max_depth is None."""
    calls = itertools.count()

    def counted(idx, sorted_, depth):
        assert next(calls) < 2 * len(rows) - 1, "a split sent no row one way"
        return decide(idx, sorted_, depth)

    return grow(x, rows, sorted_, counted)


def assert_same_fit(x, y, params, k=3):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forest, "grow", bounded_grow)
        got = fit_random_forest(x, y, params, n_classes=k)
    want = reference_fit(x, y, params, k)
    assert len(got.trees) == len(want.trees)
    for tree, ref in zip(got.trees, want.trees):
        for field in ("feature", "threshold", "left", "right", "value"):
            np.testing.assert_array_equal(getattr(tree, field), getattr(ref, field),
                                          err_msg=field)
        assert tree.value.dtype == np.int64
    assert saved_bytes(got) == saved_bytes(want)


@st.composite
def tie_heavy_problems(draw):
    """Few distinct values per column, a duplicated column, and every
    feature-subset size from one feature to all of them."""
    n = draw(st.integers(2, 60))
    levels = draw(st.integers(1, 5))
    n_cols = draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(0, levels), min_size=n * n_cols, max_size=n * n_cols))
    x = 0.25 * np.array(cells, dtype=float).reshape(n, n_cols)
    x = np.hstack([x, x[:, :1]])          # its splits tie with column 0's
    y = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    y[:2] = [0, 1]                        # at least two classes
    params = RfParams(n_trees=draw(st.integers(1, 3)),
                      max_depth=draw(st.one_of(st.none(), st.integers(1, 4))),
                      min_samples_leaf=draw(st.integers(1, 5)),
                      features_per_split=draw(st.sampled_from([None, 1, x.shape[1]])),
                      seed=draw(st.integers(0, 2 ** 32)))
    return x, y, params


@settings(max_examples=150, deadline=None)
@given(tie_heavy_problems())
def test_trees_equal_per_node_sort_oracle(problem):
    assert_same_fit(*problem)


@settings(max_examples=100, deadline=None)
@given(tie_heavy_problems())
def test_unstable_presort_sorts_each_column(problem):
    x = problem[0]
    order = presort(x, stable=False)
    assert order.dtype == np.int32 and order.shape == x.shape[::-1]
    for f, rows in enumerate(order):
        np.testing.assert_array_equal(np.sort(rows), np.arange(x.shape[0]))
        assert np.all(np.diff(x[rows, f]) >= 0)


@settings(max_examples=150, deadline=None)
@given(tie_heavy_problems())
def test_stable_presort_saves_the_same_bytes(problem):
    # the forest sorts unstable: tied rows may come in any order, as its scan
    # takes no cut between equal values
    x, y, params = problem
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forest, "grow", bounded_grow)
        want = saved_bytes(fit_random_forest(x, y, params, n_classes=3))
        mp.setattr(forest, "presort", lambda x, stable: presort(x, stable=True))
        got = saved_bytes(fit_random_forest(x, y, params, n_classes=3))
    assert got == want


def test_deep_trees_equal_oracle():
    # continuous and rounded (tied) columns, unbounded depth, the default subset
    rng = np.random.default_rng(8)
    x = rng.normal(size=(500, 9))
    x[:, 5:] = np.round(x[:, 5:], 1)
    x[:, 8] = x[:, 5]
    y = np.digitize(x[:, 0] + x[:, 5] + rng.normal(0.0, 0.7, 500), [-0.5, 0.5])
    assert_same_fit(x, y, RfParams(n_trees=4, seed=3))
    assert_same_fit(x, y, RfParams(n_trees=2, min_samples_leaf=4, seed=9))


# sorted by column 0, rows 2-7 tie at 1.0 and the labels change inside that
# run: the best score is an illegal cut between equal values. Column 1's legal
# cut beats column 0's legal ones.
TIED_RUN = np.array([0, 0, 1, 1, 1, 1, 1, 1, 2, 2], dtype=float)
LATER_FEATURE = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1, 1], dtype=float)
TIED_RUN_LABELS = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])


@pytest.mark.parametrize("min_samples_leaf", [1, 2])
@pytest.mark.parametrize("columns, root_feature", [
    ((TIED_RUN,), 0),                  # the legal best is in the same feature
    ((TIED_RUN, LATER_FEATURE), 1),    # the legal best is in a later feature
])
def test_first_maximum_on_a_tie_falls_back_to_the_legal_best(
        monkeypatch, min_samples_leaf, columns, root_feature):
    # every row in bag once, so the root scans these exact rows; leaf
    # minimums of 2 keep the min-leaf mask, which 1 skips
    masked = []                          # per scan: -inf cuts before and after first_cut

    def recorded(score, rows, feats, x):
        before = np.isneginf(score).sum()
        cut = first_cut(score, rows, feats, x)
        masked.append((before, np.isneginf(score).sum()))
        return cut

    monkeypatch.setattr(forest, "first_cut", recorded)
    x, y = np.column_stack(columns), TIED_RUN_LABELS
    params = RfParams(max_depth=2, min_samples_leaf=min_samples_leaf,
                      features_per_split=x.shape[1], seed=4)
    order = presort(x, stable=False)
    got = forest._build_tree(x, y, np.ones(len(y), dtype=int), order, 2, params,
                             np.random.default_rng(params.seed))
    want = _build_tree(x, y, np.arange(len(y)), 2, params, np.random.default_rng(params.seed))
    for field in ("feature", "threshold", "left", "right", "value"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field),
                                      err_msg=field)
    before, after = masked[0]
    assert (before > 0) == (min_samples_leaf > 1)
    assert after > before and got.feature[0] == root_feature


@pytest.mark.parametrize("seed", [0, 7])
def test_a_smaller_forest_is_a_prefix(seed):
    # a forest draws each tree's bootstrap and node features in tree order
    # from one seeded stream, so grid_search scores each size on a prefix
    rng = np.random.default_rng(4)
    x = np.round(rng.normal(size=(120, 5)), 1)
    y = np.digitize(x[:, 0] + x[:, 1] + rng.normal(0.0, 0.5, 120), [-0.5, 0.5])
    params = RfParams(n_trees=6, seed=seed)
    longest = fit_random_forest(x, y, params)
    for m in (1, 3, params.n_trees):
        want = fit_random_forest(x, y, replace(params, n_trees=m))
        got = longest.prefix(m)
        assert len(got.trees) == m and got.train_logloss == []
        assert saved_bytes(got) == saved_bytes(want)
