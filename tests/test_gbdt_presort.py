"""The presorted GBDT split search against the per-node-sort builder it replaced.

The reference below is the earlier engine, kept here as the oracle: it
argsorts the node's rows at every node and gets the training scores by
routing the training rows through each finished tree. The presorted engine
must grow the same trees bit for bit.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgbeats.model import GbdtParams, fit_gbdt, save_model
from ecgbeats.model.ensemble import softmax
from ecgbeats.model.tree import LEAF, Tree


def _gain_term(g_sum, den):
    return np.where(den > 0, g_sum * g_sum / np.where(den > 0, den, 1.0), 0.0)


def _best_split(x_node, g_node, h_node, lam, min_leaf):
    n = x_node.shape[0]
    if n < 2 * min_leaf:
        return None
    g_total, h_total = g_node.sum(), h_node.sum()
    parent = float(_gain_term(np.asarray(g_total), np.asarray(h_total + lam)))

    order = np.argsort(x_node, axis=0, kind="stable")
    xs = np.take_along_axis(x_node, order, axis=0)
    gl = np.cumsum(g_node[order], axis=0)[:-1]
    hl = np.cumsum(h_node[order], axis=0)[:-1]
    gains = _gain_term(gl, hl + lam) + _gain_term(g_total - gl, h_total - hl + lam) - parent

    n_left = np.arange(1, n)[:, None]
    valid = (xs[1:] > xs[:-1]) & (n_left >= min_leaf) & (n - n_left >= min_leaf)
    gains = np.where(valid, gains, -np.inf)

    per_feature = gains.max(axis=0)
    feature = int(np.argmax(per_feature))
    gain = per_feature[feature]
    if not np.isfinite(gain) or gain <= 0.0:
        return None
    row = int(np.argmax(gains[:, feature]))
    return feature, float(0.5 * (xs[row, feature] + xs[row + 1, feature]))


def _leaf_value(g_sum, h_sum, params):
    den = h_sum + params.l2_lambda
    if den <= 0:
        return 0.0
    mag = max(abs(g_sum) - params.l1_alpha, 0.0)
    return float(-np.sign(g_sum) * mag / den * params.learning_rate)


def _build_tree(x, g, h, params):
    nodes = [None]
    stack = [(0, np.arange(x.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        split = None
        if depth < params.max_depth:
            split = _best_split(x[idx], g[idx], h[idx],
                                params.l2_lambda, params.min_data_in_leaf)
        if split is None:
            value = _leaf_value(g[idx].sum(), h[idx].sum(), params)
            nodes[node] = (LEAF, 0.0, LEAF, LEAF, value)
            continue
        feature, threshold = split
        go_left = x[idx, feature] <= threshold
        left = len(nodes)
        nodes += [None, None]
        nodes[node] = (feature, threshold, left, left + 1, 0.0)
        stack.append((left + 1, idx[~go_left], depth + 1))
        stack.append((left, idx[go_left], depth + 1))
    return Tree.from_nodes(nodes)


def reference_fit(x, y, params, k):
    """(trees, train_logloss) of the per-node-argsort engine."""
    onehot = np.eye(k)[y]
    scores = np.zeros((x.shape[0], k))
    trees, logloss = [], []
    for _ in range(params.n_estimators):
        probs = softmax(scores)
        for cls in range(k):
            g = probs[:, cls] - onehot[:, cls]
            h = probs[:, cls] * (1.0 - probs[:, cls])
            tree = _build_tree(x, g, h, params)
            scores[:, cls] += tree.value[tree.apply(x)]
            trees.append(tree)
        probs = softmax(scores)
        logloss.append(float(-np.mean(np.log(probs[np.arange(x.shape[0]), y]))))
    return trees, logloss


def assert_same_fit(x, y, params, k=3):
    model = fit_gbdt(x, y, params, n_classes=k)
    trees, logloss = reference_fit(x, y, params, k)
    assert len(model.trees) == len(trees)
    for got, want in zip(model.trees, trees):
        for field in ("feature", "threshold", "left", "right", "value"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field),
                                          err_msg=field)
    assert model.train_logloss == logloss


@st.composite
def tie_heavy_problems(draw):
    """Few distinct values per column, a duplicated column, and leaf minimums
    from 1 up to about half the rows."""
    n = draw(st.integers(2, 40))
    levels = draw(st.integers(1, 4))
    n_cols = draw(st.integers(1, 3))
    cells = draw(st.lists(st.integers(0, levels), min_size=n * n_cols, max_size=n * n_cols))
    x = 0.25 * np.array(cells, dtype=float).reshape(n, n_cols)
    x = np.hstack([x, x[:, :1]])          # its splits tie with column 0's
    y = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    y[:2] = [0, 1]                        # at least two classes
    half = n // 2
    min_leaf = draw(st.one_of(st.integers(1, 3), st.integers(max(1, half - 1), half + 1)))
    params = GbdtParams(n_estimators=draw(st.integers(1, 3)),
                        max_depth=draw(st.integers(1, 5)),
                        min_data_in_leaf=min_leaf,
                        l1_alpha=draw(st.sampled_from([0.0, 0.5])),
                        l2_lambda=draw(st.sampled_from([0.0, 0.7327])))
    return x, y, params


@settings(max_examples=200, deadline=None)
@given(tie_heavy_problems())
def test_trees_equal_per_node_sort_oracle(problem):
    assert_same_fit(*problem)


@pytest.mark.parametrize("seed", [0, 1])
def test_deep_trees_equal_oracle_at_paper_settings(seed):
    # continuous features with some rounded (tied) columns, grown to depth 10
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(400, 8))
    x[:, 5:] = np.round(x[:, 5:], 1)
    y = (x[:, 0] + x[:, 5] + rng.normal(0.0, 0.8, 400) > 0).astype(int)
    y[rng.random(400) < 0.3] = 2
    assert_same_fit(x, y, GbdtParams(n_estimators=3))


def test_saturated_probabilities_equal_oracle():
    # a huge learning rate drives p to exactly 0 or 1, so h == 0 on whole
    # ranges and, with lambda == 0, gain denominators hit 0
    rng = np.random.default_rng(3)
    x = np.round(rng.normal(size=(60, 3)), 1)
    y = (x[:, 0] > 0).astype(int) + (x[:, 1] > 0.5)
    params = GbdtParams(n_estimators=6, max_depth=3, min_data_in_leaf=1,
                        learning_rate=40.0, l1_alpha=0.0, l2_lambda=0.0)
    assert_same_fit(x, y, params)


# SHA-256 of the model file the per-node-sort engine saved for this fit (378 nodes)
PINNED_MODEL_SHA256 = "3f1e07911be6137bb1700cf99bc3c0c3e19c943d8650088c11d37d53020e3077"


def test_saved_model_bytes_pinned(tmp_path):
    rng = np.random.default_rng(2024)
    x = rng.normal(size=(240, 6))
    x[:, 3:] = np.round(x[:, 3:], 1)
    y = np.digitize(x[:, 0] + 0.5 * x[:, 3] + rng.normal(0.0, 0.5, 240), [-0.5, 0.5])
    model = fit_gbdt(x, y, GbdtParams(n_estimators=4, max_depth=6, min_data_in_leaf=5))
    save_model(model, tmp_path / "m.model")
    digest = hashlib.sha256((tmp_path / "m.model").read_bytes()).hexdigest()
    assert digest == PINNED_MODEL_SHA256
