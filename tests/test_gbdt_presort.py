"""The presorted GBDT split search against the per-node-sort builder it replaced,
and the round's worker processes against the serial class-by-class loop.

The reference below is the earlier engine, kept here as the oracle: it
argsorts the node's rows at every node and gets the training scores by
routing the training rows through each finished tree. The presorted engine
must grow the same trees bit for bit. ``fit_gbdt`` builds a round's K trees
in min(K, CPUs) forked worker processes; its saved bytes must equal those of
one process calling ``_build_tree`` class by class, whatever the CPU count.
Fits below ``gbdt._POOL_MIN_ROW_ROUNDS`` rows x rounds run in-process, so the
tests that exercise the pool set that rule to 0.
"""

import concurrent.futures
import hashlib
import multiprocessing
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgbeats.model import gbdt
from ecgbeats.model.ensemble import EnsembleModel, check_training_data, softmax
from ecgbeats.model.gbdt import GbdtParams, fit_gbdt
from ecgbeats.model.persist import load_model, save_model
from ecgbeats.model.tree import LEAF, Tree, first_cut, presort


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


def _saturated_fit(l2_lambda):
    rng = np.random.default_rng(3)
    x = np.round(rng.normal(size=(60, 3)), 1)
    y = (x[:, 0] > 0).astype(int) + (x[:, 1] > 0.5)
    params = GbdtParams(n_estimators=6, max_depth=3, min_data_in_leaf=1,
                        learning_rate=40.0, l1_alpha=0.0, l2_lambda=l2_lambda)
    assert_same_fit(x, y, params)


def test_saturated_probabilities_equal_oracle():
    # a huge learning rate drives p to exactly 0 or 1, so h == 0 on whole
    # ranges and, with lambda == 0, gain denominators hit 0
    _saturated_fit(0.0)


def test_saturated_probabilities_with_tiny_lambda_equal_oracle():
    # H - H_L can round below 0 where the right side's h is ~0; under a tiny
    # lambda that leaves some right-hand denominators below 0 as well
    _saturated_fit(1e-300)


# SHA-256 of the model file the per-node-sort engine saved for this fit (378 nodes)
PINNED_MODEL_SHA256 = "3f1e07911be6137bb1700cf99bc3c0c3e19c943d8650088c11d37d53020e3077"


def test_saved_model_bytes_pinned(tmp_path, monkeypatch):
    # forked workers wherever there are two CPUs, whatever the fit's size
    monkeypatch.setattr(gbdt, "_POOL_MIN_ROW_ROUNDS", 0)
    rng = np.random.default_rng(2024)
    x = rng.normal(size=(240, 6))
    x[:, 3:] = np.round(x[:, 3:], 1)
    y = np.digitize(x[:, 0] + 0.5 * x[:, 3] + rng.normal(0.0, 0.5, 240), [-0.5, 0.5])
    model = fit_gbdt(x, y, GbdtParams(n_estimators=4, max_depth=6, min_data_in_leaf=5))
    save_model(model, tmp_path / "m.model")
    digest = hashlib.sha256((tmp_path / "m.model").read_bytes()).hexdigest()
    assert digest == PINNED_MODEL_SHA256


def record_tie_masks(monkeypatch):
    """Per scanned block, whether its first maximum landed on a tie, so that
    first_cut masked a feature's ties; the round runs in-process."""
    masked = []

    def recorded(score, rows, columns, x):
        before = np.isneginf(score).sum()
        cut = first_cut(score, rows, columns, x)
        masked.append(np.isneginf(score).sum() > before)
        return cut

    monkeypatch.setattr(gbdt, "first_cut", recorded)
    monkeypatch.setattr(gbdt, "_usable_cpus", lambda: 1)
    return masked


# sorted by column 0, rows 2-7 tie at 1.0 and the labels change inside that
# run: the best gain is an illegal cut between equal values. Column 1's legal
# cut beats column 0's legal ones.
TIED_RUN = np.array([0, 0, 1, 1, 1, 1, 1, 1, 2, 2], dtype=float)
LATER_FEATURE = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1, 1], dtype=float)
TIED_RUN_LABELS = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])


@pytest.mark.parametrize("block", [1, gbdt._BLOCK])
@pytest.mark.parametrize("columns, root_feature", [
    ((TIED_RUN,), 0),                  # the legal best is in the same feature
    ((TIED_RUN, LATER_FEATURE), 1),    # the legal best is in a later feature
])
def test_first_maximum_on_a_tie_falls_back_to_the_legal_best(
        monkeypatch, block, columns, root_feature):
    monkeypatch.setattr(gbdt, "_BLOCK", block)
    masked = record_tie_masks(monkeypatch)
    x = np.column_stack(columns)
    params = GbdtParams(n_estimators=2, max_depth=2, min_data_in_leaf=2)
    assert_same_fit(x, TIED_RUN_LABELS, params, k=2)
    assert any(masked)
    model = fit_gbdt(x, TIED_RUN_LABELS, params, n_classes=2)
    assert model.trees[0].feature[0] == root_feature


def test_all_single_valued_columns_grow_leaves(monkeypatch):
    # no column has a cut: every tree is one leaf, and no scan runs
    masked = record_tie_masks(monkeypatch)
    x = np.full((12, 3), 2.5)
    y = np.arange(12) % 3
    params = GbdtParams(n_estimators=3, min_data_in_leaf=1)
    assert_same_fit(x, y, params)
    assert all(tree.n_nodes == 1 for tree in fit_gbdt(x, y, params).trees)
    assert masked == []


def test_single_valued_columns_keep_the_original_feature_ids(tmp_path):
    # constant first and last columns around informative ones: the saved
    # splits name x's own columns, and the trees equal the oracle's
    rng = np.random.default_rng(6)
    inner = np.round(rng.normal(size=(150, 3)), 1)
    x = np.column_stack([np.full(150, -1.0), inner, np.full(150, 7.0)])
    y = np.digitize(inner[:, 0] + inner[:, 2] + rng.normal(0.0, 0.5, 150), [-0.5, 0.5])
    params = GbdtParams(n_estimators=3, max_depth=4, min_data_in_leaf=3)
    assert_same_fit(x, y, params)
    save_model(fit_gbdt(x, y, params), tmp_path / "m.model")
    used = {int(f) for tree in load_model(tmp_path / "m.model").trees
            for f in tree.feature if f != LEAF}
    assert used == {1, 2, 3}


@settings(max_examples=100, deadline=None)
@given(tie_heavy_problems())
def test_stable_presort_is_the_stable_argsort_in_int32(problem):
    x = problem[0]
    order = presort(x, stable=True)
    assert order.dtype == np.int32
    np.testing.assert_array_equal(order, np.argsort(x.T, axis=1, kind="stable"))


@pytest.mark.parametrize("stable", [True, False])
def test_presort_holds_one_int32_order(stable):
    # a column at a time: the (F, N) int32 order and a few (N,) buffers, where
    # a sort of all columns at once makes an (F, N) int64 array
    x = np.round(np.random.default_rng(4).normal(size=(20_000, 76)), 2)
    n, f = x.shape
    tracemalloc.start()
    try:
        presort(x, stable)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < f * n * 4 + 4 * n * 8


@st.composite
def one_class_tree(draw):
    """Rounded features with ties, and the derivatives of one class at
    probabilities in steps of 0.1."""
    n = draw(st.integers(1, 40))
    n_cols = draw(st.integers(1, 3))
    cells = draw(st.lists(st.integers(-3, 3), min_size=n * n_cols, max_size=n * n_cols))
    x = 0.5 * np.array(cells, dtype=float).reshape(n, n_cols)
    p = 0.1 * np.array(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    params = GbdtParams(max_depth=draw(st.integers(1, 4)),
                        min_data_in_leaf=draw(st.integers(1, 5)),
                        l1_alpha=draw(st.sampled_from([0.0, 0.5])),
                        l2_lambda=draw(st.sampled_from([0.0, 0.7327])))
    return x, p - y, p * (1.0 - p), params


@settings(max_examples=200, deadline=None)
@given(one_class_tree())
def test_step_is_each_rows_leaf_value(problem):
    # the scores fit_gbdt adds equal the tree's own routing of the training rows
    x, g, h, params = problem
    order = presort(x, stable=True)
    features = np.arange(x.shape[1])
    tree, step = gbdt._build_tree(x, order, features, g, h, params)
    routed = tree.value[tree.apply(x)]
    assert step.dtype == routed.dtype and step.shape == routed.shape
    assert step.tobytes() == routed.tobytes()


def serial_fit(x, y, params, k):
    """fit_gbdt's loop on one thread: _build_tree class by class, in order."""
    x, y, k = check_training_data(x, y, k)
    order = presort(x, stable=True)
    features = np.arange(x.shape[1])
    onehot = np.eye(k)[y]
    scores = np.zeros((x.shape[0], k))
    trees, logloss = [], []
    for _ in range(params.n_estimators):
        probs = softmax(scores)
        for cls in range(k):
            g = probs[:, cls] - onehot[:, cls]
            h = probs[:, cls] * (1.0 - probs[:, cls])
            tree, step = gbdt._build_tree(x, order, features, g, h, params)
            trees.append(tree)
            scores[:, cls] += step
        probs = softmax(scores)
        logloss.append(float(-np.mean(np.log(probs[np.arange(x.shape[0]), y]))))
    return EnsembleModel(kind="gbdt", n_classes=k, n_features=x.shape[1],
                         trees=trees, train_logloss=logloss)


def saved_bytes(model):
    with tempfile.TemporaryDirectory() as d:
        save_model(model, Path(d) / "m.model")
        return (Path(d) / "m.model").read_bytes()


def assert_thread_count_invariant(x, y, params, k, cpus):
    want = serial_fit(x, y, params, k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gbdt, "_usable_cpus", lambda: cpus)
        mp.setattr(gbdt, "_POOL_MIN_ROW_ROUNDS", 0)
        got = fit_gbdt(x, y, params, n_classes=k)
    assert saved_bytes(got) == saved_bytes(want)
    assert got.train_logloss == want.train_logloss


@pytest.mark.parametrize("block", [1, 50])
def test_feature_blocks_equal_oracle(monkeypatch, block):
    # a block of 1 scans each feature on its own, 50 a few features at a time
    monkeypatch.setattr(gbdt, "_BLOCK", block)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(120, 7))
    x[:, 4:] = np.round(x[:, 4:], 1)
    x[:, 6] = x[:, 0]                     # its splits tie with column 0's
    y = np.digitize(x[:, 0] + x[:, 4] + rng.normal(0.0, 0.6, 120), [-0.5, 0.5])
    for l2_lambda in (0.7327, 0.0):
        assert_same_fit(x, y, GbdtParams(n_estimators=3, min_data_in_leaf=3,
                                         l2_lambda=l2_lambda))


@pytest.mark.parametrize("cpus", [1, 2, 3])
@settings(max_examples=40, deadline=None)
@given(tie_heavy_problems())
def test_any_thread_count_saves_the_serial_bytes(cpus, problem):
    # l2_lambda 0.0 and 0.7327, leaf minimums up to about n / 2
    assert_thread_count_invariant(*problem, k=3, cpus=cpus)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("l2_lambda", [0.7327, 0.0])
def test_deep_trees_any_thread_count(cpus, k, l2_lambda):
    rng = np.random.default_rng(k)
    x = np.round(rng.normal(size=(300, 6)), 1)
    y = np.digitize(x[:, 0] + 0.5 * x[:, 3] + rng.normal(0.0, 0.5, 300),
                    np.linspace(-1.0, 1.0, k - 1))
    params = GbdtParams(n_estimators=3, min_data_in_leaf=140, l2_lambda=l2_lambda)
    assert_thread_count_invariant(x, y, params, k, cpus)
    params = GbdtParams(n_estimators=3, min_data_in_leaf=2, l2_lambda=l2_lambda)
    assert_thread_count_invariant(x, y, params, k, cpus)


def test_more_threads_than_cores_under_fast_switching():
    # eight class trees on eight workers, more than there are cores, with the
    # fitting process switching threads every microsecond: a tree that read
    # another class's score column mid-round, or a lost write to a column,
    # would change the saved bytes
    rng = np.random.default_rng(11)
    x = np.round(rng.normal(size=(200, 4)), 1)
    y = np.digitize(x[:, 0] + x[:, 1], np.linspace(-1.5, 1.5, 7))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert_thread_count_invariant(x, y, GbdtParams(n_estimators=3, min_data_in_leaf=2),
                                      k=8, cpus=8)
    finally:
        sys.setswitchinterval(interval)


def record_pools(monkeypatch):
    """The (workers, start method) of every process pool fit_gbdt starts."""
    pools = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append((max_workers, kwargs["mp_context"].get_start_method()))
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return pools


@pytest.mark.parametrize("cpus, k, workers", [(1, 3, 1), (2, 3, 2), (8, 3, 3), (8, 2, 2)])
def test_pool_has_min_of_classes_and_cpus_workers(monkeypatch, cpus, k, workers):
    # one worker starts no pool: the round runs in-process
    pools = record_pools(monkeypatch)
    monkeypatch.setattr(gbdt, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(gbdt, "_POOL_MIN_ROW_ROUNDS", 0)
    fit_gbdt(np.arange(8.0)[:, None], np.arange(8) % k, GbdtParams(n_estimators=1))
    assert pools == ([(workers, "fork")] if workers > 1 else [])
    assert gbdt._served is None          # set in the workers only


def test_without_fork_the_round_runs_in_process(monkeypatch):
    rng = np.random.default_rng(3)
    x = np.round(rng.normal(size=(300, 6)), 1)
    y = np.digitize(x[:, 0] + 0.5 * x[:, 3] + rng.normal(0.0, 0.5, 300), [-0.5, 0.5])
    params = GbdtParams(n_estimators=3, min_data_in_leaf=2)
    want = serial_fit(x, y, params, 3)
    pools = record_pools(monkeypatch)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(gbdt, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(gbdt, "_POOL_MIN_ROW_ROUNDS", 0)
    got = fit_gbdt(x, y, params)
    assert pools == []
    assert saved_bytes(got) == saved_bytes(want)
    assert got.train_logloss == want.train_logloss


def test_fit_below_the_size_rule_runs_in_process(monkeypatch):
    rng = np.random.default_rng(3)
    x = np.round(rng.normal(size=(300, 6)), 1)
    y = np.digitize(x[:, 0] + 0.5 * x[:, 3] + rng.normal(0.0, 0.5, 300), [-0.5, 0.5])
    params = GbdtParams(n_estimators=3, min_data_in_leaf=2)
    pools = record_pools(monkeypatch)
    monkeypatch.setattr(gbdt, "_usable_cpus", lambda: 3)
    # 300 rows x 3 rounds: just below the rule (in-process), then at it (pooled)
    monkeypatch.setattr(gbdt, "_POOL_MIN_ROW_ROUNDS", 901)
    below = fit_gbdt(x, y, params)
    assert pools == []
    monkeypatch.setattr(gbdt, "_POOL_MIN_ROW_ROUNDS", 900)
    above = fit_gbdt(x, y, params)
    assert pools == [(3, "fork")]
    assert saved_bytes(below) == saved_bytes(above)
    assert below.train_logloss == above.train_logloss


def test_small_fit_imports_no_pool_machinery():
    script = "\n".join([
        "import sys",
        "import numpy as np",
        "from ecgbeats.model import gbdt",
        "gbdt._usable_cpus = lambda: 3",
        "gbdt.fit_gbdt(np.arange(30.0)[:, None], np.arange(30) % 3,",
        "              gbdt.GbdtParams(n_estimators=2))",
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(gbdt.__file__).parents[2])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_size_rule_sits_between_the_benchmark_fits():
    # fit-hard's 20-round fit on 2,160 rows gains from the pool; corpus-prep's
    # 1-round fit on 6,000 rows loses to the fork
    assert 6_000 * 1 < gbdt._POOL_MIN_ROW_ROUNDS <= 2_160 * 20


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert gbdt._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert gbdt._usable_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert gbdt._usable_cpus() == 1


def separable_problem():
    """60 rows, 3 classes cut by a sum of two rounded features. Under
    FIXED_POINT every tree of round 7 has only +-0.0 leaves."""
    rng = np.random.default_rng(1)
    x = np.round(rng.normal(size=(60, 3)), 1)
    return x, np.digitize(x[:, 0] + 0.5 * x[:, 1], [-0.5, 0.5])


FIXED_POINT = GbdtParams(n_estimators=12, max_depth=3, min_data_in_leaf=3,
                         learning_rate=1.0, l1_alpha=1.0)


def first_zero_round(trees, k=3):
    """The 1-based first round whose K trees hold only +-0.0, or None."""
    rounds = [trees[i:i + k] for i in range(0, len(trees), k)]
    zero = [not any(tree.value.any() for tree in trees) for trees in rounds]
    return zero.index(True) + 1 if any(zero) else None


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("n_estimators, l1_alpha, fixed_at", [
    (12, 1.0, 7), (7, 1.0, 7), (5, 1e3, 1)], ids=["mid-fit", "last-round", "round-1"])
def test_rounds_past_the_fixed_point_equal_the_full_loop(monkeypatch, cpus, n_estimators,
                                                          l1_alpha, fixed_at):
    # the copied rounds against the oracle that computes every round, in-process
    # and in a pool of 2 workers
    x, y = separable_problem()
    params = replace(FIXED_POINT, n_estimators=n_estimators, l1_alpha=l1_alpha)
    assert first_zero_round(reference_fit(x, y, params, 3)[0]) == fixed_at
    pools = record_pools(monkeypatch)
    monkeypatch.setattr(gbdt, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(gbdt, "_POOL_MIN_ROW_ROUNDS", 0)
    assert_same_fit(x, y, params)
    assert pools == ([(2, "fork")] if cpus == 2 else [])


def test_no_tree_is_built_after_the_fixed_point(monkeypatch):
    built = []
    build = gbdt._build_tree
    monkeypatch.setattr(gbdt, "_build_tree", lambda *args: built.append(1) or build(*args))
    monkeypatch.setattr(gbdt, "_usable_cpus", lambda: 1)
    model = fit_gbdt(*separable_problem(), replace(FIXED_POINT, n_estimators=40))
    assert len(built) == 3 * 7
    assert model.n_rounds == 40 and len(model.train_logloss) == 40
    assert model.trees[-3:] == model.trees[18:21]


def test_zero_rounds_give_an_empty_model_and_fork_nothing(monkeypatch):
    def fork():
        raise AssertionError("a fit of 0 rounds forked")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(gbdt, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(gbdt, "_POOL_MIN_ROW_ROUNDS", 0)
    model = fit_gbdt(*separable_problem(), replace(FIXED_POINT, n_estimators=0))
    assert (model.trees, model.train_logloss, model.n_rounds) == ([], [], 0)


def test_the_pool_closes_at_the_fixed_point_and_when_the_consumer_stops(monkeypatch):
    monkeypatch.setattr(gbdt, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(gbdt, "_POOL_MIN_ROW_ROUNDS", 0)
    x, y = separable_problem()
    rounds = gbdt._rounds(x, y, 3, FIXED_POINT)
    next(rounds)
    assert len(multiprocessing.active_children()) == 2
    rounds.close()
    assert multiprocessing.active_children() == []
    # round 7 is the fixed point: the pool is gone before it is yielded, and
    # the 5 rounds after it are the same round
    rounds = gbdt._rounds(x, y, 3, FIXED_POINT)
    for _ in range(6):
        next(rounds)
    assert len(multiprocessing.active_children()) == 2
    fixed = next(rounds)
    assert multiprocessing.active_children() == []
    assert list(rounds) == [fixed] * 5


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "pooled"])
@pytest.mark.parametrize("l1_alpha, fixed_at", [(1.0, 7), (0.0, None)],
                         ids=["fixed-point-at-7", "no-fixed-point"])
def test_a_fit_of_fewer_rounds_is_a_prefix(monkeypatch, cpus, l1_alpha, fixed_at):
    # grid_search scores every size of a group on one fit's prefixes. The cuts
    # fall before, at and past the fixed point, and at the whole fit
    x, y = separable_problem()
    params = replace(FIXED_POINT, l1_alpha=l1_alpha)
    monkeypatch.setattr(gbdt, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(gbdt, "_POOL_MIN_ROW_ROUNDS", 0)
    longest = fit_gbdt(x, y, params)
    assert first_zero_round(longest.trees) == fixed_at
    for m in (0, 1, 4, 7, 9, params.n_estimators):
        want = fit_gbdt(x, y, replace(params, n_estimators=m))
        got = longest.prefix(m)
        assert (got.kind, got.n_classes, got.n_features) == ("gbdt", 3, 3)
        assert got.n_rounds == len(got.train_logloss) == m
        assert saved_bytes(got) == saved_bytes(want)
        assert got.train_logloss == want.train_logloss
