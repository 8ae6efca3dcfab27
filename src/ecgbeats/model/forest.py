"""Random forest: bagged Gini-split trees over per-node feature subsets.

Each tree trains on a bootstrap sample of the same size as the input (drawn
with replacement), leaves store raw class-count histograms, and prediction
averages the normalized histograms over trees. Training is serial and all
draws come from one seeded PCG64 stream, so fits are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import int_at_least, validate
from .ensemble import EnsembleModel, check_training_data
from .tree import LEAF, Tree


@dataclass
class RfParams:
    n_trees: int = 100
    max_depth: int | None = None
    min_samples_leaf: int = 1
    features_per_split: int | None = None   # default: round(sqrt(n_features))
    seed: int = 0

    def __post_init__(self):
        validate([
            int_at_least("n_trees", self.n_trees, 1),
            int_at_least("max_depth", self.max_depth, 1, optional=True),
            int_at_least("min_samples_leaf", self.min_samples_leaf, 1),
            int_at_least("features_per_split", self.features_per_split, 1, optional=True),
            int_at_least("seed", self.seed, 0),
        ])


def _best_gini_split(x_node, y_node, n_classes, min_leaf, feats):
    """Best (feature, threshold) minimizing weighted child Gini, or None.

    Minimizing n_L*gini_L + n_R*gini_R is equivalent to maximizing
    sum_c c_L^2 / n_L + sum_c c_R^2 / n_R; a split is accepted only when it
    strictly beats the unsplit node. Tie-breaking matches the boosted trees:
    lowest feature index, then lowest threshold.
    """
    n = x_node.shape[0]
    if n < 2 * min_leaf:
        return None
    sub = x_node[:, feats]
    order = np.argsort(sub, axis=0, kind="stable")
    xs = np.take_along_axis(sub, order, axis=0)
    ys = y_node[order]

    cum = np.stack([np.cumsum(ys == c, axis=0) for c in range(n_classes)], axis=2)
    totals = cum[-1]                       # (n_feats, K)
    left = cum[:-1].astype(float)          # counts left of each candidate split
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


def _build_tree(x, y, sample_idx, n_classes, params: RfParams, rng) -> Tree:
    n_features = x.shape[1]
    k_feats = params.features_per_split or max(1, round(np.sqrt(n_features)))
    k_feats = min(k_feats, n_features)
    nodes = [None]                 # filled when each node is popped
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


def fit_random_forest(rows, labels, params: RfParams = RfParams(),
                      n_classes: int | None = None) -> EnsembleModel:
    x, y, k = check_training_data(rows, labels, n_classes)
    rng = np.random.default_rng(params.seed)
    n = x.shape[0]
    trees = []
    for _ in range(params.n_trees):
        bootstrap = rng.integers(0, n, size=n)
        trees.append(_build_tree(x, y, bootstrap, k, params, rng))
    return EnsembleModel(kind="rf", n_classes=k, n_features=x.shape[1], trees=trees)
