"""Random forest: bagged Gini-split trees over per-node feature subsets.

Each tree trains on a bootstrap sample of the same size as the input (drawn
with replacement), leaves store raw class-count histograms, and prediction
averages the normalized histograms over trees. Training is serial and all
draws come from one seeded PCG64 stream, so fits are reproducible. A tree
grows with ``tree.grow`` over its in-bag rows, each weighted by its bootstrap
count, on the fit's one ``tree.presort`` of every column (the per-node
feature draw spans them all): unstable (~3x faster), as the scan takes no cut
between tied values. A node scans its drawn features' rows in that order and
reads their values from x only through ``tree.first_cut``. Counts are
integers, so the trees equal those of a per-node sort of the bootstrap sample
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import int_at_least, validate
from .ensemble import EnsembleModel, check_training_data
from .tree import Tree, _keep, first_cut, grow, presort


@dataclass
class RfParams:
    SIZE = "n_trees"        # not a field: a fit of fewer trees is a prefix
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


def _best_gini_split(x, wy, order, counts, min_leaf, feats):
    """Best (feature, threshold) minimizing weighted child Gini, or None.

    order (F, m) holds the node's rows in value order, wy (K, n) each row's
    bootstrap count in its class's row, counts the node's class counts.
    Minimizing n_L*gini_L + n_R*gini_R is equivalent to maximizing
    sum_c c_L^2 / n_L + sum_c c_R^2 / n_R; a split is accepted only when it
    strictly beats the unsplit node. The cut is the first maximum of the
    (feature, position) scores: lowest feature index, then lowest threshold.
    """
    n = counts.sum()
    if n < 2 * min_leaf:
        return None
    rows = order[feats]                  # (k, m); a node that is not pure has m >= 2
    cuts = rows[:, :-1]                  # a cut after each but the last row
    n_left = left_sq = right_sq = 0
    # one class at a time: a (K, k, m) block summed over K is ~3x slower
    for c, total in enumerate(counts):
        left = np.cumsum(wy[c].take(cuts), axis=1)   # class c's count left of each cut
        n_left = n_left + left
        left_sq = left_sq + left * left
        right_sq = right_sq + (total - left) ** 2
    n_right = n - n_left
    score = left_sq / n_left + right_sq / n_right
    if min_leaf > 1:                     # else each in-bag row weighs >= 1 on either side
        score[(n_left < min_leaf) | (n_right < min_leaf)] = -np.inf

    parent_score = float((counts ** 2).sum() / n)
    col, pos, threshold = first_cut(score, rows, feats, x)
    if not np.isfinite(score[col, pos]) or score[col, pos] <= parent_score:
        return None
    return int(feats[col]), threshold


def _build_tree(x, y, weights, order, n_classes, params: RfParams, rng) -> Tree:
    """One tree over the rows with a nonzero bootstrap count in ``weights``."""
    n_features = x.shape[1]
    k_feats = min(params.features_per_split or max(1, round(np.sqrt(n_features))), n_features)
    wy = (y == np.arange(n_classes)[:, None]) * weights

    def decide(idx, order, depth):
        counts = wy[:, idx].sum(axis=1)
        pure = np.count_nonzero(counts) <= 1
        if not pure and (params.max_depth is None or depth < params.max_depth):
            feats = np.sort(rng.choice(n_features, size=k_feats, replace=False))
            split = _best_gini_split(x, wy, order, counts, params.min_samples_leaf, feats)
            if split is not None:
                return split, np.zeros_like(counts)
        return None, counts

    in_bag = weights > 0
    return grow(x, np.flatnonzero(in_bag), _keep(order, in_bag[order]), decide)


def fit_random_forest(rows, labels, params: RfParams = RfParams(),
                      n_classes: int | None = None) -> EnsembleModel:
    x, y, k = check_training_data(rows, labels, n_classes)
    rng = np.random.default_rng(params.seed)
    n = x.shape[0]
    order = presort(x, stable=False)
    trees = []
    for _ in range(params.n_trees):
        weights = np.bincount(rng.integers(0, n, size=n), minlength=n)
        trees.append(_build_tree(x, y, weights, order, k, params, rng))
    return EnsembleModel(kind="rf", n_classes=k, n_features=x.shape[1], trees=trees)
