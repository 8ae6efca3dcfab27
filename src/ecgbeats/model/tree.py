"""Flat-array binary decision trees, and the one grower of both ensembles.

Nodes live in parallel arrays; feature == -1 marks a leaf. Routing is fixed
everywhere: a row goes left iff row[feature] <= threshold. Every node has one
payload in ``value``: a regression tree (GBDT) holds a (n_nodes,) float64
leaf score, a classification tree (random forest) a (n_nodes, K) int64
training-count histogram. Split nodes hold a zero payload. A tree predicts
``tree.value[tree.apply(x)]``. Both ensembles share ``presort``, a fit's one
sort, and ``grow``, which owns the node list, the routing and the presort
each node carries; an ensemble supplies its split rule and payload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LEAF = -1


@dataclass
class Tree:
    feature: np.ndarray            # int32, LEAF for leaves
    threshold: np.ndarray          # float64
    left: np.ndarray               # int32 child ids
    right: np.ndarray
    value: np.ndarray              # float64 scores (GBDT) or (n_nodes, K) int64 counts (RF)

    @classmethod
    def from_nodes(cls, nodes: list) -> Tree:
        """The tree of a list of (feature, threshold, left, right, value) nodes."""
        feature, threshold, left, right, value = zip(*nodes)
        return cls(feature=np.asarray(feature, dtype=np.int32),
                   threshold=np.asarray(threshold, dtype=float),
                   left=np.asarray(left, dtype=np.int32),
                   right=np.asarray(right, dtype=np.int32),
                   value=np.asarray(value))

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Leaf node id for every row of x."""
        x = np.atleast_2d(x)
        node = np.zeros(x.shape[0], dtype=np.int32)
        while True:
            feat = self.feature[node]
            active = np.flatnonzero(feat != LEAF)
            if active.size == 0:
                return node
            rows = node[active]
            go_left = x[active, feat[active]] <= self.threshold[rows]
            node[active] = np.where(go_left, self.left[rows], self.right[rows])


def presort(x, stable: bool) -> np.ndarray:
    """A fit's (F, N) int32 row order: row f lists x's rows by ascending x[:, f],
    ties by row id if stable. One column at a time: no (F, N) int64 is made."""
    order = np.empty(x.shape[::-1], dtype=np.int32)
    for f in range(x.shape[1]):
        order[f] = np.argsort(x[:, f], kind="stable" if stable else None)
    return order


def _keep(sorted_, mask):
    """Each (F, n) array of sorted_ at the entries where mask holds, as (F, m)."""
    # flatnonzero + take is ~4x faster than boolean indexing on a random mask
    keep = np.flatnonzero(mask)
    return tuple(a.take(keep).reshape(a.shape[0], -1) for a in sorted_)


def grow(x, rows, sorted_, decide) -> Tree:
    """Grow one tree depth-first over ``rows``, ascending row ids of x. sorted_
    holds (F, len(rows)) arrays in each feature's value order, row ids first; a
    split filters them into its children. ``decide(idx, sorted_, depth)``
    returns a node's (split, payload), split None for a leaf."""
    nodes = [None]                 # filled when each node is popped
    goes_left = np.zeros(x.shape[0], dtype=bool)
    stack = [(0, rows, sorted_, 0)]
    while stack:
        node, idx, sorted_, depth = stack.pop()
        split, payload = decide(idx, sorted_, depth)
        if split is None:
            nodes[node] = (LEAF, 0.0, LEAF, LEAF, payload)
            continue
        feature, threshold = split
        go_left = x[idx, feature] <= threshold
        goes_left[idx] = go_left
        in_left = goes_left[sorted_[0]]
        left = len(nodes)
        nodes += [None, None]
        nodes[node] = (feature, threshold, left, left + 1, payload)
        stack.append((left + 1, idx[~go_left], _keep(sorted_, ~in_left), depth + 1))
        stack.append((left, idx[go_left], _keep(sorted_, in_left), depth + 1))
    return Tree.from_nodes(nodes)
