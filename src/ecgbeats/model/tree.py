"""Flat-array binary decision trees, and the one grower of both ensembles.

Nodes live in parallel arrays; feature == -1 marks a leaf. Routing is fixed
everywhere: a row goes left iff row[feature] <= threshold. Every node has one
payload in ``value``: a regression tree (GBDT) holds a (n_nodes,) float64
leaf score, a classification tree (random forest) a (n_nodes, K) int64
training-count histogram. Split nodes hold a zero payload. A tree predicts
``tree.value[tree.apply(x)]``. Both ensembles share ``presort``, a fit's one
sort; ``grow``, which owns the node list, the routing and the one int32 row
order each node carries; and ``first_cut``, the first maximum of a scan's
scores among cuts between distinct values, which reads feature values from x
only where the maximum lands. An ensemble supplies its split rule and payload.
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


def presort(x, stable: bool, columns=None) -> np.ndarray:
    """A fit's (F, N) int32 row order: row i lists x's rows by ascending
    x[:, columns[i]] (every column by default), ties by row id if stable. One
    column at a time: no (F, N) int64 or column copy is made."""
    columns = range(x.shape[1]) if columns is None else columns
    order = np.empty((len(columns), x.shape[0]), dtype=np.int32)
    for i, f in enumerate(columns):
        order[i] = np.argsort(x[:, f], kind="stable" if stable else None)
    return order


def first_cut(score, rows, columns, x):
    """(i, j, threshold) of the first maximum of score (k, w) among the cuts
    between distinct values: score[i, j] scores cutting column columns[i] of x
    between rows rows[i, j] and rows[i, j + 1], at their values' midpoint;
    rows (k, w + 1) is in ascending value order.

    A cut between equal values is illegal. The unmasked first maximum, when it
    is legal, is also the first among the legal cuts (a NaN ranks first, as
    argmax ranks it), so a feature's values are read only where the maximum
    lands on a tie: that feature's illegal cuts get -inf and the argmax runs
    again. An -inf maximum is returned as found: no legal cut is left.
    """
    while True:
        i, j = divmod(int(score.argmax()), score.shape[1])
        f = columns[i]
        below, above = x[rows[i, j], f], x[rows[i, j + 1], f]
        if above > below or score[i, j] == -np.inf:
            return i, j, float(0.5 * (below + above))
        values = x[rows[i], f]
        score[i, values[1:] <= values[:-1]] = -np.inf


def _keep(order, mask):
    """order (F, n) at the entries where mask holds, as (F, m)."""
    # flatnonzero + take is ~4x faster than boolean indexing on a random mask
    return order.take(np.flatnonzero(mask)).reshape(order.shape[0], -1)


def grow(x, rows, order, decide) -> Tree:
    """Grow one tree depth-first over ``rows``, ascending row ids of x. order
    (F, len(rows)) lists them in each feature's value order; a split filters it
    into its children. ``decide(idx, order, depth)`` returns a node's (split,
    payload), split None for a leaf."""
    nodes = [None]                 # filled when each node is popped
    goes_left = np.zeros(x.shape[0], dtype=bool)
    stack = [(0, rows, order, 0)]
    while stack:
        node, idx, order, depth = stack.pop()
        split, payload = decide(idx, order, depth)
        if split is None:
            nodes[node] = (LEAF, 0.0, LEAF, LEAF, payload)
            continue
        feature, threshold = split
        go_left = x[idx, feature] <= threshold
        goes_left[idx] = go_left
        in_left = goes_left.take(order)      # ~2.5x faster than goes_left[order]
        left = len(nodes)
        nodes += [None, None]
        nodes[node] = (feature, threshold, left, left + 1, payload)
        stack.append((left + 1, idx[~go_left], _keep(order, ~in_left), depth + 1))
        stack.append((left, idx[go_left], _keep(order, in_left), depth + 1))
    return Tree.from_nodes(nodes)
