"""Flat-array binary decision trees shared by the boosted and bagged models.

Nodes live in parallel arrays; feature == -1 marks a leaf. Routing is fixed
everywhere: a row goes left iff row[feature] <= threshold. Every node has one
payload in ``value``: a regression tree (GBDT) holds a (n_nodes,) float64
leaf score, a classification tree (random forest) a (n_nodes, K) int64
training-count histogram. Split nodes hold a zero payload. A tree predicts
``tree.value[tree.apply(x)]``.

Growers append one ``(feature, threshold, left, right, value)`` tuple per
node to a plain list, children after their parent, and freeze the list with
``Tree.from_nodes``.
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
