"""Class rebalancing for training data: seeded random undersampling of
over-represented classes followed by SMOTE growth of the rest.

All randomness comes from numpy's PCG64 generator seeded explicitly, so a
given (rows, targets, k, seed) always produces byte-identical output. This
module must only ever see the training partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, int_at_least, is_int, validate

DEFAULT_TARGETS = {0: 300_000, 1: 100_000, 2: 100_000}  # N, S, V


@dataclass
class BalancePlan:
    targets: dict = field(default_factory=lambda: dict(DEFAULT_TARGETS))
    k_neighbors: int = 5
    seed: int = 0

    def __post_init__(self):
        validate([
            (isinstance(self.targets, dict) and all(
                is_int(c) and c >= 0 and is_int(n) and n >= 1 for c, n in self.targets.items()),
             f"targets must map class ids >= 0 to counts >= 1, got {self.targets!r}"),
            int_at_least("k_neighbors", self.k_neighbors, 1),
            int_at_least("seed", self.seed, 0),
        ])


def undersample(rows, labels, targets: dict, seed: int):
    """Reduce classes above their target to exactly the target count.

    Survivors are drawn uniformly without replacement; the relative order of
    retained rows is preserved. Classes at or below target pass through.
    """
    rows = np.asarray(rows, dtype=float)
    labels = np.asarray(labels, dtype=int)
    rng = np.random.default_rng(seed)
    keep = np.ones(labels.shape[0], dtype=bool)
    for cls in sorted(targets):
        idx = np.flatnonzero(labels == cls)
        target = targets[cls]
        if idx.shape[0] > target:
            survivors = rng.choice(idx, size=target, replace=False)
            keep[idx] = False
            keep[survivors] = True
    return rows[keep], labels[keep]


def _nearest_neighbors(points: np.ndarray, k: int) -> np.ndarray:
    """Indices of each point's k nearest same-set neighbors (self excluded).

    Euclidean metric; equal distances resolve to the lower index. The
    candidates are every point no farther than the k-th smallest distance
    (found by a partition, not a full sort); they are sorted by (row,
    distance, index) and the first k of each row kept. Distances are
    computed in row chunks so memory stays O(chunk * m).
    """
    m = points.shape[0]
    sq = np.einsum("ij,ij->i", points, points)
    out = np.empty((m, k), dtype=int)
    chunk = max(1, 8_000_000 // m)
    for s in range(0, m, chunk):
        e = min(s + chunk, m)
        d2 = sq[s:e, None] + sq[None, :] - 2.0 * points[s:e] @ points.T
        d2[np.arange(e - s), np.arange(s, e)] = np.inf
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        rows, cols = np.nonzero(d2 <= kth)
        # nonzero lists each row's columns in ascending order and lexsort is
        # stable, so equal distances keep the lower index first
        order = np.lexsort((d2[rows, cols], rows))
        counts = np.bincount(rows, minlength=e - s)
        first = np.cumsum(counts) - counts   # where each row's candidates start
        out[s:e] = cols[order][first[:, None] + np.arange(k)]
    return out


def smote(rows, labels, targets: dict, k_neighbors: int = 5, seed: int = 0):
    """Grow each class to its target count with SMOTE interpolation.

    Each synthetic sample is x + u * (z - x) for a seeded-random original
    member x, one of its k nearest same-class neighbors z, and u uniform on
    [0, 1]. Originals are always retained; synthetics are appended after all
    original rows, classes processed in ascending id order.
    """
    rows = np.asarray(rows, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if not np.all(np.isfinite(rows)):
        raise ValidationError("feature matrix contains non-finite values")
    rng = np.random.default_rng(seed)
    new_rows, new_labels = [], []
    for cls in sorted(targets):
        idx = np.flatnonzero(labels == cls)
        needed = targets[cls] - idx.shape[0]
        if needed <= 0:
            continue
        if idx.shape[0] < 2:
            raise ValidationError(
                f"class {cls} has {idx.shape[0]} member(s); SMOTE needs at least 2"
            )
        members = rows[idx]
        k = min(k_neighbors, members.shape[0] - 1)
        neighbors = _nearest_neighbors(members, k)
        base = rng.integers(0, members.shape[0], size=needed)
        pick = rng.integers(0, k, size=needed)
        u = rng.random(needed)
        x = members[base]
        z = members[neighbors[base, pick]]
        new_rows.append(x + u[:, None] * (z - x))
        new_labels.append(np.full(needed, cls, dtype=int))
    if new_rows:
        rows = np.concatenate([rows] + new_rows)
        labels = np.concatenate([labels] + new_labels)
    return rows, labels


def apply_plan(rows, labels, plan: BalancePlan):
    """Undersample the over-represented classes, then SMOTE the rest up.

    Undersampling first avoids synthesizing samples only to discard them.
    The output class histogram equals the plan targets exactly (for every
    class listed in the plan).
    """
    rows, labels = undersample(rows, labels, plan.targets, plan.seed)
    return smote(rows, labels, plan.targets, plan.k_neighbors, plan.seed)
