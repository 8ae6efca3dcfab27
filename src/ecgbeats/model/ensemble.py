"""Fitted-model container and prediction for both ensemble kinds."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import ValidationError
from ..metrics import check_labels


def softmax(raw: np.ndarray) -> np.ndarray:
    shifted = raw - raw.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class EnsembleModel:
    """A trained forest or boosted-tree multiclass classifier.

    For ``kind == 'gbdt'`` the trees are stored round-major, class-minor:
    tree t belongs to boosting round t // n_classes, class t % n_classes,
    leaf scores are already learning-rate scaled, and ``n_rounds`` is the
    tree count over K. ``train_logloss`` (GBDT only) records the training
    multiclass logloss after each round. Forest trees hold leaf class counts.
    """

    kind: str                     # "gbdt" | "rf"
    n_classes: int
    n_features: int
    trees: list
    train_logloss: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        if self.kind not in ("gbdt", "rf"):
            raise ValidationError(f"unknown model kind {self.kind!r}")

    @property
    def n_rounds(self) -> int:
        """Boosting rounds of a GBDT model (K trees per round)."""
        return len(self.trees) // self.n_classes

    def prefix(self, size: int) -> EnsembleModel:
        """The model a fit of ``size`` rounds (GBDT) or trees (forest) gives:
        boosting rounds are sequential, and a forest draws in tree order."""
        per = self.n_classes if self.kind == "gbdt" else 1
        return replace(self, trees=self.trees[:size * per],
                       train_logloss=self.train_logloss[:size])


def check_training_data(rows, labels, n_classes: int | None):
    """(features, labels, class count) of a training set, or ValidationError."""
    x = np.asarray(rows, dtype=float)
    y = np.asarray(labels, dtype=int)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValidationError("rows must be 2-D with one label per row")
    if not np.all(np.isfinite(x)):
        raise ValidationError("feature matrix contains non-finite values")
    present = np.unique(y)
    if present.shape[0] < 2:
        raise ValidationError("training data contains a single class")
    k = int(n_classes) if n_classes is not None else int(present.max()) + 1
    check_labels(present, k)
    return x, y, k


def _check_rows(model: EnsembleModel, rows: np.ndarray) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != model.n_features:
        raise ValidationError(
            f"row has {rows.shape[1]} features, model expects {model.n_features}"
        )
    if not np.all(np.isfinite(rows)):
        raise ValidationError("rows contain non-finite values")
    return rows


def predict_proba(model: EnsembleModel, rows) -> np.ndarray:
    """Class-probability matrix, one row per input row."""
    x = _check_rows(model, rows)
    k = model.n_classes
    total = np.zeros((x.shape[0], k))
    for t, tree in enumerate(model.trees):
        if model.kind == "rf":
            leaf = tree.value[tree.apply(x)]
            total += leaf / leaf.sum(axis=1, keepdims=True)
        elif tree.value.any():      # adding ±0.0 to a sum from +0.0 keeps its bits
            total[:, t % k] += tree.value[tree.apply(x)]
    return softmax(total) if model.kind == "gbdt" else total / len(model.trees)


def predict_batch(model: EnsembleModel, rows):
    """(class ids, probability matrix) for many rows; argmax ties go low."""
    probs = predict_proba(model, rows)
    return np.argmax(probs, axis=1), probs

