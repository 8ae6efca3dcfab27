"""Grid search over stratified K-fold cross-validation, scored by macro F1.

Folds and the train/test split are stratified per class: ``_class_shuffles``
shuffles each class's indices with one seeded generator. Folds deal them
round-robin, so fold class counts stay within one sample of proportional.
When a balance plan is given it is applied to the training split of each
fold only; validation folds are never resampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..balance import BalancePlan, apply_plan
from ..errors import ValidationError, int_at_least, is_real, validate
from ..metrics import confusion_matrix, macro_metrics
from .ensemble import predict_batch


def _class_shuffles(y, seed: int):
    """Yield (class, its indices shuffled) per class, ascending, from one generator."""
    rng = np.random.default_rng(seed)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        yield cls, idx


def stratified_kfold(labels, folds: int, seed: int = 0) -> list:
    """Index arrays for each fold, class-stratified within one sample."""
    y = np.asarray(labels, dtype=int)
    validate([int_at_least("folds", folds, 2), int_at_least("seed", seed, 0)])
    assignments = [[] for _ in range(folds)]
    for cls, idx in _class_shuffles(y, seed):
        if idx.shape[0] < folds:
            raise ValidationError(
                f"class {cls} has {idx.shape[0]} samples; needs >= {folds}"
            )
        for pos, sample in enumerate(idx):
            assignments[pos % folds].append(sample)
    return [np.sort(np.asarray(fold, dtype=int)) for fold in assignments]


def stratified_split(labels, test_fraction: float, seed: int = 0):
    """One seeded stratified train/test split; returns (train_idx, test_idx).

    Each class contributes round(test_fraction * count) samples to the test
    side, so class proportions carry over. Must run before any balancing.
    """
    y = np.asarray(labels, dtype=int)
    validate([
        (is_real(test_fraction) and 0 < test_fraction < 1,
         f"test_fraction must be in (0, 1), got {test_fraction!r}"),
        int_at_least("seed", seed, 0),
    ])
    train, test = [], []
    for _, idx in _class_shuffles(y, seed):
        n_test = int(round(test_fraction * idx.shape[0]))
        test.extend(idx[:n_test])
        train.extend(idx[n_test:])
    return np.sort(np.asarray(train, dtype=int)), np.sort(np.asarray(test, dtype=int))


@dataclass
class GridResult:
    index: int
    params: object
    fold_f1: list
    mean_f1: float


def grid_search(rows, labels, candidates, fit, folds: int = 3, seed: int = 0,
                balance_plan: BalancePlan | None = None, n_classes: int | None = None):
    """Evaluate every candidate, return (best_params, results).

    Each fold's training split is balanced once and every candidate is fit on
    it with ``fit(rows, labels, params, n_classes=n_classes)``, the ensemble's
    fit function for the candidates' params class. ``n_classes`` is K for
    every model (default: inferred from the labels). Best is the highest mean
    macro F1 over folds; ties go to the earliest candidate in grid order.
    """
    rows = np.asarray(rows, dtype=float)
    y = np.asarray(labels, dtype=int)
    if not candidates:
        raise ValidationError("empty parameter grid")
    fold_idx = stratified_kfold(y, folds, seed)
    all_idx = np.arange(y.shape[0])

    scores = [[] for _ in candidates]
    for valid_idx in fold_idx:
        train_mask = np.ones(y.shape[0], dtype=bool)
        train_mask[valid_idx] = False
        train_idx = all_idx[train_mask]
        x_train, y_train = rows[train_idx], y[train_idx]
        if balance_plan is not None:
            x_train, y_train = apply_plan(x_train, y_train, balance_plan)
        for params, fold_f1 in zip(candidates, scores):
            model = fit(x_train, y_train, params, n_classes=n_classes)
            pred, _ = predict_batch(model, rows[valid_idx])
            cm = confusion_matrix(y[valid_idx], pred, model.n_classes)
            fold_f1.append(macro_metrics(cm)[-1])
    results = [GridResult(index=index, params=params, fold_f1=fold_f1,
                          mean_f1=float(np.mean(fold_f1)))
               for index, (params, fold_f1) in enumerate(zip(candidates, scores))]
    best = max(results, key=lambda r: (r.mean_f1, -r.index))
    return best.params, results
