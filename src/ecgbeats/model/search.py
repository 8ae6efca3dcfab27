"""Grid search over stratified K-fold cross-validation, scored by macro F1.

Folds and the train/test split are stratified per class: ``_class_shuffles``
shuffles each class's indices with one seeded generator, and each side is the
sorted union of one slice per shuffle. Fold j takes ``idx[j::folds]``, so fold
class counts stay within one sample of proportional.
When a balance plan is given it is applied to the training split of each
fold only; validation folds are never resampled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


def _sorted_union(parts):
    """The sorted concatenation of index arrays (int64, empty for none)."""
    return np.sort(np.concatenate([np.empty(0, dtype=int), *parts]))


def stratified_kfold(labels, folds: int, seed: int = 0) -> list:
    """Index arrays for each fold, class-stratified within one sample."""
    y = np.asarray(labels, dtype=int)
    validate([int_at_least("folds", folds, 2), int_at_least("seed", seed, 0)])
    shuffles = list(_class_shuffles(y, seed))
    for cls, idx in shuffles:
        if idx.shape[0] < folds:
            raise ValidationError(f"class {cls} has {idx.shape[0]} samples; needs >= {folds}")
    return [_sorted_union(idx[j::folds] for _, idx in shuffles) for j in range(folds)]


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
    shuffles = [idx for _, idx in _class_shuffles(y, seed)]
    n_test = [int(round(test_fraction * idx.shape[0])) for idx in shuffles]
    return (_sorted_union(idx[n:] for idx, n in zip(shuffles, n_test)),
            _sorted_union(idx[:n] for idx, n in zip(shuffles, n_test)))


@dataclass
class GridResult:
    index: int
    params: object
    fold_f1: list
    mean_f1: float


def grid_search(rows, labels, candidates, fit, folds: int = 3, seed: int = 0,
                balance_plan: BalancePlan | None = None, n_classes: int | None = None):
    """Evaluate every candidate, return (best_params, results).

    Candidates equal but for the field their class's ``SIZE`` names form a
    group. Each fold's training split is balanced once, and each group is fit
    on it once, at its largest size, with ``fit(rows, labels, params,
    n_classes=n_classes)``, the ensemble's fit function for the params class;
    each member is scored on the model's ``prefix`` of its size. ``n_classes``
    is K for every model (default: inferred from the labels). Best is the
    highest mean macro F1 over folds; ties go to the earliest candidate.
    """
    rows = np.asarray(rows, dtype=float)
    y = np.asarray(labels, dtype=int)
    if not candidates:
        raise ValidationError("empty parameter grid")
    fold_idx = stratified_kfold(y, folds, seed)
    size = [getattr(params, params.SIZE) for params in candidates]
    groups = {}     # repr keeps -0.0 and 0.0 apart
    for i, params in enumerate(candidates):
        groups.setdefault(repr(replace(params, **{params.SIZE: 1})), []).append(i)

    scores = [[] for _ in candidates]
    for valid_idx in fold_idx:
        train_idx = np.delete(np.arange(y.shape[0]), valid_idx)
        x_train, y_train = rows[train_idx], y[train_idx]
        if balance_plan is not None:
            x_train, y_train = apply_plan(x_train, y_train, balance_plan)
        for members in groups.values():
            longest = candidates[max(members, key=size.__getitem__)]
            model = fit(x_train, y_train, longest, n_classes=n_classes)
            for i in members:
                pred, _ = predict_batch(model.prefix(size[i]), rows[valid_idx])
                cm = confusion_matrix(y[valid_idx], pred, model.n_classes)
                scores[i].append(macro_metrics(cm)[-1])
            del model   # one group's model at a time
    results = [GridResult(index=index, params=params, fold_f1=fold_f1,
                          mean_f1=float(np.mean(fold_f1)))
               for index, (params, fold_f1) in enumerate(zip(candidates, scores))]
    best = max(results, key=lambda r: (r.mean_f1, -r.index))
    return best.params, results
