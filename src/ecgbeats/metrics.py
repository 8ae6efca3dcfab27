"""Confusion matrix, macro-averaged precision / recall / accuracy / F1, metrics CSV."""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .record_io import csv_rows, parse_number, write_table

METRICS_HEADER = ["model", "precision", "recall", "accuracy", "f1"]


def check_labels(labels, n_classes: int) -> None:
    """Raise ValidationError unless every label is a class id in 0..n_classes-1."""
    if len(labels) and (np.min(labels) < 0 or np.max(labels) >= n_classes):
        raise ValidationError(f"labels outside 0..{n_classes - 1}")


def confusion_matrix(y_true, y_pred, n_classes: int) -> np.ndarray:
    """K x K counts; rows are true classes, columns predicted classes."""
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    if y_true.shape != y_pred.shape:
        raise ValidationError(
            f"length mismatch: {y_true.shape[0]} true vs {y_pred.shape[0]} predicted"
        )
    check_labels(y_true, n_classes)
    check_labels(y_pred, n_classes)
    cm = np.zeros((n_classes, n_classes), dtype=int)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def macro_metrics(cm: np.ndarray) -> tuple:
    """(precision, recall, f1, accuracy), macro-averaged over classes.

    A class with neither actual nor predicted positives contributes 0 to
    every macro average (conservative zero-division convention).
    """
    cm = np.asarray(cm, dtype=float)
    total = cm.sum()
    if total == 0:
        raise ValidationError("empty confusion matrix")
    tp = np.diag(cm)
    predicted = cm.sum(axis=0)
    actual = cm.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(predicted > 0, tp / predicted, 0.0)
        recall = np.where(actual > 0, tp / actual, 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2.0 * precision * recall / np.where(pr > 0, pr, 1.0), 0.0)
    accuracy = tp.sum() / total
    return float(precision.mean()), float(recall.mean()), float(f1.mean()), float(accuracy)


@dataclass
class ModelReport:
    """One model's macro metrics, in METRICS_HEADER's column order."""

    name: str
    precision: float
    recall: float
    accuracy: float
    f1: float


def _row(report, digits: int) -> list:
    """The report as METRICS_HEADER orders it, each metric to ``digits`` decimals."""
    name, *values = astuple(report)
    return [name, *(f"{value:.{digits}f}" for value in values)]


def format_report(reports) -> str:
    """Aligned text table with the four macro metric columns."""
    header = [{"f1": "F1 score"}.get(c, c.capitalize()) for c in METRICS_HEADER]
    rows = [_row(r, 4) for r in reports]
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    table = [header, ["-" * w for w in widths], *rows]
    return "\n".join("  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in table)


def write_metrics_csv(path, reports) -> None:
    write_table(path, METRICS_HEADER, (_row(r, 6) for r in reports))


def read_metrics_csv(path):
    """Read the reports write_metrics_csv wrote. A wrong header, a row without
    5 fields or a metric that is not a number in [0, 1] is a ParseError at its
    line."""
    rows = csv_rows(path)
    if next(rows, (1, []))[1] != METRICS_HEADER:
        raise ParseError(path, 1, f"expected header '{','.join(METRICS_HEADER)}'")
    reports = []
    for line_no, row in rows:
        if not row:
            continue
        if len(row) != len(METRICS_HEADER):
            raise ParseError(path, line_no,
                             f"expected {len(METRICS_HEADER)} columns, got {len(row)}")
        values = [parse_number(token) for token in row[1:]]
        for token, value in zip(row[1:], values):
            if value is None or not 0 <= value <= 1:
                raise ParseError(path, line_no, f"metric {token!r} is not a number in [0, 1]")
        reports.append(ModelReport(row[0], *values))
    return reports
