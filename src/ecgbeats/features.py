"""Hand-crafted 76-dimensional feature vectors.

Layout: positions 0..69 the normalized beat, 70..72 the record-level RR
statistics (mean, median, population variance), 73 the beat's mean absolute
filtered amplitude, 74/75 the natural log of the previous / next RR interval
in seconds. The RR statistics are record-global and repeated on every beat
of that record.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .record_io import Beats

N_FEATURES = 76


def rr_intervals(rpeaks, fs: float) -> np.ndarray:
    """Consecutive R-peak spacings in seconds; empty for fewer than 2 peaks."""
    if fs <= 0:
        raise ValidationError(f"sampling rate must be positive, got {fs}")
    peaks = np.asarray(rpeaks, dtype=float)
    if peaks.shape[0] < 2:
        return np.empty(0)
    return np.diff(peaks) / fs


def hrv_stats(rr) -> tuple:
    """(mean, median, population variance) of an RR-interval sequence."""
    x = np.asarray(rr, dtype=float)
    if x.shape[0] == 0:
        raise ValidationError("hrv_stats needs at least one RR interval")
    return float(np.mean(x)), float(np.median(x)), float(np.var(x))


def record_hrv(rpeaks, fs: float) -> tuple:
    """hrv_stats over all of a record's R-peaks; zeros below two peaks."""
    rr = rr_intervals(rpeaks, fs)
    return hrv_stats(rr) if rr.size else (0.0, 0.0, 0.0)


def _log(x: np.ndarray) -> np.ndarray:
    # libm's log, value by value: numpy's vectorized log differs from it in
    # the last bit on some inputs, and the feature files are pinned to libm
    return np.fromiter(map(math.log, x.tolist()), float, x.shape[0])


def beat_features(beats: Beats, record_hrv: tuple) -> np.ndarray:
    """The (n, 76) feature matrix of normalized beats, one row per beat."""
    if np.any(beats.rr_prev <= 0) or np.any(beats.rr_next <= 0):
        raise ValidationError("RR intervals must be positive")
    hrv = np.broadcast_to(np.asarray(record_hrv, dtype=float), (len(beats), 3))
    return np.column_stack([beats.samples, hrv, beats.raw_amp,
                            _log(beats.rr_prev), _log(beats.rr_next)])

