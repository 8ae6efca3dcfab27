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
from .record_io import Beats, EcgRecord

N_FEATURES = 76


HRV_KEYS = ("hrv_mean", "hrv_median", "hrv_var")   # record_hrv's values, by name


def record_hrv(record: EcgRecord) -> tuple:
    """(mean, median, population variance) of the record's RR intervals in
    seconds, taken over every R-peak; zeros below two peaks."""
    rr = np.diff(record.rpeaks.astype(float)) / record.fs
    if not rr.size:
        return 0.0, 0.0, 0.0
    return float(np.mean(rr)), float(np.median(rr)), float(np.var(rr))


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

