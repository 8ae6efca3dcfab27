"""Signal conditioning: resample to 180 Hz, 0.5-35 Hz band-pass, fixed-size
beat segmentation around annotated R-peaks, per-beat min-max normalization.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import ValidationError
from .record_io import BEAT_LEN, Beats, EcgRecord, LabelSet

HALF_WINDOW = BEAT_LEN // 2   # samples either side of the R-peak
TARGET_FS = 180.0
BAND_LOW_HZ = 0.5
BAND_HIGH_HZ = 35.0
FILTER_ORDER = 4


def resample(signal, from_hz: float, to_hz: float) -> np.ndarray:
    """Linear-interpolation resampling from from_hz to to_hz.

    Output sample k is the input interpolated at time k/to_hz; output length
    is round(n * to_hz / from_hz). Good enough after (or before) a 35 Hz
    low-pass: there is no content near the new Nyquist to alias.
    """
    x = np.asarray(signal, dtype=float)
    if from_hz <= 0 or to_hz <= 0:
        raise ValidationError("sampling rates must be positive")
    if x.shape[0] < 2:
        raise ValidationError(f"need at least 2 samples to resample, got {x.shape[0]}")
    if from_hz == to_hz:
        return x.copy()
    n_out = int(round(x.shape[0] * to_hz / from_hz))
    positions = np.arange(n_out) * (from_hz / to_hz)
    return np.interp(positions, np.arange(x.shape[0]), x)


def bandpass_filter(signal, fs: float, low: float = BAND_LOW_HZ,
                    high: float = BAND_HIGH_HZ) -> np.ndarray:
    """Zero-phase 4th-order Butterworth band-pass.

    Applied forward then backward, so the effective magnitude response is the
    squared Butterworth and the net phase is zero. Edges are padded with 1 s
    of mirrored signal to suppress startup transients.
    """
    x = np.asarray(signal, dtype=float)
    if not 0 < low < high < fs / 2:
        raise ValidationError(
            f"band ({low}, {high}) Hz must satisfy 0 < low < high < fs/2 = {fs / 2}"
        )
    # imported here, not at module level: scipy.signal takes about a second
    # to import, and only this stage needs it
    from scipy.signal import butter, sosfiltfilt

    sos = butter(FILTER_ORDER, [low, high], btype="bandpass", fs=fs, output="sos")
    padlen = min(int(round(fs)), x.shape[0] - 1)
    return sosfiltfilt(sos, x, padtype="even", padlen=padlen)


def resample_record(record: EcgRecord, to_hz: float = TARGET_FS) -> EcgRecord:
    """Resample every lead and remap R-peak indices onto the new grid."""
    if record.fs == to_hz:
        return record
    scale = to_hz / record.fs
    leads = [resample(lead, record.fs, to_hz) for lead in record.leads]
    n_out = leads[0].shape[0]
    rpeaks = np.minimum(np.rint(record.rpeaks * scale).astype(int), n_out - 1)
    if np.any(np.diff(rpeaks) <= 0):
        raise ValidationError("R-peaks collided while resampling")
    return EcgRecord(leads=leads, fs=to_hz, rpeaks=rpeaks, labels=list(record.labels))


def filter_record(record: EcgRecord, low: float = BAND_LOW_HZ,
                  high: float = BAND_HIGH_HZ) -> EcgRecord:
    leads = [bandpass_filter(lead, record.fs, low, high) for lead in record.leads]
    return EcgRecord(leads=leads, fs=record.fs, rpeaks=record.rpeaks.copy(),
                     labels=list(record.labels))


def preprocess_record(record: EcgRecord, to_hz: float = TARGET_FS,
                      low: float = BAND_LOW_HZ, high: float = BAND_HIGH_HZ) -> EcgRecord:
    """Resample then band-pass, in that order."""
    return filter_record(resample_record(record, to_hz), low, high)


def segment_beats(record: EcgRecord, label_set: LabelSet = LabelSet()):
    """Cut lead 0 of the record into 70-sample beats around each R-peak.

    A beat is kept only when the window [r-35, r+35) fits inside the record
    and the peak has both a predecessor and a successor (the RR features need
    both). Returns ``(beats, dropped_count)``; kept + dropped equals the
    R-peak count.
    """
    signal, rpeaks = record.leads[0], record.rpeaks
    keep = (rpeaks >= HALF_WINDOW) & (rpeaks + HALF_WINDOW <= signal.shape[0])
    keep[:1] = keep[-1:] = False
    idx = np.flatnonzero(keep)
    r = rpeaks[idx]
    samples = signal[r[:, None] + np.arange(-HALF_WINDOW, HALF_WINDOW)]
    symbols, inverse = np.unique(np.asarray(record.labels, dtype=str)[idx],
                                 return_inverse=True)
    label = np.array([label_set.id_of(s) for s in symbols.tolist()], dtype=int)[inverse]
    beats = Beats(samples=samples, rpeak=r, label=label,
                  rr_prev=(r - rpeaks[idx - 1]) / record.fs,
                  rr_next=(rpeaks[idx + 1] - r) / record.fs,
                  raw_amp=np.mean(np.abs(samples), axis=1))
    return beats, rpeaks.shape[0] - idx.shape[0]


def normalize_beats(beats: Beats) -> Beats:
    """Min-max scale each beat's samples into [-1, 1]; a flat beat maps to zeros."""
    x = beats.samples
    lo, hi = x.min(axis=1, keepdims=True), x.max(axis=1, keepdims=True)
    flat = hi == lo
    samples = 2.0 * (x - lo) / np.where(flat, 1.0, hi - lo) - 1.0
    samples[flat[:, 0]] = 0.0
    return replace(beats, samples=samples)
