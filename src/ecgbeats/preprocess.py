"""Signal conditioning of a record's one signal: ``preprocess_record`` resamples
it to 180 Hz and band-passes it at 0.5-35 Hz; ``segment_beats`` cuts fixed-size
beats around the R-peaks of admitted labels and ``normalize_beats`` min-max
scales each.

The band-pass is numpy and plain Python, with no scipy import; its design
and its forward-backward filtering are bit-equal to scipy.signal's ``butter``
and ``sosfiltfilt``.
"""

from __future__ import annotations

from array import array
from dataclasses import replace

import numpy as np

from .errors import ValidationError, is_real, real_above, validate
from .record_io import BEAT_LEN, Beats, EcgRecord, LabelSet

HALF_WINDOW = BEAT_LEN // 2   # samples either side of the R-peak
TARGET_FS = 180.0
BAND_LOW_HZ = 0.5
BAND_HIGH_HZ = 35.0
FILTER_ORDER = 4
# resample allocates n * to_hz / from_hz samples, so an unbounded upsampling
# ratio (--fs 1e-3 to 180 Hz) exhausts memory before anything can fail; 16x
# admits every rate pair in use (250 -> 180, 250 -> 250, 50 <-> 500)
MAX_UPSAMPLE = 16


def rate_rule(from_hz, to_hz, names=("from_hz", "to_hz")) -> list:
    """The one rate rule, as checks for ``validate``: both rates finite and
    > 0, and to_hz at most MAX_UPSAMPLE times from_hz."""
    from_name, to_name = names
    bounded = not (is_real(from_hz) and is_real(to_hz)) or to_hz <= MAX_UPSAMPLE * from_hz
    return [real_above(from_name, from_hz, 0), real_above(to_name, to_hz, 0),
            (bounded, f"{to_name} must be at most {MAX_UPSAMPLE} x {from_name}, "
                      f"got {to_name}={to_hz!r} from {from_name}={from_hz!r}")]


def band_rule(low, high, fs, names=("low", "high", "fs")) -> list:
    """The one band rule, as checks for ``validate``: low, high and fs finite,
    fs > 0, and 0 < low < high < fs/2 tested on the band normalized to fs/2
    as ``bandpass_sos`` designs it, so edges that round there to one value or
    to 0 fail."""
    low_name, high_name, fs_name = names
    ok = all(map(is_real, (low, high, fs))) and fs > 0
    ok = ok and 0 < float(low) / (float(fs) / 2) < float(high) / (float(fs) / 2) < 1
    return [(ok, f"band {low_name}={low!r}, {high_name}={high!r} at {fs_name}={fs!r} must "
                 f"satisfy 0 < {low_name}/({fs_name}/2) < {high_name}/({fs_name}/2) < 1")]


def resample(signal, from_hz: float, to_hz: float) -> np.ndarray:
    """Linear-interpolation resampling from from_hz to to_hz.

    Output sample k is the input interpolated at time k/to_hz; output length
    is round(n * to_hz / from_hz). Good enough after (or before) a 35 Hz
    low-pass: there is no content near the new Nyquist to alias.
    """
    validate(rate_rule(from_hz, to_hz))
    x = np.asarray(signal, dtype=float)
    if from_hz == to_hz:
        return x.copy()
    if x.shape[0] < 2:
        raise ValidationError(f"need at least 2 samples to resample, got {x.shape[0]}")
    n_out = int(round(x.shape[0] * to_hz / from_hz))
    # float aranges: interp would convert int64 ones to a second float64 copy
    positions = np.arange(n_out, dtype=float)
    positions *= from_hz / to_hz
    return np.interp(positions, np.arange(x.shape[0], dtype=float), x)


def bandpass_sos(low: float, high: float, fs: float) -> np.ndarray:
    """Order-4 Butterworth band-pass as a (4, 6) array of second-order sections.

    Bit-equal to ``scipy.signal.butter(4, [low, high], "bandpass", fs=fs,
    output="sos")``: it repeats scipy's arithmetic step by step in numpy (band
    pre-warp, ``lp2bp_zpk``, ``bilinear_zpk``, then ``zpk2sos`` with its
    "nearest" pairing), so every rounding, tie and ordering falls the same way.
    """
    validate(band_rule(low, high, fs))
    n = FILTER_ORDER
    wn = np.asarray([low, high], dtype=np.float64) / (float(fs) / 2)
    warped = 4.0 * np.tan(np.pi * wn / 2.0)    # pre-warped for fs = 2
    bw, wo = float(warped[1] - warped[0]), float(np.sqrt(warped[0] * warped[1]))
    # analog low-pass prototype poles, shifted to +-wo at bandwidth bw
    m = np.arange(-n + 1, n, 2, dtype=np.float64)
    p_lp = -np.exp(1j * np.pi * m / (2 * n)) * bw / 2
    root = np.sqrt(p_lp**2 - wo**2)
    p_bp = np.concatenate((p_lp + root, p_lp - root))
    # bilinear transform: the n zeros at 0 go to z = 1, the n at infinity to -1
    poles = np.concatenate(_cplxreal((4.0 + p_bp) / (4.0 - p_bp)))
    gain = bw**n * np.real(4.0**n / np.prod(4.0 - p_bp))
    zeros = np.repeat([-1.0, 1.0], n)

    def worst(p):    # the pole nearest the unit circle
        return np.argmin(np.abs(1 - np.abs(p)))

    sos = np.zeros((n, 6))
    for si in range(n - 1, -1, -1):    # worst poles in the last sections
        i = worst(poles)
        p1, poles = poles[i], np.delete(poles, i)
        if np.isreal(p1):    # real poles come in pairs: take the next worst
            reals = np.flatnonzero(np.isreal(poles))
            i = reals[worst(poles[reals])]
            p2, poles = poles[i], np.delete(poles, i)
        else:
            p2 = p1.conj()
        pair = []
        for _ in range(2):    # the zeros nearest p1 (argsort, as scipy: ties fall alike)
            i = np.argsort(np.abs(zeros - p1))[0]
            pair.append(zeros[i])
            zeros = np.delete(zeros, i)
        sos[si, :3] = np.poly(pair)
        sos[si, 3:] = np.poly([p1, p2]).real
    sos[0, :3] *= gain
    return sos


def _cplxreal(z):
    """scipy's conjugate-pair split, order included: one root of each complex
    pair (with positive imaginary part), then the real roots. The poles come
    in exact conjugate pairs, so the upper root stands for its pair."""
    tol = 100 * np.finfo(np.float64).eps
    z = z[np.lexsort((abs(z.imag), z.real))]
    real = abs(z.imag) <= tol * abs(z)
    zp = z[~real & (z.imag > 0)]
    # runs of (nearly) the same real part are ordered by imaginary part
    same_real = np.diff(zp.real) <= tol * abs(zp[:-1])
    edges = np.diff(np.concatenate(([0], same_real, [0])))
    for start, stop in zip(np.flatnonzero(edges > 0), np.flatnonzero(edges < 0) + 1):
        zp[start:stop] = zp[start:stop][np.lexsort([abs(zp[start:stop].imag)])]
    return zp, z[real].real


def _steady_state(sos) -> np.ndarray:
    """scipy's ``sosfilt_zi``: each section's state after a unit step has
    settled, from one 2x2 solve per section; a pole at z = 1 makes it singular."""
    zi = np.empty((sos.shape[0], 2))
    scale = 1.0
    for s, (b, a) in enumerate(zip(sos[:, :3], sos[:, 3:])):
        companion = np.array([[-a[1], -a[2]], [1.0, 0.0]])
        zi[s] = scale * np.linalg.solve(np.eye(2) - companion.T, b[1:] - a[1:] * b[0])
        scale *= np.sum(b) / np.sum(a)
    return zi


def _sosfilt(sos, x, zi) -> array:
    """Run the 4 sections in direct form II transposed over the iterable of
    floats x, starting from state zi, into a flat ``array('d')``: 8 bytes a
    sample, where a list of floats holds 32. The same IEEE operations in the
    same order as scipy's compiled ``sosfilt``, so the output is identical to
    it."""
    (b00, b01, b02, _, a01, a02), (b10, b11, b12, _, a11, a12), \
        (b20, b21, b22, _, a21, a22), (b30, b31, b32, _, a31, a32) = sos.tolist()
    (z00, z01), (z10, z11), (z20, z21), (z30, z31) = zi.tolist()
    out = array("d")
    append = out.append
    for x0 in x:
        x1 = b00 * x0 + z00
        z00 = b01 * x0 - a01 * x1 + z01
        z01 = b02 * x0 - a02 * x1
        x2 = b10 * x1 + z10
        z10 = b11 * x1 - a11 * x2 + z11
        z11 = b12 * x1 - a12 * x2
        x3 = b20 * x2 + z20
        z20 = b21 * x2 - a21 * x3 + z21
        z21 = b22 * x2 - a22 * x3
        x4 = b30 * x3 + z30
        z30 = b31 * x3 - a31 * x4 + z31
        z31 = b32 * x3 - a32 * x4
        append(x4)
    return out


def bandpass_filter(signal, fs: float, low: float = BAND_LOW_HZ,
                    high: float = BAND_HIGH_HZ) -> np.ndarray:
    """Zero-phase 4th-order Butterworth band-pass.

    Applied forward then backward, so the effective magnitude response is the
    squared Butterworth and the net phase is zero. Edges are padded with 1 s
    of mirrored signal (even extension), and each pass starts in the steady
    state of its first sample, to suppress startup transients. numpy only:
    the output is bit-equal to ``scipy.signal.sosfiltfilt(bandpass_sos(...),
    x, padtype="even", padlen=min(round(fs), len(x) - 1))``. The two passes
    are a Python loop over the samples, so their cost grows with the record
    (the README gives it). They stream through flat float64 buffers: the
    backward pass reads the forward output through a reversed view, not a
    reversed copy, and each buffer is dropped once read, so besides x no more
    than two signal-length buffers are alive at once.
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1 or x.shape[0] == 0:
        raise ValidationError(f"need a non-empty 1-D signal to filter, got shape {x.shape}")
    sos = bandpass_sos(low, high, fs)
    try:
        zi = _steady_state(sos)
    except np.linalg.LinAlgError:
        raise ValidationError(
            f"band ({low}, {high}) Hz is too close to 0 or to fs/2 = {fs / 2} Hz: "
            "the filter has a pole at z = 1") from None
    edge = min(int(round(fs)), x.shape[0] - 1)
    ext = np.concatenate((x[edge:0:-1], x, x[-2:-edge - 2:-1]))
    forward = _sosfilt(sos, memoryview(ext), zi * ext[0])
    del ext
    backward = _sosfilt(sos, memoryview(forward)[::-1], zi * forward[-1])
    del forward
    return np.frombuffer(backward)[::-1][edge:edge + x.shape[0]].copy()


def preprocess_record(record: EcgRecord, to_hz: float = TARGET_FS,
                      low: float = BAND_LOW_HZ, high: float = BAND_HIGH_HZ) -> EcgRecord:
    """Resample to to_hz (remapping the R-peaks onto the new grid), then band-pass.
    At equal rates the resampling and the remapping are the identity."""
    signal = resample(record.signal, record.fs, to_hz)
    rpeaks = np.minimum(np.rint(record.rpeaks * (to_hz / record.fs)).astype(int),
                        signal.shape[0] - 1)
    if np.any(np.diff(rpeaks) <= 0):
        raise ValidationError(
            f"R-peaks collided while resampling from {record.fs!r} Hz to {to_hz!r} Hz: "
            "at that ratio adjacent R-peaks merge onto one sample")
    return EcgRecord(signal=bandpass_filter(signal, to_hz, low, high), fs=to_hz,
                     rpeaks=rpeaks, labels=list(record.labels))


def segment_beats(record: EcgRecord, label_set: LabelSet = LabelSet()):
    """Cut the record's signal into 70-sample beats around its R-peaks.

    This is where labels are admitted. A peak becomes a beat only when its
    label is in ``label_set``, the window [r-35, r+35) fits inside the record,
    and it has a peak on each side (the RR features need both). Every peak is
    a neighbour, admitted or not, so ``rr_prev`` and ``rr_next`` are the true
    intervals. Returns ``(beats, dropped_count)``; a peak of an unadmitted
    label is skipped, not dropped, so kept + dropped equals the admitted
    R-peak count.
    """
    signal, rpeaks = record.signal, record.rpeaks
    symbols, inverse = np.unique(np.asarray(record.labels, dtype=str), return_inverse=True)
    class_of = {s: i for i, s in enumerate(label_set.symbols)}
    label = np.array([class_of.get(s, -1) for s in symbols.tolist()], dtype=int)[inverse]
    admitted = label >= 0
    keep = admitted & (rpeaks >= HALF_WINDOW) & (rpeaks + HALF_WINDOW <= signal.shape[0])
    keep[:1] = keep[-1:] = False
    idx = np.flatnonzero(keep)
    r = rpeaks[idx]
    samples = signal[r[:, None] + np.arange(-HALF_WINDOW, HALF_WINDOW)]
    beats = Beats(samples=samples, rpeak=r, label=label[idx],
                  rr_prev=(r - rpeaks[idx - 1]) / record.fs,
                  rr_next=(rpeaks[idx + 1] - r) / record.fs,
                  raw_amp=np.mean(np.abs(samples), axis=1))
    return beats, int(np.count_nonzero(admitted)) - idx.shape[0]


def normalize_beats(beats: Beats) -> Beats:
    """Min-max scale each beat's samples into [-1, 1]; a flat beat maps to zeros."""
    x = beats.samples
    lo, hi = x.min(axis=1, keepdims=True), x.max(axis=1, keepdims=True)
    flat = hi == lo
    samples = 2.0 * (x - lo) / np.where(flat, 1.0, hi - lo) - 1.0
    samples[flat[:, 0]] = 0.0
    return replace(beats, samples=samples)
