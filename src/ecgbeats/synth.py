"""Deterministic synthetic single-lead ECG records for desk-scale testing.

Beat shapes are sums of Gaussians arranged to mimic P-QRS-T morphology; they
are test fixtures, not physiology. Class cues follow the usual arrhythmia
reading: N is a narrow tall complex at a steady rate, V is a wide
inverted-then-tall complex arriving slightly early, S keeps normal
morphology but arrives clearly premature (short preceding RR). All
randomness flows from one seeded PCG64 stream, so identical configs yield
identical records.

The draw order is part of that byte contract: the beat permutation, then
one RR draw for each beat after the first, then the noise in sample order.
Each sample's value is the running sum of its terms, added beat by beat in
time order and, within a beat, component by component in template order.
``generate`` lays each pass's terms out in that order, (beat, component,
window sample), and adds them with one ``np.add.at``, which adds repeated
indices unbuffered in array order: exactly those additions in that order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import int_at_least, real_above, real_at_least, validate
from .record_io import EcgRecord

# (offset s, amplitude mV, width s) per Gaussian component
_TEMPLATES = {
    "N": [(-0.20, 0.12, 0.030), (-0.035, -0.10, 0.012), (0.0, 1.00, 0.012),
          (0.035, -0.18, 0.014), (0.24, 0.30, 0.055)],
    "S": [(-0.16, 0.06, 0.022), (-0.035, -0.10, 0.012), (0.0, 0.95, 0.012),
          (0.035, -0.16, 0.014), (0.24, 0.28, 0.055)],
    "V": [(-0.05, -0.40, 0.030), (0.0, 1.10, 0.042), (0.30, -0.35, 0.070)],
}

# preceding RR interval, as a fraction of base_rr
_RR_BEFORE = {"N": 1.0, "S": 0.55, "V": 0.85}
# interval granted to the beat after an ectopic (compensatory pause)
_RR_COMPENSATORY = {"S": 1.15, "V": 1.15}

_EDGE_PAD_S = 1.0
# seconds of signal per array pass of generate: eight one-second windows, so
# few grid cells fall outside a pass, and its buffers, which the C heap may
# keep resident after generate returns, stay small beside the signal
_CHUNK_S = 8.0

# _TEMPLATES as a (parameter, component, symbol) table; a V beat's missing
# components are amplitude 0, width 1: each adds +0.0, which changes no
# running sum, since a sum that starts at +0.0 is never -0.0
_SYMBOLS = tuple(_TEMPLATES)
_COMPONENTS = np.array([
    [_TEMPLATES[sym][c] if c < len(_TEMPLATES[sym]) else (0.0, 0.0, 1.0) for sym in _SYMBOLS]
    for c in range(max(map(len, _TEMPLATES.values())))]).transpose(2, 0, 1)


@dataclass
class SynthConfig:
    n_beats: int = 100          # per class
    fs: float = 250.0
    noise_std: float = 0.0
    seed: int = 0
    base_rr: float = 0.8        # seconds
    rr_jitter: float = 0.02     # fractional std of every RR draw

    def __post_init__(self):
        validate([
            int_at_least("n_beats", self.n_beats, 1),
            real_above("fs", self.fs, 0),
            real_at_least("noise_std", self.noise_std, 0),
            int_at_least("seed", self.seed, 0),
            real_above("base_rr", self.base_rr, 0),
            real_at_least("rr_jitter", self.rr_jitter, 0),
        ])


def generate(cfg: SynthConfig) -> EcgRecord:
    """Emit one record with cfg.n_beats labeled beats per class.

    One unlabeled-in-spirit guard beat (morphology N) is added at each end;
    the guards are annotated as N but are exactly the two beats that beat
    segmentation drops for lacking RR context, so the segmented output
    contains cfg.n_beats beats per class.
    """
    rng = np.random.default_rng(cfg.seed)
    schedule = rng.permutation(
        [sym for sym in ("N", "S", "V") for _ in range(cfg.n_beats)]
    ).tolist()
    schedule = ["N"] + schedule + ["N"]

    # R-peak times: class-dependent prematurity, with a compensatory pause
    # granted only to a normal beat that follows an ectopic (so S beats are
    # always premature relative to the record median RR)
    fractions = [_RR_COMPENSATORY[prev_sym] if sym == "N" and prev_sym in _RR_COMPENSATORY
                 else _RR_BEFORE[sym] for prev_sym, sym in zip(schedule, schedule[1:])]
    rr = cfg.base_rr * np.array(fractions) * (
        1.0 + rng.normal(0.0, cfg.rr_jitter, size=len(fractions)))
    times = np.cumsum(np.concatenate(([_EDGE_PAD_S], np.maximum(rr, 0.2 * cfg.base_rr))))

    duration = times[-1] + _EDGE_PAD_S
    n = int(np.ceil(duration * cfg.fs)) + 1
    # beat b covers samples lo[b] .. hi[b] - 1, those within 0.5 s of its
    # R-peak; both bounds rise with b
    lo = _first_sample(times - 0.5, n, cfg.fs)
    hi = _first_sample(times + 0.5, n, cfg.fs)
    span = int((hi - lo).max())
    codes = np.array([_SYMBOLS.index(sym) for sym in schedule])
    signal = np.zeros(n)
    step = max(1, int(_CHUNK_S * cfg.fs))
    for start in range(0, n, step):
        stop = min(start + step, n)
        # every term of the beats b0 .. b1 - 1 that meet the chunk, on a
        # (beat, component, window sample) grid; a cell adds only inside its
        # beat's window and the chunk
        b0 = np.searchsorted(hi, start, "right")
        b1 = np.searchsorted(lo, stop - 1, "right")
        cells = lo[b0:b1, None, None] + np.arange(span)
        offset, amplitude, width = _COMPONENTS[:, :, codes[b0:b1]].swapaxes(1, 2)[..., None]
        dt = cells / cfg.fs - times[b0:b1, None, None]
        terms = amplitude * np.exp(-0.5 * ((dt - offset) / width) ** 2)
        inside = np.broadcast_to(
            (cells >= start) & (cells < np.minimum(hi[b0:b1, None, None], stop)), terms.shape)
        np.add.at(signal, np.broadcast_to(cells, terms.shape)[inside], terms[inside])
        if cfg.noise_std > 0:
            signal[start:stop] += rng.normal(0.0, cfg.noise_std, size=stop - start)

    rpeaks = np.rint(times * cfg.fs).astype(int)
    return EcgRecord(signal=signal, fs=cfg.fs, rpeaks=rpeaks, labels=schedule)


def _first_sample(x, n, fs):
    """For each time x, the first sample k < n with k / fs >= x, else n:
    ``np.searchsorted(np.arange(n) / fs, x)`` without that n-sample grid.
    ceil(x * fs) misses it by at most one sample either way."""
    k = np.clip(np.ceil(x * fs), 0, n).astype(int)
    k -= (k > 0) & ((k - 1) / fs >= x)
    k += (k < n) & (k / fs < x)
    return k

