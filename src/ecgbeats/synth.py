"""Deterministic synthetic single-lead ECG records for desk-scale testing.

Beat shapes are sums of Gaussians arranged to mimic P-QRS-T morphology; they
are test fixtures, not physiology. Class cues follow the usual arrhythmia
reading: N is a narrow tall complex at a steady rate, V is a wide
inverted-then-tall complex arriving slightly early, S keeps normal
morphology but arrives clearly premature (short preceding RR). All
randomness flows from one seeded PCG64 stream, so identical configs yield
identical records.
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
    times = [_EDGE_PAD_S]
    for prev_sym, sym in zip(schedule, schedule[1:]):
        if sym == "N" and prev_sym in _RR_COMPENSATORY:
            fraction = _RR_COMPENSATORY[prev_sym]
        else:
            fraction = _RR_BEFORE[sym]
        rr = cfg.base_rr * fraction * (1.0 + rng.normal(0.0, cfg.rr_jitter))
        times.append(times[-1] + max(rr, 0.2 * cfg.base_rr))
    times = np.asarray(times)

    duration = times[-1] + _EDGE_PAD_S
    n = int(np.ceil(duration * cfg.fs)) + 1
    t = np.arange(n) / cfg.fs
    signal = np.zeros(n)
    for t_r, sym in zip(times, schedule):
        lo = np.searchsorted(t, t_r - 0.5)
        hi = np.searchsorted(t, t_r + 0.5)
        dt = t[lo:hi] - t_r
        for offset, amplitude, width in _TEMPLATES[sym]:
            signal[lo:hi] += amplitude * np.exp(-0.5 * ((dt - offset) / width) ** 2)
    if cfg.noise_std > 0:
        signal += rng.normal(0.0, cfg.noise_std, size=n)

    rpeaks = np.rint(times * cfg.fs).astype(int)
    return EcgRecord(signal=signal, fs=cfg.fs, rpeaks=rpeaks, labels=schedule)
