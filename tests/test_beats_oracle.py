"""The array path from a record to its feature matrix against the per-beat
code it replaced, which lives on here only as the oracle.

Segmentation, normalization and feature rows must be bit-equal to the
oracle's, beat by beat. An R-peak whose label is not admitted is never a
beat, but it is the neighbour of the beats on either side of it.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ecgbeats.errors import ValidationError
from ecgbeats.features import N_FEATURES, beat_features, record_hrv
from ecgbeats.preprocess import BEAT_LEN, HALF_WINDOW, normalize_beats, segment_beats
from ecgbeats.record_io import Beats, EcgRecord, LabelSet

# ---------------------------------------------------------------------------
# oracle: one object per beat, one loop iteration per R-peak
# ---------------------------------------------------------------------------


@dataclass
class OracleBeat:
    samples: np.ndarray
    rpeak_index: int
    label: int
    rr_prev: float
    rr_next: float
    raw_mean_abs_amplitude: float


def oracle_segment_beats(record, label_set=LabelSet()):
    signal = record.signal
    n = signal.shape[0]
    rpeaks = record.rpeaks
    beats, dropped = [], 0
    for i, r in enumerate(rpeaks):
        if record.labels[i] not in label_set:
            continue   # skipped, neither kept nor dropped
        has_context = 0 < i < len(rpeaks) - 1
        if not has_context or r - HALF_WINDOW < 0 or r + HALF_WINDOW > n:
            dropped += 1
            continue
        window = signal[r - HALF_WINDOW:r + HALF_WINDOW]
        beats.append(OracleBeat(
            samples=window.copy(),
            rpeak_index=int(r),
            label=label_set.id_of(record.labels[i]),
            rr_prev=(r - rpeaks[i - 1]) / record.fs,
            rr_next=(rpeaks[i + 1] - r) / record.fs,
            raw_mean_abs_amplitude=float(np.mean(np.abs(window))),
        ))
    return beats, dropped


def oracle_normalize_beat(samples):
    x = np.asarray(samples, dtype=float)
    if x.shape[0] != BEAT_LEN:
        raise ValidationError(f"expected {BEAT_LEN} samples, got {x.shape[0]}")
    lo, hi = x.min(), x.max()
    if hi == lo:
        return np.zeros_like(x)
    return 2.0 * (x - lo) / (hi - lo) - 1.0


def oracle_normalize_beats(beats):
    return [replace(b, samples=oracle_normalize_beat(b.samples)) for b in beats]


def oracle_beat_features(beat, record_hrv):
    if beat.samples.shape[0] != BEAT_LEN:
        raise ValidationError(f"beat has {beat.samples.shape[0]} samples, expected {BEAT_LEN}")
    if beat.rr_prev <= 0 or beat.rr_next <= 0:
        raise ValidationError("RR intervals must be positive")
    row = np.empty(N_FEATURES)
    row[:BEAT_LEN] = beat.samples
    row[70:73] = record_hrv
    row[73] = beat.raw_mean_abs_amplitude
    row[74] = math.log(beat.rr_prev)
    row[75] = math.log(beat.rr_next)
    return row


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def assert_beats_equal(got, want):
    assert len(got) == len(want)
    assert got.samples.shape == (len(want), BEAT_LEN)
    assert np.array_equal(bits(got.samples),
                          bits(np.reshape([b.samples for b in want], (-1, BEAT_LEN))))
    assert got.rpeak.tolist() == [b.rpeak_index for b in want]
    assert got.label.tolist() == [b.label for b in want]
    assert bits(got.rr_prev).tolist() == bits([b.rr_prev for b in want]).tolist()
    assert bits(got.rr_next).tolist() == bits([b.rr_next for b in want]).tolist()
    assert bits(got.raw_amp).tolist() == \
        bits([b.raw_mean_abs_amplitude for b in want]).tolist()


def assert_pipeline_matches_oracle(record):
    """Segment, normalize and featurize both ways."""
    want, want_dropped = oracle_segment_beats(record)
    beats, dropped = segment_beats(record)
    assert dropped == want_dropped
    assert_beats_equal(beats, want)

    normalized, want = normalize_beats(beats), oracle_normalize_beats(want)
    assert_beats_equal(normalized, want)

    hrv = record_hrv(record)
    rows = beat_features(normalized, hrv)
    assert rows.shape == (len(want), N_FEATURES)
    want_rows = np.reshape([oracle_beat_features(b, hrv) for b in want], (-1, N_FEATURES))
    assert np.array_equal(bits(rows), bits(want_rows))


# ---------------------------------------------------------------------------
# records: 70-400 samples, 0-8 peaks, edge windows, flat stretches, mixed labels
# ---------------------------------------------------------------------------

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def records(draw):
    n = draw(st.integers(70, 400))
    # positions where a window touches or just misses either record edge
    edges = [0, n - 1, HALF_WINDOW - 1, HALF_WINDOW, n - HALF_WINDOW, n - HALF_WINDOW + 1]
    positions = st.one_of(st.sampled_from([p for p in edges if 0 <= p < n]),
                          st.integers(0, n - 1))
    rpeaks = sorted(draw(st.sets(positions, max_size=8)))
    signal = draw(arrays(float, n, elements=finite))
    if draw(st.booleans()):   # a flat stretch, often wider than a window
        start = draw(st.integers(0, n - 1))
        signal[start:start + draw(st.integers(1, n))] = draw(finite)
    labels = draw(st.lists(st.sampled_from(["N", "S", "V", "N", "S", "V", "Q"]),
                           min_size=len(rpeaks), max_size=len(rpeaks)))
    fs = draw(st.sampled_from([180.0, 250.0, 360.0, 1.0 / 3.0]))
    return EcgRecord(signal=signal, fs=fs, rpeaks=np.asarray(rpeaks, dtype=int),
                     labels=labels)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(record=records())
def test_array_path_bit_equal_to_per_beat_oracle(record):
    assert_pipeline_matches_oracle(record)


@pytest.mark.parametrize("signal, rpeaks", [
    (np.full(70, 2.5), [0, 35, 69]),                       # window spans the whole record
    (np.r_[np.zeros(80), np.arange(80.0)], [10, 40, 45, 115, 159]),   # flat then a ramp
    (np.repeat([1.0, -3.0, 7.0], 90), [44, 45, 135, 225, 226, 269]),  # flat windows
    (np.arange(400.0), [0, 34, 35, 200, 365, 366, 399]),    # windows at both edges
])
def test_edge_and_flat_windows_match_oracle(signal, rpeaks):
    labels = ["NSV"[i % 3] for i in range(len(rpeaks))]
    record = EcgRecord(signal=signal, fs=180.0, rpeaks=rpeaks, labels=labels)
    assert len(oracle_segment_beats(record)[0]) > 0
    assert_pipeline_matches_oracle(record)


@settings(max_examples=200, deadline=None)
@given(samples=st.integers(0, 8).flatmap(
    lambda n: arrays(float, (n, BEAT_LEN), elements=finite)),
       rr=st.lists(st.floats(1e-300, 1e300), min_size=16, max_size=16))
def test_features_of_any_rr_bit_equal_to_oracle(samples, rr):
    # rr spans far more magnitudes than a record produces
    n = samples.shape[0]
    beats = Beats(samples=samples, rpeak=np.arange(n), label=np.zeros(n, dtype=int),
                  rr_prev=np.array(rr[:n]), rr_next=np.array(rr[8:8 + n]),
                  raw_amp=np.abs(samples).mean(axis=1))
    want = oracle_normalize_beats([OracleBeat(samples[i], i, 0, rr[i], rr[8 + i],
                                              float(beats.raw_amp[i])) for i in range(n)])
    hrv = (0.8, 0.75, 0.01)
    rows = beat_features(normalize_beats(beats), hrv)
    want_rows = np.reshape([oracle_beat_features(b, hrv) for b in want], (-1, N_FEATURES))
    assert np.array_equal(bits(rows), bits(want_rows))


def test_rr_logs_are_libm_logs():
    # numpy's vectorized log differs from libm's in the last bit on about
    # 0.2 % of RR-like values (189/180 s is one on x86-64 with numpy 2.4);
    # the oracle, and so the pinned feature files, hold libm's
    rr = np.r_[189 / 180, 242 / 250, 378 / 360,
               np.random.default_rng(5).uniform(0.05, 5.0, 4000)]
    n = rr.shape[0]
    beats = Beats(samples=np.zeros((n, BEAT_LEN)), rpeak=np.arange(n),
                  label=np.zeros(n, dtype=int), rr_prev=rr, rr_next=rr[::-1].copy(),
                  raw_amp=np.zeros(n))
    rows = beat_features(beats, (1.0, 1.0, 0.0))
    assert bits(rows[:, 74]).tolist() == bits([math.log(v) for v in rr]).tolist()
    assert bits(rows[:, 75]).tolist() == bits([math.log(v) for v in rr[::-1]]).tolist()


@pytest.mark.parametrize("labels", [list("NNQN"), list("QNQN")], ids=["NNQN", "QNQN"])
def test_unknown_label_is_a_neighbour_never_a_beat(labels):
    record = EcgRecord(signal=np.arange(300.0), fs=180.0, rpeaks=[50, 120, 190, 260],
                       labels=labels)
    beats, dropped = segment_beats(record)
    # only the peak at 120 is an admitted label with a peak on each side
    assert beats.rpeak.tolist() == [120] and dropped == labels.count("N") - 1
    assert beats.rr_prev.tolist() == beats.rr_next.tolist() == [70 / 180.0]
    assert_pipeline_matches_oracle(record)
