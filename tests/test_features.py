import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecgbeats.errors import ValidationError
from ecgbeats.features import N_FEATURES, beat_features, record_hrv
from ecgbeats.preprocess import BEAT_LEN, normalize_beats
from ecgbeats.record_io import Beats, EcgRecord


def _beat(samples=None, rr_prev=1.0, rr_next=1.0, raw_amp=0.5, label=0):
    """One beat as a 1-row batch."""
    if samples is None:
        samples = np.zeros(BEAT_LEN)
    return Beats(samples=np.reshape(samples, (1, -1)), rpeak=np.array([100]),
                 label=np.array([label]), rr_prev=np.array([rr_prev]),
                 rr_next=np.array([rr_next]), raw_amp=np.array([raw_amp]))


def beat_row(beat, record_hrv):
    rows = beat_features(beat, record_hrv)
    assert rows.shape == (1, N_FEATURES)
    return rows[0]


def normalize_beat(samples):
    return normalize_beats(_beat(samples)).samples[0]


def _record(rpeaks):
    """A 180 Hz record with these R-peaks; record_hrv reads only its peaks and rate."""
    rpeaks = np.asarray(rpeaks, dtype=int)
    n = int(rpeaks[-1]) + 1 if rpeaks.size else 1
    return EcgRecord(signal=np.zeros(n), fs=180.0, rpeaks=rpeaks, labels=["N"] * rpeaks.size)


def _hrv_of_intervals(samples):
    """record_hrv of a 180 Hz record whose RR intervals are these sample counts."""
    return record_hrv(_record(np.concatenate(([0], np.cumsum(samples)))))


class TestRrIntervals:
    """The RR intervals record_hrv takes, seen through its mean and median."""

    def test_equal_spacing(self):
        assert record_hrv(_record([100, 280, 460])) == pytest.approx((1.0, 1.0, 0.0))

    def test_half_second(self):
        assert record_hrv(_record([0, 90])) == (0.5, 0.5, 0.0)

    def test_fewer_than_two_peaks(self):
        assert record_hrv(_record([])) == record_hrv(_record([42])) == (0.0, 0.0, 0.0)

    @given(st.lists(st.integers(0, 10_000), min_size=2, max_size=50, unique=True))
    def test_telescoping_sum(self, peaks):
        peaks = sorted(peaks)
        mean, _, _ = record_hrv(_record(peaks))
        assert mean * (len(peaks) - 1) == pytest.approx((peaks[-1] - peaks[0]) / 180.0)


class TestHrvStats:
    def test_hand_computed_values(self):
        mean, median, var = _hrv_of_intervals([144, 180, 216])    # 0.8, 1.0, 1.2 s
        assert mean == pytest.approx(1.0)
        assert median == pytest.approx(1.0)
        assert var == pytest.approx((0.04 + 0.0 + 0.04) / 3.0)  # 0.0266667
        assert _hrv_of_intervals([90, 270]) == (1.0, 1.0, 0.25)   # 0.5, 1.5 s

    def test_singleton(self):
        assert record_hrv(_record([0, 180])) == (1.0, 1.0, 0.0)

    def test_constant_sequence_zero_variance(self):
        assert _hrv_of_intervals([126] * 9)[2] == 0.0    # 0.7 s each

    def test_even_length_median_averages_middle_two(self):
        assert _hrv_of_intervals([180, 360, 540, 1800])[1] == pytest.approx(2.5)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        rr = rng.integers(90, 270, size=21)
        base = _hrv_of_intervals(rr)
        for _ in range(20):
            assert _hrv_of_intervals(rng.permutation(rr)) == pytest.approx(base)


class TestBeatFeatures:
    def test_unit_rr_gives_zero_logs(self):
        row = beat_row(_beat(rr_prev=1.0, rr_next=1.0), (1.0, 1.0, 0.0))
        assert row[74] == 0.0 and row[75] == 0.0

    def test_zero_amplitude(self):
        row = beat_row(_beat(raw_amp=0.0), (1.0, 1.0, 0.0))
        assert row[73] == 0.0

    def test_layout(self):
        row = beat_row(_beat(rr_prev=2.0, rr_next=0.5, raw_amp=0.3), (0.9, 0.8, 0.02))
        assert row.shape == (N_FEATURES,)
        assert np.array_equal(row[:70], np.zeros(70))
        assert tuple(row[70:73]) == (0.9, 0.8, 0.02)
        assert row[73] == 0.3
        assert row[74] == pytest.approx(math.log(2.0))
        assert row[75] == pytest.approx(math.log(0.5))

    def test_first_70_equal_normalized_samples_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            raw = rng.normal(size=BEAT_LEN)
            normalized = normalize_beat(raw)
            row = beat_row(_beat(samples=normalized), (1.0, 1.0, 0.0))
            assert np.array_equal(row[:70], normalized)

    def test_rr_scaling_shifts_logs_by_log_c(self):
        hrv = (1.0, 1.0, 0.0)
        for c in (0.5, 2.0, 7.25):
            base = beat_row(_beat(rr_prev=0.8, rr_next=1.1), hrv)
            scaled = beat_row(_beat(rr_prev=c * 0.8, rr_next=c * 1.1), hrv)
            assert scaled[74] - base[74] == pytest.approx(math.log(c), abs=1e-12)
            assert scaled[75] - base[75] == pytest.approx(math.log(c), abs=1e-12)

    def test_non_positive_rr_rejected(self):
        with pytest.raises(ValidationError):
            beat_row(_beat(rr_prev=0.0), (1.0, 1.0, 0.0))

    def test_all_values_finite(self):
        rng = np.random.default_rng(12)
        row = beat_row(
            _beat(samples=normalize_beat(rng.normal(size=BEAT_LEN)),
                  rr_prev=0.004, rr_next=9.0), (2.0, 1.5, 0.3))
        assert np.isfinite(row).all()


class TestBuildFeatureMatrix:
    def test_dimensions_and_labels(self):
        beats = Beats(samples=np.zeros((3, BEAT_LEN)), rpeak=np.array([100, 200, 300]),
                      label=np.array([0, 2, 1]), rr_prev=np.ones(3), rr_next=np.ones(3),
                      raw_amp=np.full(3, 0.5))
        rows = beat_features(beats, record_hrv(_record([0, 180, 360, 540])))
        assert rows.shape == (3, N_FEATURES)
        assert beats.label.tolist() == [0, 2, 1]
        # record HRV is repeated on every row
        assert np.all(rows[:, 70] == 1.0)
