import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecgbeats.errors import ValidationError
from ecgbeats.preprocess import (BEAT_LEN, bandpass_filter, bandpass_sos, normalize_beats,
                                 preprocess_record, resample, segment_beats)
from ecgbeats.record_io import Beats, EcgRecord
from tests.helpers import analytic_bandpass_db, peak_traced_bytes

FS = 180.0


def _sine(freq, fs, seconds):
    t = np.arange(int(seconds * fs)) / fs
    return np.sin(2 * np.pi * freq * t)


def _amplitude(x):
    return np.sqrt(2.0) * np.sqrt(np.mean(x ** 2))


class TestResample:
    def test_250_to_180_length(self):
        out = resample(np.zeros(250), 250.0, 180.0)
        assert out.shape[0] == 180  # round(250 * 180 / 250)

    def test_constant_preserved(self):
        out = resample(np.full(100, 3.25), 250.0, 180.0)
        assert np.allclose(out, 3.25)

    def test_identity_at_equal_rates(self):
        x = np.random.default_rng(0).normal(size=50)
        assert np.array_equal(resample(x, 180.0, 180.0), x)

    def test_sine_against_analytic_oracle(self):
        # Oracle: exact linear interpolation of sin(w t) at fractional offset
        # a has error amplitude (w/fs_in)^2 * a(1-a) / 2, so the RMS over the
        # 18-sample offset cycle of the 250->180 grid is computable in closed
        # form; the implementation must land on that value, not merely below
        # a loose cap.
        x = _sine(5.0, 250.0, 10.0)
        out = resample(x, 250.0, 180.0)
        t_out = np.arange(out.shape[0]) / 180.0
        rms = np.sqrt(np.mean((out - np.sin(2 * np.pi * 5.0 * t_out)) ** 2))

        phase_step = 2 * np.pi * 5.0 / 250.0
        offsets = (np.arange(18) * (250.0 / 180.0)) % 1.0
        predicted = (phase_step ** 2 / 2.0) * np.sqrt(
            np.mean(offsets ** 2 * (1 - offsets) ** 2) / 2.0)
        assert rms == pytest.approx(predicted, rel=0.02)
        assert rms < 1.1e-3

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError):
            resample(np.zeros(1), 250.0, 180.0)

    # 2-sample signals: a regressed check allocates at most 200 samples
    @pytest.mark.parametrize("to_hz", [np.nan, np.inf, 1e300, 100 * 250.0])
    def test_bad_or_unbounded_rate_refused(self, to_hz):
        with pytest.raises(ValidationError, match="to_hz"):
            resample(np.zeros(2), 250.0, to_hz)
        record = EcgRecord(signal=np.zeros(2), fs=250.0, rpeaks=[0], labels=["N"])
        with pytest.raises(ValidationError, match="to_hz"):
            preprocess_record(record, to_hz=to_hz)

    def test_upsampling_bound_is_16x(self):
        assert resample(np.zeros(2), 250.0, 16 * 250.0).shape[0] == 32
        with pytest.raises(ValidationError, match="at most 16 x from_hz"):
            resample(np.zeros(2), 250.0, np.nextafter(16 * 250.0, np.inf))

    @given(st.integers(10, 500), st.floats(50, 500), st.floats(50, 500))
    def test_duration_preserved(self, n, from_hz, to_hz):
        out = resample(np.zeros(n), from_hz, to_hz)
        assert abs(out.shape[0] / to_hz - n / from_hz) <= 1.0 / to_hz


class TestBandpass:
    def test_dc_attenuated(self):
        y = bandpass_filter(np.ones(int(10 * FS)), FS)
        edge = int(FS)
        assert np.max(np.abs(y[edge:-edge])) < 0.02

    def test_passband_10hz_within_1db(self):
        y = bandpass_filter(_sine(10.0, FS, 10.0), FS)
        edge = int(FS)
        measured_db = 20 * np.log10(_amplitude(y[edge:-edge]))
        assert abs(measured_db) <= 1.0
        assert measured_db == pytest.approx(analytic_bandpass_db(10.0), abs=0.5)

    def test_stopband_70hz_at_least_20db(self):
        y = bandpass_filter(_sine(70.0, FS, 10.0), FS)
        edge = int(FS)
        measured_db = 20 * np.log10(_amplitude(y[edge:-edge]))
        assert measured_db <= -20.0
        # warping near Nyquist only deepens the analog-predicted stopband
        assert measured_db <= analytic_bandpass_db(70.0) + 1.0

    def test_band_outside_nyquist_rejected(self):
        with pytest.raises(ValidationError):
            bandpass_filter(np.zeros(100), fs=60.0, low=0.5, high=35.0)

    @pytest.mark.parametrize("low, high, fs", [
        (0.0, 35.0, 180.0), (-0.5, 35.0, 180.0),          # low <= 0
        (35.0, 35.0, 180.0), (40.0, 35.0, 180.0),         # low >= high
        (np.inf, np.inf, np.inf),
        (0.5, 90.0, 180.0), (0.5, 100.0, 180.0),          # high >= fs/2
        (0.5, 1e308, 1e-300),                             # ... overflowing once normalized
        (0.5, 35.0, 0.0), (0.5, 35.0, -180.0),            # fs <= 0
        (-0.5, -35.0, -180.0),                            # ... normalizing into (0, 1)
        (0.5, 35.0, np.nan),
        pytest.param("0.5", 35.0, 180.0, id="str-low"),    # not numbers, which the
        pytest.param(0.5, "35", 180.0, id="str-high"),     # CLI refuses too
        pytest.param(0.5, 35.0, "180", id="str-fs"),
        pytest.param(True, 35.0, 180.0, id="bool-low"),
        pytest.param(0.5, True, 180.0, id="bool-high"),
    ])
    def test_bad_band_or_rate_rejected_without_warnings(self, low, high, fs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                bandpass_sos(low, high, fs)
            with pytest.raises(ValidationError):
                bandpass_filter(np.zeros(100), fs, low, high)

    def test_empty_signal_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            bandpass_filter(np.zeros(0), FS)

    def test_length_preserved(self):
        assert bandpass_filter(np.zeros(777), FS).shape[0] == 777

    def test_linearity(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=600), rng.normal(size=600)
        lhs = bandpass_filter(2.0 * a + 3.0 * b, FS)
        rhs = 2.0 * bandpass_filter(a, FS) + 3.0 * bandpass_filter(b, FS)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    @pytest.mark.parametrize("make, reference", [
        pytest.param(lambda x: x.tolist(), lambda x: x, id="list"),
        pytest.param(lambda x: x.astype(np.float32),
                     lambda x: x.astype(np.float32).astype(np.float64), id="float32"),
        pytest.param(lambda x: x[::2], lambda x: x[::2].copy(), id="strided"),
        pytest.param(lambda x: x[:1], lambda x: x[:1].copy(), id="1-sample"),   # edge 0
        pytest.param(lambda x: x[:2], lambda x: x[:2].copy(), id="2-sample"),   # edge 1
        pytest.param(lambda x: x[::2][:2], lambda x: x[:4:2].copy(), id="2-sample-strided"),
    ])
    def test_any_input_gives_a_fresh_float64_array(self, make, reference):
        x = np.random.default_rng(8).normal(size=1001).cumsum()
        signal, expected = make(x), reference(x)
        assert expected.flags.c_contiguous and expected.dtype == np.float64
        out = bandpass_filter(signal, FS)
        assert np.array_equal(out, bandpass_filter(expected, FS))
        assert out.dtype == np.float64 and out.flags.c_contiguous
        assert out.flags.writeable and out.flags.owndata
        assert not np.shares_memory(out, x)


class TestMemory:
    N = 200_000

    def test_bandpass_peaks_under_32_bytes_a_sample(self):
        # the padded signal and the two passes' float64 buffers: ~17 B; a
        # list of Python floats per pass was 88 B
        x = np.random.default_rng(9).normal(size=self.N).cumsum()
        assert peak_traced_bytes(bandpass_filter, x, FS) / self.N <= 32

    def test_preprocess_record_peaks_under_32_bytes_an_input_sample(self):
        rng = np.random.default_rng(10)
        rpeaks = np.arange(100, self.N - 100, 200)
        record = EcgRecord(signal=rng.normal(size=self.N).cumsum(), fs=250.0,
                           rpeaks=rpeaks, labels=["N"] * rpeaks.shape[0])
        assert peak_traced_bytes(preprocess_record, record, FS) / self.N <= 32


def _record(n, rpeaks, labels=None, fs=FS):
    labels = labels or ["N"] * len(rpeaks)
    return EcgRecord(signal=np.arange(n, dtype=float), fs=fs,
                     rpeaks=np.asarray(rpeaks, dtype=int), labels=labels)


class TestSegmentBeats:
    def test_three_peak_example(self):
        beats, dropped = segment_beats(_record(100, [10, 50, 90]))
        assert len(beats) == 1 and dropped == 2
        assert beats.rpeak[0] == 50
        assert np.array_equal(beats.samples[0], np.arange(15.0, 85.0))
        assert beats.rr_prev[0] == pytest.approx(40.0 / FS)
        assert beats.rr_next[0] == pytest.approx(40.0 / FS)

    def test_empty_rpeaks(self):
        record = EcgRecord(signal=np.zeros(100), fs=FS,
                           rpeaks=np.array([], dtype=int), labels=[])
        beats, dropped = segment_beats(record)
        assert len(beats) == 0 and dropped == 0

    def test_against_brute_force_enumeration(self):
        # oracle: a beat survives iff it has both neighbors and the window
        # [r-35, r+35) fits inside the record
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(70, 400))
            k = int(rng.integers(0, 6))
            rpeaks = np.sort(rng.choice(n, size=k, replace=False))
            record = _record(n, rpeaks)
            beats, dropped = segment_beats(record)
            expected = [r for i, r in enumerate(rpeaks)
                        if 0 < i < len(rpeaks) - 1 and r - 35 >= 0 and r + 35 <= n]
            assert beats.rpeak.tolist() == expected
            assert len(beats) + dropped == len(rpeaks)

    def test_window_edge_cases_length_71(self):
        # r=35 fits the window exactly in a 71-sample record, but peaks also
        # need flanking context
        beats, _ = segment_beats(_record(71, [35]))
        assert len(beats) == 0
        beats, _ = segment_beats(_record(71, [0, 35, 70]))
        assert beats.rpeak.tolist() == [35]

    def test_labels_mapped_to_class_ids(self):
        beats, _ = segment_beats(_record(300, [50, 120, 190, 260],
                                         labels=["N", "V", "S", "N"]))
        assert beats.label.tolist() == [2, 1]


def normalize_beat(samples):
    """normalize_beats on a 1-row batch holding ``samples``."""
    beats = Beats(samples=np.reshape(samples, (1, -1)), rpeak=np.zeros(1, dtype=int),
                  label=np.zeros(1, dtype=int), rr_prev=np.ones(1), rr_next=np.ones(1),
                  raw_amp=np.zeros(1))
    return normalize_beats(beats).samples[0]


class TestNormalize:
    def test_affine_ramp_endpoints(self):
        out = normalize_beat(np.arange(0.0, 140.0, 2.0))
        assert out[0] == -1.0 and out[-1] == 1.0

    def test_constant_maps_to_zeros(self):
        assert np.array_equal(normalize_beat(np.full(BEAT_LEN, 5.0)),
                              np.zeros(BEAT_LEN))

    def test_idempotent_on_random_beats(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            x = rng.normal(size=BEAT_LEN)
            once = normalize_beat(x)
            assert np.max(np.abs(normalize_beat(once) - once)) < 1e-12

    def test_range_attained_for_non_degenerate(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            out = normalize_beat(rng.normal(size=BEAT_LEN))
            assert out.min() == -1.0 and out.max() == 1.0

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError):
            normalize_beat(np.zeros(69))


class TestRecordPipeline:
    def test_resample_record_remaps_rpeaks(self):
        record = _record(250, [100], fs=250.0)
        out = preprocess_record(record, 180.0)
        assert out.fs == 180.0
        assert out.rpeaks.tolist() == [72]  # round(100 * 180/250)

    def test_equal_rates_keep_signal_and_rpeaks(self):
        record = _record(400, [50, 200, 350], fs=FS)
        out = preprocess_record(record, FS)
        assert out.fs == FS and out.rpeaks.tolist() == [50, 200, 350]
        assert np.array_equal(out.signal, bandpass_filter(record.signal, FS))

    def test_equal_rates_filter_a_one_sample_record(self):
        out = preprocess_record(_record(1, [0], fs=FS), FS)
        assert out.signal.shape == (1,) and out.rpeaks.tolist() == [0]

    def test_emitted_beats_satisfy_invariants(self):
        rng = np.random.default_rng(1)
        n = 2000
        record = EcgRecord(signal=rng.normal(size=n), fs=250.0,
                           rpeaks=np.arange(100, n - 100, 150),
                           labels=["N"] * len(np.arange(100, n - 100, 150)))
        processed = preprocess_record(record)
        beats, dropped = segment_beats(processed)
        beats = normalize_beats(beats)
        assert len(beats) + dropped == len(processed.rpeaks)
        assert beats.samples.shape == (len(beats), BEAT_LEN)
        assert np.max(np.abs(beats.samples)) <= 1.0
        assert np.all(beats.rr_prev > 0) and np.all(beats.rr_next > 0)
        assert np.isfinite(beats.samples).all()
