import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgbeats import synth
from ecgbeats.errors import ValidationError
from ecgbeats.features import beat_features, record_hrv
from ecgbeats.model.ensemble import predict_batch
from ecgbeats.model.gbdt import GbdtParams, fit_gbdt
from ecgbeats.preprocess import normalize_beats, preprocess_record, segment_beats
from ecgbeats.record_io import write_annotations_csv, write_signal_csv
from ecgbeats.synth import SynthConfig, generate
from tests.helpers import peak_traced_bytes, reference_generate


def run_pipeline(record):
    processed = preprocess_record(record)
    beats, _ = segment_beats(processed)
    rows = beat_features(normalize_beats(beats), record_hrv(processed))
    return rows, beats.label


class TestGenerate:
    def test_same_seed_identical_records(self):
        cfg = SynthConfig(n_beats=20, noise_std=0.03, seed=5)
        a, b = generate(cfg), generate(cfg)
        assert np.array_equal(a.signal, b.signal)
        assert np.array_equal(a.rpeaks, b.rpeaks)
        assert a.labels == b.labels

    def test_record_invariants_hold(self):
        record = generate(SynthConfig(n_beats=15, noise_std=0.05, seed=1))
        # EcgRecord validates on construction; re-check the essentials
        assert np.all(np.diff(record.rpeaks) > 0)
        assert record.rpeaks[-1] < record.signal.shape[0]
        assert len(record.labels) == len(record.rpeaks)
        # perfbench/run.py's set_up reads the record through this alias
        assert record.leads[0] is record.signal

    def test_expected_beat_counts_after_segmentation(self):
        n = 25
        record = generate(SynthConfig(n_beats=n, seed=3))
        _, labels = run_pipeline(record)
        assert np.bincount(labels, minlength=3).tolist() == [n, n, n]

    def test_s_beats_premature_by_construction(self):
        record = generate(SynthConfig(n_beats=40, noise_std=0.05, seed=7))
        rr = np.diff(record.rpeaks) / record.fs
        median_rr = np.median(rr)
        for i, label in enumerate(record.labels):
            if label == "S":
                assert i > 0
                rr_prev = (record.rpeaks[i] - record.rpeaks[i - 1]) / record.fs
                assert rr_prev < 0.8 * median_rr

    def test_noise_free_data_trains_to_perfection(self):
        record = generate(SynthConfig(n_beats=30, noise_std=0.0, seed=11))
        rows, labels = run_pipeline(record)
        model = fit_gbdt(rows, labels,
                         GbdtParams(n_estimators=10, max_depth=4,
                                    min_data_in_leaf=2), n_classes=3)
        pred, _ = predict_batch(model, rows)
        assert np.mean(pred == labels) == 1.0

    def test_class_means_separated_relative_to_noise(self):
        noise_std = 0.05
        record = generate(SynthConfig(n_beats=60, noise_std=noise_std, seed=13))
        rows, labels = run_pipeline(record)
        for a in range(3):
            for b in range(a + 1, 3):
                gap = np.abs(rows[labels == a].mean(axis=0)
                             - rows[labels == b].mean(axis=0))
                assert gap.max() >= 3.0 * noise_std

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SynthConfig(n_beats=0)
        with pytest.raises(ValidationError):
            SynthConfig(noise_std=-0.1)


def assert_same_record(record, expected):
    assert record.signal.tobytes() == expected.signal.tobytes()
    assert np.array_equal(record.rpeaks, expected.rpeaks)
    assert record.labels == expected.labels


# rr_jitter up to 0.8 makes the 0.2 * base_rr floor bind, so a dozen or more
# one-second windows can overlap one sample
def configs(max_beats=60, rates=(50.0, 97.3, 250.0, 360.0, 2000.0)):
    return st.builds(
        SynthConfig,
        n_beats=st.integers(1, max_beats),
        fs=st.sampled_from(rates),
        noise_std=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
        seed=st.integers(0, 2**64),
        base_rr=st.floats(0.3, 1.5),
        rr_jitter=st.floats(0.0, 0.8),
    )


class TestGenerateMatchesTheBeatLoop:
    @settings(max_examples=100, deadline=None)
    @given(cfg=configs())
    def test_same_bytes(self, cfg):
        assert_same_record(generate(cfg), reference_generate(cfg))

    @settings(max_examples=40, deadline=None)
    @given(cfg=configs(max_beats=3, rates=(50.0, 97.3, 250.0, 360.0)),
           chunk_s=st.floats(1e-3, 3.0))
    def test_same_bytes_at_any_chunk_size(self, cfg, chunk_s):
        # passes of 1 to 1,080 samples: beat windows, and the samples where
        # windows overlap, cross pass edges at every offset
        with mock.patch.object(synth, "_CHUNK_S", chunk_s):
            record = generate(cfg)
        assert_same_record(record, reference_generate(cfg))

    @settings(max_examples=300, deadline=None)
    @given(fs=st.one_of(st.sampled_from([50.0, 97.3, 250.0, 360.0, 2000.0]),
                        st.floats(0.01, 1e5)),
           k=st.integers(0, 2_000_000), ulps=st.integers(-3, 3),
           n=st.integers(1, 2_000_000))
    def test_first_sample_is_searchsorted_on_the_time_grid(self, fs, k, ulps, n):
        # x at a grid time k / fs or a few ulps either side of it
        x = k / fs
        for _ in range(abs(ulps)):
            x = np.nextafter(x, np.copysign(np.inf, ulps))
        xs = np.array([x, x - 0.5, x + 0.5, -1.0])
        t = np.arange(n) / fs
        assert np.array_equal(synth._first_sample(xs, n, fs), np.searchsorted(t, xs))

    def test_add_at_adds_repeated_indices_in_array_order(self):
        # generate's addition order is np.add.at's: left to right, 1 + 2**53
        # rounds back to 2**53 and the sum ends at 0.0; adding the two large
        # terms first would leave 1.0
        a = np.zeros(1)
        np.add.at(a, [0, 0, 0], [1.0, 2.0**53, -2.0**53])
        assert a[0] == 0.0

    def test_the_v_template_is_padded_with_zero_terms(self):
        _, amplitude, width = synth._COMPONENTS[:, :, synth._SYMBOLS.index("V")]
        assert len(synth._TEMPLATES["V"]) == 3
        assert amplitude[3:].tolist() == [0.0, 0.0] and width[3:].tolist() == [1.0, 1.0]


# the benchmark's two set-up records, as written by the per-beat loop
PINNED_SETUP_SHA256 = {
    "fit-hard": (SynthConfig(n_beats=600, noise_std=0.3, rr_jitter=0.15, seed=42),
                 "a6d1b505a6afd1a4300a1e4a5b57ee7c1d96291a6dba8832ab93ed4648c9635a",
                 "ab25d0d1c2ed9c81dca7c85eacb1da713b9ed4111b59f954c8a9839d7e6e6e1d"),
    "corpus-prep": (SynthConfig(n_beats=1200, noise_std=0.1, rr_jitter=0.02, seed=42),
                    "4b731a9d99139027d9b85e8f65930f152895d1afe487a04259ada602438b452b",
                    "51678193fc5b91a5a475281875c3c5d55775dc41aeb060cb15ca059094d8b1e6"),
}


@pytest.mark.parametrize("workload", sorted(PINNED_SETUP_SHA256))
def test_setup_records_pinned(tmp_path, workload):
    cfg, signal_sha256, annotations_sha256 = PINNED_SETUP_SHA256[workload]
    record = generate(cfg)
    write_signal_csv(tmp_path / "signal.csv", record.signal)
    write_annotations_csv(tmp_path / "annotations.csv", record.rpeaks, record.labels)
    assert hashlib.sha256((tmp_path / "signal.csv").read_bytes()).hexdigest() == signal_sha256
    assert (hashlib.sha256((tmp_path / "annotations.csv").read_bytes()).hexdigest()
            == annotations_sha256)


def test_generate_peak_memory_at_corpus_prep():
    # the per-beat loop peaked at 13.81 MiB here: its time grid, the signal
    # and the whole noise draw, 8 B a sample each for 600,533 samples
    cfg = PINNED_SETUP_SHA256["corpus-prep"][0]
    assert peak_traced_bytes(generate, cfg) <= 13.81 * 2**20
