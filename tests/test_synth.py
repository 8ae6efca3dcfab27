import numpy as np
import pytest

from ecgbeats.errors import ValidationError
from ecgbeats.features import beat_features, record_hrv
from ecgbeats.model import GbdtParams, fit_gbdt, predict_batch
from ecgbeats.preprocess import normalize_beats, preprocess_record, segment_beats
from ecgbeats.synth import SynthConfig, generate


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
