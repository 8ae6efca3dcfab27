import numpy as np
import pytest

from ecgbeats.errors import ValidationError
from ecgbeats.metrics import (ModelReport, confusion_matrix, format_report,
                              macro_metrics, read_metrics_csv, write_metrics_csv)


class TestConfusionMatrix:
    def test_perfect_predictions_diagonal(self):
        y = np.array([0, 1, 2, 1, 0])
        cm = confusion_matrix(y, y, 3)
        assert np.array_equal(cm, np.diag([2, 2, 1]))

    def test_empty_inputs_zero_matrix(self):
        cm = confusion_matrix([], [], 3)
        assert np.array_equal(cm, np.zeros((3, 3), dtype=int))

    def test_hand_tally(self):
        cm = confusion_matrix([0, 0, 1], [0, 1, 1], 2)
        assert cm.tolist() == [[1, 1], [0, 1]]

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValidationError):
            confusion_matrix([0, 3], [0, 1], 3)
        with pytest.raises(ValidationError):
            confusion_matrix([0, 1], [0, -1], 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            confusion_matrix([0, 1], [0], 2)

    def test_total_equals_sample_count(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 4, size=200)
        y_pred = rng.integers(0, 4, size=200)
        assert confusion_matrix(y_true, y_pred, 4).sum() == 200


class TestMacroMetrics:
    def test_hand_computed_example(self):
        cm = np.array([[8, 2], [1, 9]])
        precision, recall, f1, accuracy = macro_metrics(cm)
        # class 0: P=8/9, R=0.8, F1~0.842105; class 1: P=9/11, R=0.9, F1~0.857143
        assert precision == pytest.approx((8 / 9 + 9 / 11) / 2, abs=1e-9)
        assert recall == pytest.approx((0.8 + 0.9) / 2, abs=1e-9)
        f1_0 = 2 * (8 / 9) * 0.8 / (8 / 9 + 0.8)
        f1_1 = 2 * (9 / 11) * 0.9 / (9 / 11 + 0.9)
        assert f1 == pytest.approx((f1_0 + f1_1) / 2, abs=1e-9)
        assert f1 == pytest.approx(0.8496, abs=5e-5)
        assert accuracy == pytest.approx(0.85, abs=1e-9)

    def test_perfect_diagonal_all_ones(self):
        assert macro_metrics(np.diag([5, 3, 7])) == (1.0, 1.0, 1.0, 1.0)

    def test_all_zero_matrix_rejected(self):
        with pytest.raises(ValidationError):
            macro_metrics(np.zeros((3, 3)))

    def test_absent_class_contributes_zero(self):
        # class 2 never appears and is never predicted
        cm = np.array([[5, 0, 0], [0, 5, 0], [0, 0, 0]])
        precision, recall, f1, accuracy = macro_metrics(cm)
        assert precision == pytest.approx(2 / 3)
        assert recall == pytest.approx(2 / 3)
        assert f1 == pytest.approx(2 / 3)
        assert accuracy == 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        y_true = rng.integers(0, 3, size=120)
        y_pred = rng.integers(0, 3, size=120)
        base = macro_metrics(confusion_matrix(y_true, y_pred, 3))
        for _ in range(100):
            perm = rng.permutation(120)
            shuffled = macro_metrics(confusion_matrix(y_true[perm], y_pred[perm], 3))
            assert shuffled == pytest.approx(base, abs=1e-12)

    def test_macro_f1_bounded_by_best_class(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            cm = rng.integers(0, 20, size=(3, 3))
            if cm.sum() == 0:
                continue
            _, _, macro_f1, _ = macro_metrics(cm)
            per_class = []
            for c in range(3):
                tp = cm[c, c]
                p = tp / cm[:, c].sum() if cm[:, c].sum() else 0.0
                r = tp / cm[c].sum() if cm[c].sum() else 0.0
                per_class.append(2 * p * r / (p + r) if p + r else 0.0)
            assert macro_f1 <= max(per_class) + 1e-12
            assert 0.0 <= macro_f1 <= 1.0


class TestReport:
    def test_table_columns(self):
        report = ModelReport(name="gbdt", precision=0.94, recall=0.94,
                             f1=0.94, accuracy=0.99)
        text = format_report([report])
        header = text.splitlines()[0]
        for column in ("Model", "Precision", "Recall", "Accuracy", "F1 score"):
            assert column in header
        assert "gbdt" in text

    def test_csv_round_trip(self, tmp_path):
        reports = [ModelReport(name="gbdt", precision=0.9412, recall=0.9391,
                               f1=0.9401, accuracy=0.9899),
                   ModelReport(name="rf", precision=0.93, recall=0.93,
                               f1=0.93, accuracy=0.99)]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, reports)
        assert path.read_text().splitlines()[0] == "model,precision,recall,accuracy,f1"
        loaded = read_metrics_csv(path)
        assert [r.name for r in loaded] == ["gbdt", "rf"]
        assert loaded[0].f1 == pytest.approx(0.9401)

    def test_columns_follow_the_header(self, tmp_path):
        # four distinct metrics, so a column written or read out of place shows
        report = ModelReport(name="gbdt", precision=0.25, recall=0.5, accuracy=0.75, f1=0.125)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, [report])
        assert path.read_bytes() == (b"model,precision,recall,accuracy,f1\r\n"
                                     b"gbdt,0.250000,0.500000,0.750000,0.125000\r\n")
        assert read_metrics_csv(path) == [report]
        assert format_report([report]).splitlines()[::2] == [
            "Model  Precision  Recall  Accuracy  F1 score",
            "gbdt   0.2500     0.5000  0.7500    0.1250  "]
