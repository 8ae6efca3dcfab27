import numpy as np
import pytest

from ecgbeats import cli
from ecgbeats.errors import DataError, ParseError, ValidationError
from ecgbeats.record_io import (MAX_CLASSES, EcgRecord, LabelSet, export_image,
                                load_feature_matrix, load_record, save_feature_matrix,
                                write_annotations_csv, write_signal_csv)
from tests.helpers import load_image_f32, random_image, read_pgm


def _write(path, text):
    path.write_text(text)
    return path


class TestLoadRecord:
    def test_minimal_record(self, tmp_path):
        sig = _write(tmp_path / "s.csv", "0.0\n1.0\n0.5\n")
        ann = _write(tmp_path / "a.csv", "sample_index,label\n1,N\n")
        record = load_record(sig, ann, fs=250.0)
        assert isinstance(record, EcgRecord)
        assert record.rpeaks.tolist() == [1]
        assert record.labels == ["N"]

    def test_out_of_order_annotations_sorted(self, tmp_path):
        sig = _write(tmp_path / "s.csv", "\n".join("0.0" for _ in range(10)) + "\n")
        ann = _write(tmp_path / "a.csv", "sample_index,label\n5,V\n2,N\n")
        record = load_record(sig, ann, fs=250.0)
        assert record.rpeaks.tolist() == [2, 5]
        assert record.labels == ["N", "V"]

    def test_every_row_is_a_peak_whatever_its_label(self, tmp_path):
        sig = _write(tmp_path / "s.csv", "\n".join("0.0" for _ in range(10)) + "\n")
        ann = _write(tmp_path / "a.csv",
                     "sample_index,label\n7,Q\n1,N\n3,Q\n5,V\n")
        record = load_record(sig, ann, fs=250.0)
        # oracle: the file's rows, sorted by index, labels untouched
        rows = sorted((int(i), sym) for i, sym in
                      (line.split(",") for line in ann.read_text().splitlines()[1:]))
        assert list(zip(record.rpeaks.tolist(), record.labels)) == rows
        assert record.labels == ["N", "Q", "V", "Q"]

    def test_strict_mode_rejects_unknown_label(self, tmp_path, capsys):
        # load_record keeps the Q row, so strict preprocess sees and refuses it
        sig = _write(tmp_path / "s.csv", "0.0\n0.0\n0.0\n")
        ann = _write(tmp_path / "a.csv", "sample_index,label\n1,Q\n")
        assert load_record(sig, ann, fs=250.0).labels == ["Q"]
        code = cli.main(["preprocess", "--signal", str(sig), "--annotations", str(ann),
                         "--fs", "250", "--out-dir", str(tmp_path / "pre"), "--strict"])
        assert code == 1
        assert f"{ann}: label 'Q' not in ('N', 'S', 'V')" in capsys.readouterr().err
        assert not (tmp_path / "pre").exists()

    def test_malformed_row_reports_line_number(self, tmp_path):
        sig = _write(tmp_path / "s.csv", "0.0\nnot-a-number\n0.0\n")
        ann = _write(tmp_path / "a.csv", "sample_index,label\n1,N\n")
        with pytest.raises(ParseError, match=":2:"):
            load_record(sig, ann, fs=250.0)

    def test_oversized_annotation_field_reports_line_number(self, tmp_path):
        sig = _write(tmp_path / "s.csv", "0.0\n0.0\n0.0\n")
        ann = _write(tmp_path / "a.csv", "sample_index,label\n1,N\n2," + "N" * 200_000 + "\n")
        with pytest.raises(ParseError, match=":3: field larger than field limit"):
            load_record(sig, ann, fs=250.0)

    def test_duplicate_rpeaks_rejected(self, tmp_path):
        sig = _write(tmp_path / "s.csv", "0.0\n0.0\n0.0\n")
        ann = _write(tmp_path / "a.csv", "sample_index,label\n1,N\n1,V\n")
        with pytest.raises(ValidationError):
            load_record(sig, ann, fs=250.0)

    def test_rpeak_beyond_signal_rejected(self, tmp_path):
        sig = _write(tmp_path / "s.csv", "0.0\n0.0\n0.0\n")
        ann = _write(tmp_path / "a.csv", "sample_index,label\n3,N\n")
        with pytest.raises(ValidationError):
            load_record(sig, ann, fs=250.0)

    def test_lead_selection(self, tmp_path):
        sig = _write(tmp_path / "s.csv", "0.0,1.0\n0.1,1.1\n0.2,1.2\n")
        ann = _write(tmp_path / "a.csv", "sample_index,label\n1,N\n")
        record = load_record(sig, ann, fs=250.0, lead_select=1)
        assert np.allclose(record.signal, [1.0, 1.1, 1.2])
        for lead in (2, None):
            with pytest.raises(ValidationError, match=f"lead {lead} not available"):
                load_record(sig, ann, fs=250.0, lead_select=lead)

    def test_selected_column_does_not_keep_the_file_alive(self, tmp_path):
        sig = _write(tmp_path / "s.csv", "0.0,1.0\n0.1,1.1\n0.2,1.2\n")
        ann = _write(tmp_path / "a.csv", "sample_index,label\n1,N\n")
        for lead in (0, 1):
            record = load_record(sig, ann, fs=250.0, lead_select=lead)
            assert record.signal.flags.c_contiguous
            # a column view would have the whole (3, 2) array as its base
            assert record.signal.base is None

    def test_signal_annotation_round_trip(self, tmp_path):
        signal = np.linspace(-1, 1, 50)
        write_signal_csv(tmp_path / "s.csv", signal)
        write_annotations_csv(tmp_path / "a.csv", [3, 17, 40], ["N", "V", "S"])
        record = load_record(tmp_path / "s.csv", tmp_path / "a.csv", fs=250.0)
        assert np.allclose(record.signal, signal, atol=1e-9)
        assert record.rpeaks.tolist() == [3, 17, 40]


class TestLabelSet:
    def test_default_mapping(self):
        ls = LabelSet()
        assert [ls.id_of(s) for s in ("N", "S", "V")] == [0, 1, 2]
        assert ls.symbol_of(2) == "V"

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            LabelSet(("N", "N"))

    @pytest.mark.parametrize("symbols", [(), ("",), ("N", "", "V")])
    def test_rejects_empty_symbols(self, symbols):
        with pytest.raises(ValidationError, match="unique and non-empty"):
            LabelSet(symbols)

    def test_at_most_max_classes_symbols(self):
        symbols = tuple(f"c{i}" for i in range(MAX_CLASSES + 1))
        assert len(LabelSet(symbols[:-1])) == MAX_CLASSES
        with pytest.raises(ValidationError, match=f"at most {MAX_CLASSES} label symbols, got 65"):
            LabelSet(symbols)


class TestFeatureMatrix:
    def test_single_zero_row_round_trip(self, tmp_path):
        path = tmp_path / "f.csv"
        save_feature_matrix(np.zeros((1, 76)), [0], path)
        rows, labels = load_feature_matrix(path)
        assert rows.shape == (1, 76)
        assert np.array_equal(rows, np.zeros((1, 76)))
        assert labels.tolist() == [0]

    def test_order_preserved(self, tmp_path):
        path = tmp_path / "f.csv"
        data = np.array([[1.0] * 76, [2.0] * 76])
        save_feature_matrix(data, [0, 2], path)
        rows, labels = load_feature_matrix(path)
        assert labels.tolist() == [0, 2]
        assert rows[0, 0] == 1.0 and rows[1, 0] == 2.0

    def test_nine_digit_round_trip(self, tmp_path):
        path = tmp_path / "f.csv"
        rng = np.random.default_rng(7)
        data = rng.uniform(-1, 1, size=(1000, 76))
        # 10 significant digits; rounds to -1.23456789, error exactly 1e-9
        data[0, 0] = -1.234567891
        labels = rng.integers(0, 3, size=1000)
        save_feature_matrix(data, labels, path)
        rows, loaded_labels = load_feature_matrix(path)
        assert np.max(np.abs(rows - data)) <= 1e-9 * (1 + 1e-6)
        assert np.max(np.abs(rows[1:] - data[1:])) < 1e-9
        assert np.array_equal(loaded_labels, labels)

    def test_load_save_load_fixpoint(self, tmp_path):
        rng = np.random.default_rng(3)
        data = rng.uniform(-1, 1, size=(20, 10))
        labels = rng.integers(0, 3, size=20)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_feature_matrix(data, labels, p1)
        rows1, labels1 = load_feature_matrix(p1)
        save_feature_matrix(rows1, labels1, p2)
        rows2, labels2 = load_feature_matrix(p2)
        assert np.array_equal(rows1, rows2)  # second pass is exact
        assert np.array_equal(labels1, labels2)

    def test_dimension_mismatch_writes_nothing(self, tmp_path):
        path = tmp_path / "f.csv"
        with pytest.raises(ValidationError):
            save_feature_matrix(np.zeros((2, 76)), [0], path)
        assert not path.exists()


class TestImageExport:
    def test_f32_size_for_zero_image(self, tmp_path):
        stem = tmp_path / "img"
        export_image(random_image(), stem)
        assert (tmp_path / "img.f32").stat().st_size == 3 * 32 * 32 * 4  # 12288

    def test_constant_channel_maps_to_255(self, tmp_path):
        img = random_image()
        img[0] = 1.0
        export_image(img, tmp_path / "img")
        pgm = read_pgm(tmp_path / "img_gasf.pgm")
        assert np.all(pgm == 255)

    def test_pgm_linear_mapping(self, tmp_path):
        img = random_image()
        img[1, 0, 0] = 1.0
        img[1, 0, 1] = 0.5
        export_image(img, tmp_path / "img")
        pgm = read_pgm(tmp_path / "img_mtf.pgm")
        assert pgm[0, 0] == 255 and pgm[0, 1] == 128 and pgm[1, 1] == 0

    def test_f32_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        for i in range(100):
            img = random_image(rng)
            stem = tmp_path / f"img{i}"
            export_image(img, stem)
            loaded = load_image_f32(f"{stem}.f32")
            assert np.array_equal(loaded, img.astype("<f4"))

    def test_wrong_shape_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_image(np.zeros((3, 16, 32)), tmp_path / "img")

    @pytest.mark.parametrize("header", [
        b"P5\nx y\n255\n",      # a size that is no number
        b"P5\n32\n255\n",       # one number where two belong
        b"P5\n-2 -3\n255\n",    # a negative size
        b"P5\n2 3\n",           # no maxval line
        b"P5\n4294967296 4294967296\n255\n",    # a size no buffer can hold
    ])
    def test_malformed_pgm_header_refused(self, tmp_path, header):
        path = tmp_path / "img.pgm"
        path.write_bytes(header + bytes(6))
        with pytest.raises(DataError, match="PGM"):
            read_pgm(path)

    @pytest.mark.parametrize("header", [
        # int() reads digit separators; the header reader does not, though the
        # pixel count matches the size int() would read
        b"P5\n2 1_0\n255\n",
        b"P5\n2 10\n2_55\n",
        "P5\n2 ١٠\n255\n".encode(),    # non-ASCII digits, as UTF-8
    ])
    def test_pgm_header_numerals_int_reads_are_refused(self, tmp_path, header):
        path = tmp_path / "img.pgm"
        path.write_bytes(header + bytes(20))
        with pytest.raises(DataError, match="malformed PGM header"):
            read_pgm(path)

    def test_truncated_f32_rejected(self, tmp_path):
        path = tmp_path / "img.f32"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(DataError):
            load_image_f32(path)


class TestEcgRecordInvariants:
    @pytest.mark.parametrize("fs", [np.nan, np.inf, 0.0, True])
    def test_fs_must_be_finite_and_positive(self, fs):
        # fs = nan used to give record_hrv (nan, nan, nan), and fs = inf zeros
        with pytest.raises(ValidationError, match="fs must be a finite number > 0"):
            EcgRecord(signal=np.zeros(5), fs=fs, rpeaks=np.array([1]), labels=["N"])

    def test_too_many_leads(self):
        with pytest.raises(ValidationError, match="expected a 1-D signal"):
            EcgRecord(signal=np.zeros((5, 2)), fs=250.0,
                      rpeaks=np.array([1]), labels=["N"])

    def test_label_count_mismatch(self):
        with pytest.raises(ValidationError):
            EcgRecord(signal=np.zeros(5), fs=250.0,
                      rpeaks=np.array([1, 3]), labels=["N"])
