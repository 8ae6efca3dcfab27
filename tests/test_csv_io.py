"""The numeric CSV reader and writer against the per-value ``csv`` loops they
replaced, which live on here only as oracles.

Written files must be byte-identical to the oracle writers' files, read
arrays bit-equal to the oracle readers' arrays, and a malformed file must
fail on the line the oracle names.
"""

import csv
import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ecgbeats import cli
from ecgbeats.errors import DataError, ParseError
from ecgbeats.record_io import (BEAT_LEN, BEATS_HEADER, FLOAT_FMT, Beats,
                                load_feature_matrix, read_beats_csv, read_signal_csv,
                                save_feature_matrix, write_annotations_csv, write_beats_csv,
                                write_signal_csv)

# ---------------------------------------------------------------------------
# oracles: the csv-module readers and writers the new I/O replaced
# ---------------------------------------------------------------------------


def oracle_read_signal_csv(path):
    rows = []
    width = None
    with open(path, newline="") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            try:
                values = [float(v) for v in row]
            except ValueError:
                raise ParseError(path, line_no, f"non-numeric sample row {row!r}")
            if width is None:
                width = len(values)
                if not 1 <= width <= 2:
                    raise ParseError(path, line_no, f"expected 1-2 columns, got {width}")
            elif len(values) != width:
                raise ParseError(path, line_no, f"expected {width} columns, got {len(values)}")
            rows.append(values)
    if not rows:
        raise DataError(f"{path}: empty signal file")
    return np.asarray(rows)


def oracle_write_signal_csv(path, samples):
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in samples:
            writer.writerow([FLOAT_FMT % v for v in row])


def oracle_save_feature_matrix(rows, labels, path):
    rows = np.asarray(rows, dtype=float)
    labels = np.asarray(labels, dtype=int)
    header = [f"f{i}" for i in range(rows.shape[1])] + ["label"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row, label in zip(rows, labels):
            writer.writerow([FLOAT_FMT % v for v in row] + [int(label)])


def oracle_load_feature_matrix(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[-1] != "label" or not header[0].startswith("f"):
            raise ParseError(path, 1, "expected header 'f0..fN,label'")
        dim = len(header) - 1
        rows, labels = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dim + 1:
                raise ParseError(path, line_no, f"expected {dim + 1} columns, got {len(row)}")
            try:
                rows.append([float(v) for v in row[:dim]])
                labels.append(int(row[dim]))
            except ValueError:
                raise ParseError(path, line_no, "non-numeric value")
    return np.asarray(rows, dtype=float).reshape(len(rows), dim), np.asarray(labels, dtype=int)


def oracle_write_beats_csv(path, beats):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BEATS_HEADER)
        for i in range(len(beats)):
            writer.writerow([FLOAT_FMT % v for v in beats.samples[i]]
                            + [int(beats.rpeak[i]), int(beats.label[i]),
                               FLOAT_FMT % beats.rr_prev[i], FLOAT_FMT % beats.rr_next[i],
                               FLOAT_FMT % beats.raw_amp[i]])


def oracle_read_beats_csv(path):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != BEATS_HEADER:
            raise ParseError(path, 1, "not a beats file (bad header)")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(BEATS_HEADER):
                raise ParseError(path, line_no, f"expected {len(BEATS_HEADER)} columns")
            rows.append(([float(v) for v in row[:BEAT_LEN]], int(row[BEAT_LEN]),
                         int(row[BEAT_LEN + 1]), float(row[BEAT_LEN + 2]),
                         float(row[BEAT_LEN + 3]), float(row[BEAT_LEN + 4])))
    return beats_of(rows)


def beats_of(rows):
    """A Beats from (samples, rpeak, label, rr_prev, rr_next, raw_amp) tuples."""
    samples, rpeak, label, rr_prev, rr_next, raw_amp = zip(*rows) if rows else [[]] * 6
    return Beats(samples=np.reshape(samples, (len(rows), BEAT_LEN)),
                 rpeak=np.array(rpeak, dtype=int), label=np.array(label, dtype=int),
                 rr_prev=np.array(rr_prev, dtype=float), rr_next=np.array(rr_next, dtype=float),
                 raw_amp=np.array(raw_amp, dtype=float))


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e300,
               1.7976931348623157e308, 123456789.0, 1234567891.0, 0.1, -1.5]

finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-290, max_value=1e-290, allow_nan=False),   # subnormal side
    st.sampled_from(EDGE_VALUES),
    st.integers(-10**12, 10**12).map(float),
)
FS = settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def parse_line(fn, path):
    """The line number fn's ParseError names, or None when fn returns."""
    try:
        fn(path)
    except ParseError as exc:
        return exc.line_no
    return None


# ---------------------------------------------------------------------------
# round trips against the oracles
# ---------------------------------------------------------------------------

@FS
@given(data=st.integers(1, 40).flatmap(
    lambda n: st.integers(1, 2).flatmap(lambda w: arrays(float, (n, w), elements=finite))))
def test_signal_bytes_and_bits_match_oracle(tmp_path, data):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_signal_csv(new, data)
    oracle_write_signal_csv(old, data)
    assert new.read_bytes() == old.read_bytes()
    assert np.array_equal(bits(read_signal_csv(old)), bits(oracle_read_signal_csv(old)))


@FS
@given(samples=arrays(float, st.integers(1, 30), elements=finite))
def test_one_dimensional_signal_written_as_one_column(tmp_path, samples):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_signal_csv(new, samples)
    oracle_write_signal_csv(old, samples)
    assert new.read_bytes() == old.read_bytes()


@FS
@given(rows=st.integers(0, 12).flatmap(
           lambda n: st.sampled_from([1, 2, 76]).flatmap(
               lambda d: arrays(float, (n, d), elements=finite))),
       seed=st.integers(0, 2**32 - 1))
def test_feature_bytes_and_bits_match_oracle(tmp_path, rows, seed):
    labels = np.random.default_rng(seed).integers(-2**52, 2**52, size=rows.shape[0])
    labels[::2] %= 3
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    save_feature_matrix(rows, labels, new)
    oracle_save_feature_matrix(rows, labels, old)
    assert new.read_bytes() == old.read_bytes()
    got_rows, got_labels = load_feature_matrix(old)
    want_rows, want_labels = oracle_load_feature_matrix(old)
    assert got_rows.shape == want_rows.shape
    assert np.array_equal(bits(got_rows), bits(want_rows))
    assert got_labels.dtype == want_labels.dtype
    assert np.array_equal(got_labels, want_labels)


beats_strategy = st.lists(
    st.tuples(arrays(float, BEAT_LEN, elements=finite), st.integers(0, 10**9),
              st.integers(0, 2), finite, finite, finite),
    max_size=6)


@FS
@given(specs=beats_strategy)
def test_beats_bytes_and_fields_match_oracle(tmp_path, specs):
    beats = beats_of(specs)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_beats_csv(new, beats)
    oracle_write_beats_csv(old, beats)
    assert new.read_bytes() == old.read_bytes()
    got, want = read_beats_csv(old), oracle_read_beats_csv(old)
    assert len(got) == len(want)
    assert np.array_equal(bits(got.samples), bits(want.samples))
    assert np.array_equal(got.rpeak, want.rpeak) and np.array_equal(got.label, want.label)
    assert got.rpeak.dtype.kind == "i" and got.label.dtype.kind == "i"
    for name in ("rr_prev", "rr_next", "raw_amp"):
        assert bits(getattr(got, name)).tolist() == bits(getattr(want, name)).tolist()


def oracle_write_annotations_csv(path, rpeaks, labels):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_index", "label"])
        for idx, sym in zip(rpeaks, labels):
            writer.writerow([int(idx), sym])


@pytest.mark.parametrize("rpeaks", [np.array([3, 90, 2**40]), [3, 90, 2**40],
                                    np.array([3.0, 90.7, 1e12]), []])
def test_annotations_bytes_match_oracle(tmp_path, rpeaks):
    labels = ["N", "S, V", "V"][:len(rpeaks)]
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_annotations_csv(new, rpeaks, labels)
    oracle_write_annotations_csv(old, rpeaks, labels)
    assert new.read_bytes() == old.read_bytes()


def test_rows_written_in_several_chunks(tmp_path):
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(300, 5))     # 128 + 128 + 44 rows
    labels = rng.integers(0, 3, size=300)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    save_feature_matrix(rows, labels, new)
    oracle_save_feature_matrix(rows, labels, old)
    assert new.read_bytes() == old.read_bytes()
    assert new.read_bytes().count(b"\r\n") == 301


def test_lone_cr_and_lf_line_ends_read_like_oracle(tmp_path):
    for text in ("1.5\n2.5\n", "1.5\r2.5\r", "1.5\r\n\r\n2.5"):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        assert np.array_equal(read_signal_csv(path), oracle_read_signal_csv(path))


# ---------------------------------------------------------------------------
# malformed files fail on the oracle's line
# ---------------------------------------------------------------------------

FEATURE_HEADER = "f0,f1,label\r\n"


@pytest.mark.parametrize("text", [
    "0.5\r\nabc\r\n1\r\n",               # bad token
    "0.5,1\r\n1,2\r\n3\r\n",             # ragged row
    "0.5\r\n\r\n\r\n1,x\r\n",            # blank lines before the bad line
    "\r\n\r\n1,2,3\r\n",                 # three leads on the first row
    "1\r\n2,\r\n",                       # trailing comma
    "1\r\n   \r\n",                      # whitespace-only line
    "1\r\n# a comment\r\n",
])
def test_signal_error_line_matches_oracle(tmp_path, text):
    path = tmp_path / "s.csv"
    path.write_text(text, newline="")
    want = parse_line(oracle_read_signal_csv, path)
    assert want is not None
    assert parse_line(read_signal_csv, path) == want


@pytest.mark.parametrize("token", ['"1.0"', "1_000", "\u0661"])
def test_numerals_numpy_rejects_name_their_line(tmp_path, token):
    # the oracle took these (csv.reader unquotes, float() reads underscores and
    # non-ASCII digits); numpy's parser does not, and no writer makes them
    path = tmp_path / "s.csv"
    path.write_text(f"0.5\r\n\r\n{token}\r\n", encoding="utf-8", newline="")
    assert parse_line(read_signal_csv, path) == 3


@pytest.mark.parametrize("text", ["", "\r\n\r\n"])
def test_empty_signal_is_data_error(tmp_path, text):
    path = tmp_path / "s.csv"
    path.write_text(text, newline="")
    for reader in (read_signal_csv, oracle_read_signal_csv):
        with pytest.raises(DataError, match="empty signal file"):
            reader(path)


@pytest.mark.parametrize("text", [
    FEATURE_HEADER + "1,2,0\r\n1,x,0\r\n",       # bad token
    FEATURE_HEADER + "1,2,0\r\n1,2\r\n",         # ragged row
    FEATURE_HEADER + "\r\n\r\n1,2,0\r\n1,2,0,4\r\n",
    FEATURE_HEADER + "1,2,0\r\n3,4,1.5\r\n",     # a label of 1.5
    FEATURE_HEADER + "1,2,zero\r\n",
    "g0,f1,label\r\n1,2,0\r\n",                  # wrong header
    "f0,f1,lbl\r\n1,2,0\r\n",
    "",                                          # empty file
])
def test_feature_error_line_matches_oracle(tmp_path, text):
    path = tmp_path / "f.csv"
    path.write_text(text, newline="")
    want = parse_line(oracle_load_feature_matrix, path)
    assert want is not None
    assert parse_line(load_feature_matrix, path) == want


def test_feature_blank_first_line_is_header_error(tmp_path):
    # the oracle fails here with an IndexError, not a ParseError
    path = tmp_path / "f.csv"
    path.write_text("\r\n" + FEATURE_HEADER, newline="")
    assert parse_line(load_feature_matrix, path) == 1


def test_header_only_feature_file_matches_oracle(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text(FEATURE_HEADER, newline="")
    rows, labels = load_feature_matrix(path)
    want_rows, want_labels = oracle_load_feature_matrix(path)
    assert rows.shape == want_rows.shape == (0, 2)
    assert labels.shape == want_labels.shape == (0,)


BEATS_HEADER_LINE = ",".join(BEATS_HEADER) + "\r\n"
GOOD_BEAT = ",".join(["0.5"] * BEAT_LEN + ["100", "1", "0.8", "0.8", "0.2"]) + "\r\n"


@pytest.mark.parametrize("text", [
    "",
    BEATS_HEADER_LINE.replace("s0,", "t0,"),
    BEATS_HEADER_LINE + GOOD_BEAT + "\r\n" + GOOD_BEAT.replace("0.8,0.8,", "0.8,"),
])
def test_beats_error_line_matches_oracle(tmp_path, text):
    path = tmp_path / "b.csv"
    path.write_text(text, newline="")
    want = parse_line(oracle_read_beats_csv, path)
    assert want is not None
    assert parse_line(read_beats_csv, path) == want


@pytest.mark.parametrize("text, line", [
    (BEATS_HEADER_LINE + GOOD_BEAT + "\r\n" + GOOD_BEAT.replace(",100,", ",1e2.5,"), 4),
    (BEATS_HEADER_LINE + GOOD_BEAT.replace(",100,1,", ",100,1.5,"), 2),      # a label of 1.5
    (BEATS_HEADER_LINE + GOOD_BEAT + GOOD_BEAT.replace(",100,", ",99.5,"), 3),
    (BEATS_HEADER_LINE + GOOD_BEAT.replace("0.5,", "x,", 1), 2),
])
def test_beats_bad_value_names_its_line(tmp_path, text, line):
    # the oracle let these escape as a bare ValueError, with no line
    path = tmp_path / "b.csv"
    path.write_text(text, newline="")
    with pytest.raises(ValueError):
        oracle_read_beats_csv(path)
    assert parse_line(read_beats_csv, path) == line


SIGNAL_TOKENS = ["0.5", "-1e-3", "7", " 2 ", "x", "", "1.5e+300"]
LABEL_TOKENS = ["0", "2", " 1", "1.5", "y", ""]


@FS
@given(lines=st.lists(st.one_of(
    st.just(""),
    st.lists(st.sampled_from(SIGNAL_TOKENS), min_size=1, max_size=3).map(",".join)),
    max_size=8))
def test_signal_fuzz_agrees_with_oracle(tmp_path, lines):
    path = tmp_path / "s.csv"
    path.write_text("".join(line + "\r\n" for line in lines), newline="")
    try:
        want = oracle_read_signal_csv(path)
    except ParseError as exc:
        assert parse_line(read_signal_csv, path) == exc.line_no
    except DataError:
        with pytest.raises(DataError, match="empty"):
            read_signal_csv(path)
    else:
        assert np.array_equal(bits(read_signal_csv(path)), bits(want))


@FS
@given(lines=st.lists(st.one_of(
    st.just(""),
    st.tuples(st.lists(st.sampled_from(SIGNAL_TOKENS), min_size=1, max_size=3),
              st.sampled_from(LABEL_TOKENS)).map(lambda t: ",".join(t[0] + [t[1]]))),
    max_size=8))
def test_feature_fuzz_agrees_with_oracle(tmp_path, lines):
    path = tmp_path / "f.csv"
    path.write_text(FEATURE_HEADER + "".join(line + "\r\n" for line in lines), newline="")
    try:
        want_rows, want_labels = oracle_load_feature_matrix(path)
    except ParseError as exc:
        assert parse_line(load_feature_matrix, path) == exc.line_no
    else:
        rows, labels = load_feature_matrix(path)
        assert np.array_equal(bits(rows), bits(want_rows))
        assert np.array_equal(labels, want_labels)


# ---------------------------------------------------------------------------
# non-finite values are rejected on their line
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e400"])
def test_signal_non_finite_rejected(tmp_path, token):
    path = tmp_path / "s.csv"
    path.write_text(f"0.5\n\n0.25\n{token}\n0.1\nnan\n")
    with pytest.raises(ParseError, match=":4: non-finite"):
        read_signal_csv(path)


def test_feature_non_finite_rejected(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text(FEATURE_HEADER + "1,2,0\n3,NaN,1\n")
    with pytest.raises(ParseError, match=":3: non-finite"):
        load_feature_matrix(path)


def test_beats_non_finite_rejected(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text(BEATS_HEADER_LINE + GOOD_BEAT + GOOD_BEAT.replace(",0.2\r\n", ",inf\r\n"))
    with pytest.raises(ParseError, match=":3: non-finite"):
        read_beats_csv(path)


# ---------------------------------------------------------------------------
# artifacts pinned from the csv-module writers
# ---------------------------------------------------------------------------

# SHA-256 of the files the per-value csv writers produced for this pipeline
PINNED_SHA256 = {
    "signal.csv": "a74a3caa21d59152019595cc7b8138f16e0836d09e656d8c9f1725f96289665b",
    "beats.csv": "4796085270acd4186df1838fdacdb491fa9bf7faf34248bb20c184f0209e2eca",
    "features_train.csv": "358274d148ef1a3259a9c3c6a098548044c1830d48501f2c3bb56487ac57504b",
    "balanced.csv": "3a932eac66523db5f40738c9785e4fa075601e361de11535bb34330186c6d15d",
}


def test_pipeline_artifacts_pinned(tmp_path):
    def run(*argv):
        assert cli.main([str(a) for a in argv]) == 0

    run("synth", "--out-dir", tmp_path, "--n-beats", 40, "--noise-std", "0.05",
        "--seed", 11)
    run("preprocess", "--signal", tmp_path / "signal.csv",
        "--annotations", tmp_path / "annotations.csv", "--fs", 250, "--out-dir", tmp_path)
    run("featurize", "--beats", tmp_path / "beats.csv", "--out", tmp_path / "features.csv",
        "--test-fraction", "0.25", "--split-seed", 3)
    run("balance", "--features", tmp_path / "features_train.csv",
        "--out", tmp_path / "balanced.csv", "--targets", "N=70,S=50,V=60", "--seed", 5)
    assert {name: sha256(tmp_path / name) for name in PINNED_SHA256} == PINNED_SHA256
