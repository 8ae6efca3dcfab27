"""Disk formats (signal/annotation CSVs, feature matrices, raw images) and the
in-memory ``EcgRecord`` (one 1-D signal) and ``Beats``.

Formats are deliberately plain so every artifact can be inspected with a
text editor or `xxd`:

* signal CSV      -- no header, one row per sample, 1-2 numeric columns (mV);
  ``load_record`` takes one column, ``lead_select``, as the record's signal
* annotation CSV  -- header ``sample_index,label``, an ASCII decimal index;
  every row is an R-peak, whatever its label
* feature CSV     -- header ``f0..f75,label``, 9 significant digits
* beats CSV       -- header ``s0..s69,rpeak,label,rr_prev,rr_next,raw_amp``,
  one row per beat of a ``Beats``
* image ``.f32``  -- raw little-endian float32, channel-major, 3*32*32 values
* image ``.pgm``  -- binary 8-bit P5, one file per channel

The signal, feature and beats files end lines with ``\\r\\n``; their readers
reject non-finite values and name the offending line.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParseError, ValidationError, is_int, real_above, validate

FLOAT_FMT = "%.9g"  # 9 significant digits everywhere we write decimals
VALUE_CHUNK = 128 * 77   # values formatted per call by write_numeric_csv
MAX_WHOLE = 2.0 ** 53   # integer columns must be exact in float64
BEAT_LEN = 70       # samples per beat
MAX_CLASSES = 64    # label symbols, so classes per model: room for every MIT-BIH beat symbol


@dataclass(frozen=True)
class LabelSet:
    """Ordered set of admitted class symbols; position = class id."""

    symbols: tuple = ("N", "S", "V")

    def __post_init__(self):
        # all(()) is True, so the empty tuple needs its own test
        if (not self.symbols or not all(self.symbols)
                or len(set(self.symbols)) != len(self.symbols)):
            raise ValidationError("label symbols must be unique and non-empty")
        if len(self.symbols) > MAX_CLASSES:
            raise ValidationError(
                f"at most {MAX_CLASSES} label symbols, got {len(self.symbols)}")

    def __len__(self):
        return len(self.symbols)

    def __contains__(self, symbol):
        return symbol in self.symbols

    def id_of(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise ValidationError(f"unknown label symbol {symbol!r}") from None

    def symbol_of(self, class_id: int) -> str:
        return self.symbols[class_id]


@dataclass
class EcgRecord:
    """One raw ECG signal with R-peak positions and one label per peak."""

    signal: np.ndarray   # 1-D float samples, mV
    fs: float            # sampling rate, Hz
    rpeaks: np.ndarray   # increasing sample indices, no repeats
    labels: list         # one symbol per R-peak

    def __post_init__(self):
        self.signal = np.asarray(self.signal, dtype=float)
        self.rpeaks = np.asarray(self.rpeaks, dtype=int)
        if self.signal.ndim != 1:
            raise ValidationError(f"expected a 1-D signal, got shape {self.signal.shape}")
        validate([real_above("fs", self.fs, 0)])
        if len(self.labels) != len(self.rpeaks):
            raise ValidationError(
                f"{len(self.labels)} labels for {len(self.rpeaks)} R-peaks"
            )
        if len(self.rpeaks) and (self.rpeaks[0] < 0 or self.rpeaks[-1] >= self.signal.shape[0]):
            raise ValidationError("R-peak index outside the signal")
        if np.any(np.diff(self.rpeaks) <= 0):
            raise ValidationError("R-peak indices must be strictly increasing")

    @property
    def leads(self) -> list:
        """``[signal]`` for its one reader, ``set_up`` in ``perfbench/run.py``.
        ROADMAP item 1 deletes it when ``set_up`` moves onto a ``record_io`` helper."""
        return [self.signal]


@dataclass
class Beats:
    """Segmented beats as parallel arrays, one row or entry per beat.

    ``samples`` holds each beat's 70 in-window values (filtered mV after
    segmentation, [-1, 1] after normalize_beats). ``raw_amp`` is the beat's
    mean absolute filtered amplitude, captured at segmentation time so
    normalization cannot erase it.
    """

    samples: np.ndarray   # (n, 70) float
    rpeak: np.ndarray     # (n,) int, R-peak sample index
    label: np.ndarray     # (n,) int, class id
    rr_prev: np.ndarray   # (n,) float, seconds
    rr_next: np.ndarray   # (n,) float, seconds
    raw_amp: np.ndarray   # (n,) float

    def __post_init__(self):
        if self.samples.ndim != 2 or self.samples.shape[1] != BEAT_LEN:
            raise ValidationError(f"expected (n, {BEAT_LEN}) samples, got {self.samples.shape}")

    def __len__(self):
        return self.samples.shape[0]


# ---------------------------------------------------------------------------
# numeric CSVs: the signal, feature and beats files
# ---------------------------------------------------------------------------

def write_numeric_csv(path, data, header=None, int_cols=()) -> None:
    """Write a 2-D array as comma-separated rows with ``\\r\\n`` line ends.

    Values use FLOAT_FMT, except the ``int_cols`` columns, which use ``%d``.
    Each chunk of about VALUE_CHUNK values, in whole rows, is one ``%`` on
    the row template repeated over the chunk, so memory stays bounded by
    the chunk whatever the width.
    """
    data = np.asarray(data, dtype=float)
    fields = [FLOAT_FMT] * data.shape[1]
    for col in int_cols:
        fields[col] = "%d"
    row = ",".join(fields) + "\r\n"
    rows = max(1, VALUE_CHUNK // max(1, data.shape[1]))
    full = row * rows
    with open(path, "w", newline="") as fh:
        if header is not None:
            fh.write(",".join(header) + "\r\n")
        for start in range(0, data.shape[0], rows):
            chunk = data[start:start + rows]
            template = full if chunk.shape[0] == rows else row * chunk.shape[0]
            fh.write(template % tuple(chunk.ravel().tolist()))


def read_numeric_csv(path, header=None, widths=None, int_cols=()):
    """Read a numeric CSV into a float64 ``(rows, columns)`` array.

    ``header`` is None for a headerless file; otherwise it maps the first
    line's fields to an error message, or to None when they form a valid
    header. ``widths`` holds the admitted column counts (default: the
    header's field count); every row has the first row's count. Blank lines
    are ignored. Every value must be finite, and every ``int_cols`` value a
    whole number below 2**53 in magnitude.

    numpy's C parser reads the whole file. Only when it, or a check on the
    array, fails is the file scanned line by line, to name the first
    offending line in a ParseError.
    """
    fields = None
    if header is not None:
        with open(path, errors="replace") as fh:
            fields = fh.readline().rstrip("\r\n").split(",")
        problem = header(fields)
        if problem:
            raise ParseError(path, 1, problem)
        widths = widths or (len(fields),)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # no data rows
            data = np.loadtxt(path, delimiter=",", comments=None, ndmin=2,
                              skiprows=int(fields is not None))
    except ValueError as exc:   # a bad token, a ragged row or undecodable bytes
        _raise_first_bad_line(path, fields is not None, widths, int_cols)
        raise DataError(f"{path}: {exc}") from None
    if data.shape[0] == 0:
        return np.empty((0, min(widths)))
    whole = data[:, list(int_cols)]
    if (data.shape[1] not in widths or not np.isfinite(data).all()
            or not np.all((whole == np.trunc(whole)) & (np.abs(whole) < MAX_WHOLE))):
        _raise_first_bad_line(path, fields is not None, widths, int_cols)
        raise DataError(f"{path}: rejected by the array checks but no line was at fault")
    return data


def line_of_row(path, row: int) -> int:
    """File line number (from 1) of data row ``row`` of a CSV with a header
    line, counted as read_numeric_csv counts rows (blank lines ignored)."""
    with open(path, errors="replace") as fh:
        lines = (n for n, line in enumerate(fh, start=1) if n > 1 and line.rstrip("\r\n"))
        return next(itertools.islice(lines, row, None))


def _raise_first_bad_line(path, has_header, widths, int_cols) -> None:
    """Raise ParseError at the first line that read_numeric_csv rejects.

    Reports errors only: it returns None when every line is valid.
    """
    width = None
    with open(path, errors="replace") as fh:
        if has_header:
            fh.readline()
        for line_no, line in enumerate(fh, start=1 + has_header):
            tokens = line.rstrip("\r\n").split(",")
            if tokens == [""]:
                continue
            if width is None:
                if len(tokens) not in widths:
                    raise ParseError(path, line_no, f"expected {'/'.join(map(str, widths))} "
                                                    f"columns, got {len(tokens)}")
                width = len(tokens)
                whole_cols = {col % width for col in int_cols}
            elif len(tokens) != width:
                raise ParseError(path, line_no, f"expected {width} columns, got {len(tokens)}")
            for col, token in enumerate(tokens):
                value = parse_number(token)
                if value is None:
                    raise ParseError(path, line_no, f"non-numeric value {token!r}")
                if not math.isfinite(value):
                    raise ParseError(path, line_no, f"non-finite value {token!r}")
                if col in whole_cols and not (value.is_integer() and abs(value) < MAX_WHOLE):
                    raise ParseError(path, line_no, f"non-integer value {token!r}")


def parse_number(token: str, kind=float):
    """``kind(token)`` for the plain ASCII numerals numpy's parser takes, else None
    (``int`` and ``float`` alone also read ``_`` separators and non-ASCII digits)."""
    if not token.isascii() or "_" in token:
        return None
    try:
        return kind(token)
    except ValueError:
        return None


def write_table(path, header, rows) -> None:
    """Write ``rows``, after ``header`` unless it is None, as CSV in the csv
    module's default dialect: minimal quoting and ``\\r\\n`` line ends."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


def csv_rows(path):
    """Yield ``(line_no, fields)`` for each row of a UTF-8 CSV file; a blank
    line is an empty row. An undecodable byte, or a row the csv module refuses
    (a field over its size limit), is a ParseError at its line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(path, raw.count(b"\n", 0, exc.start) + 1,
                         f"undecodable byte {raw[exc.start]:#04x}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(path, reader.line_num, str(exc)) from None
        yield reader.line_num, row


# ---------------------------------------------------------------------------
# signal + annotation CSVs
# ---------------------------------------------------------------------------

def read_signal_csv(path) -> np.ndarray:
    """Read a headerless numeric CSV into an (n_samples, n_columns) array."""
    samples = read_numeric_csv(path, widths=range(1, 3))
    if samples.shape[0] == 0:
        raise DataError(f"{path}: empty signal file")
    return samples


def read_annotations_csv(path) -> list:
    """Read ``sample_index,label`` rows; returns [(index, symbol), ...] unsorted."""
    out = []
    rows = csv_rows(path)
    _, header = next(rows, (1, []))
    if [h.strip() for h in header[:2]] != ["sample_index", "label"]:
        raise ParseError(path, 1, "expected header 'sample_index,label'")
    for line_no, row in rows:
        if not row:
            continue
        if len(row) < 2:
            raise ParseError(path, line_no, f"expected 2 columns, got {len(row)}")
        idx = parse_number(row[0], int)
        if idx is None:
            raise ParseError(path, line_no, f"non-integer sample index {row[0]!r}")
        if not -2**63 <= idx < 2**63:
            raise ParseError(path, line_no, f"sample index {row[0]!r} outside int64")
        out.append((idx, row[1].strip()))
    return out


def write_signal_csv(path, samples: np.ndarray) -> None:
    samples = np.asarray(samples, dtype=float)
    write_numeric_csv(path, samples[:, None] if samples.ndim == 1 else samples)


def write_annotations_csv(path, rpeaks, labels) -> None:
    write_table(path, ["sample_index", "label"],
                zip(np.asarray(rpeaks, dtype=int).tolist(), labels))


def load_record(signal_path, annotation_path, fs: float, lead_select: int = 0) -> EcgRecord:
    """Load a record from a signal CSV plus an annotation CSV.

    Every annotation row is an R-peak, whatever its label; they are sorted by
    sample index. ``segment_beats`` decides which labels become beats.
    """
    samples = read_signal_csv(signal_path)
    annotations = sorted(read_annotations_csv(annotation_path), key=lambda a: a[0])
    if not (is_int(lead_select) and 0 <= lead_select < samples.shape[1]):
        raise ValidationError(
            f"lead {lead_select!r} not available ({samples.shape[1]} columns)"
        )
    # a copy of the column when there are two, so the other is not kept alive
    return EcgRecord(signal=np.ascontiguousarray(samples[:, lead_select]), fs=fs,
                     rpeaks=np.asarray([idx for idx, _ in annotations], dtype=int),
                     labels=[sym for _, sym in annotations])


# ---------------------------------------------------------------------------
# beats
# ---------------------------------------------------------------------------

BEATS_HEADER = [f"s{i}" for i in range(BEAT_LEN)] + [
    "rpeak", "label", "rr_prev", "rr_next", "raw_amp"]
BEATS_INT_COLS = (BEAT_LEN, BEAT_LEN + 1)   # rpeak, label


def write_beats_csv(path, beats: Beats) -> None:
    data = np.column_stack([beats.samples, beats.rpeak, beats.label, beats.rr_prev,
                            beats.rr_next, beats.raw_amp])
    write_numeric_csv(path, data, BEATS_HEADER, int_cols=BEATS_INT_COLS)


def _beats_header_problem(fields):
    return None if fields == BEATS_HEADER else "not a beats file (bad header)"


def read_beats_csv(path) -> Beats:
    data = read_numeric_csv(path, header=_beats_header_problem, int_cols=BEATS_INT_COLS)
    rpeak, label = data[:, BEAT_LEN:BEAT_LEN + 2].astype(int).T
    rr_prev, rr_next, raw_amp = data[:, BEAT_LEN + 2:].T
    return Beats(samples=data[:, :BEAT_LEN], rpeak=rpeak, label=label,
                 rr_prev=rr_prev, rr_next=rr_next, raw_amp=raw_amp)


# ---------------------------------------------------------------------------
# feature matrices
# ---------------------------------------------------------------------------

def save_feature_matrix(rows, labels, path) -> None:
    """Write rows + integer labels as CSV with header ``f0..f<d-1>,label``."""
    rows = np.asarray(rows, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if rows.ndim != 2:
        raise ValidationError(f"expected a 2-D feature matrix, got ndim={rows.ndim}")
    if rows.shape[0] != labels.shape[0]:
        raise ValidationError(
            f"{rows.shape[0]} rows but {labels.shape[0]} labels"
        )
    header = [f"f{i}" for i in range(rows.shape[1])] + ["label"]
    write_numeric_csv(path, np.column_stack([rows, labels]), header, int_cols=(-1,))


def _feature_header_problem(fields):
    if fields[-1] != "label" or not fields[0].startswith("f"):
        return "expected header 'f0..fN,label'"
    return None


def load_feature_matrix(path):
    """Inverse of save_feature_matrix; returns (rows, labels)."""
    data = read_numeric_csv(path, header=_feature_header_problem, int_cols=(-1,))
    return np.ascontiguousarray(data[:, :-1]), data[:, -1].astype(int)


# ---------------------------------------------------------------------------
# images
# ---------------------------------------------------------------------------

_CHANNEL_NAMES = ("gasf", "mtf", "rp")


def export_image(image, stem) -> None:
    """Write one beat image, a ``(3, 32, 32)`` array such as one entry of
    ``encode_beat``'s output, as ``<stem>.f32`` plus three 8-bit PGMs.

    The .f32 file is the raw float32 channel stack (channel-major, C order,
    little endian). Each PGM maps its own float32 channel's min/max linearly
    onto 0..255; a constant channel maps to 255 by convention.
    """
    stack = np.asarray(image, dtype="<f4")
    if stack.ndim != 3 or stack.shape[0] != 3 or stack.shape[1] != stack.shape[2]:
        raise ValidationError(f"expected 3 square channels, got shape {stack.shape}")
    stem = str(stem)
    with open(stem + ".f32", "wb") as fh:
        fh.write(stack.tobytes())
    for name, channel in zip(_CHANNEL_NAMES, stack):
        write_pgm(f"{stem}_{name}.pgm", channel)


def write_pgm(path, channel: np.ndarray) -> None:
    channel = np.asarray(channel, dtype=float)
    lo, hi = channel.min(), channel.max()
    if hi > lo:
        pixels = np.rint((channel - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        pixels = np.full(channel.shape, 255, dtype=np.uint8)  # degenerate range
    h, w = channel.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
