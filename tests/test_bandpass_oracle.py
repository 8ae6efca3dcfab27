"""The numpy band-pass against scipy.signal, its exact oracle: the design must
equal ``butter`` and the filter ``sosfiltfilt`` bit for bit, and wherever
scipy cannot filter a band, ``bandpass_filter`` must refuse it with a
ValidationError. scipy is a test dependency only; the package never imports
it, which the last test checks by running the whole chain with scipy
blocked."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.signal import butter, sosfiltfilt

from ecgbeats.errors import ValidationError
from ecgbeats.preprocess import bandpass_filter, bandpass_sos

# a fraction of fs/2: anywhere in (0, 1), or within 2**-60 of either end
_EDGE = st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                  st.integers(1, 60).map(lambda k: 2.0 ** -k),
                  st.integers(1, 60).map(lambda k: 1.0 - 2.0 ** -k))


@st.composite
def bands(draw):
    """(fs, low, high) with 0 < low < high < fs/2, edges and narrow bands
    included."""
    fs = draw(st.floats(0.01, 1e5))
    u = draw(_EDGE)
    v = draw(st.one_of(_EDGE, st.integers(1, 52).map(lambda k: u * (1.0 + 2.0 ** -k))))
    low, high = sorted((u * fs / 2, v * fs / 2))
    assume(0 < low < high < fs / 2)
    return fs, low, high


def _scipy_filter(x, fs, low, high):
    """The exact path the numpy filter replaces, or None where scipy refuses."""
    try:
        sos = butter(4, [low, high], "bandpass", fs=fs, output="sos")
        return sosfiltfilt(sos, x, padtype="even", padlen=min(round(fs), x.shape[0] - 1))
    except ValueError:    # a band that normalizes out of order, or a pole at z = 1
        return None


def _assert_matches_scipy(x, fs, low, high):
    expected = _scipy_filter(x, fs, low, high)
    if expected is None:
        with pytest.raises(ValidationError):
            bandpass_filter(x, fs, low, high)
    else:
        assert np.array_equal(bandpass_filter(x, fs, low, high), expected, equal_nan=True)


@settings(max_examples=500, deadline=None)
@given(bands())
def test_design_is_bit_equal_to_butter(band):
    fs, low, high = band
    try:
        expected = butter(4, [low, high], "bandpass", fs=fs, output="sos")
    except ValueError:
        with pytest.raises(ValidationError):
            bandpass_sos(low, high, fs)
        return
    assert np.array_equal(bandpass_sos(low, high, fs), expected, equal_nan=True)


@settings(max_examples=300, deadline=None)
@given(bands(), st.integers(1, 3000), st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
def test_filter_is_bit_equal_to_sosfiltfilt(band, n, log_magnitude, seed):
    fs, low, high = band
    x = np.random.default_rng(seed).normal(size=n) * 10.0 ** log_magnitude
    _assert_matches_scipy(x, fs, low, high)


@pytest.mark.parametrize("n", [1, 2, 3, 179, 180, 181, 182])
def test_lengths_around_the_pad_are_bit_equal(n):
    # padlen = min(round(fs), n - 1): no pad at n = 1, a full 1 s pad from 181
    x = np.random.default_rng(n).normal(size=n)
    _assert_matches_scipy(x, 180.0, 0.5, 35.0)


@pytest.mark.parametrize("fs, low, high", [
    (180.0, 0.5, 35.0),
    (180.0, 45.0, np.nextafter(45.0, 90.0)),  # adjacent floats
    (6.0, 0.7509254627313657, 0.7509254627313658),  # ... equal over fs/2: refused
    (180.0, 10.0, np.nextafter(90.0, 0.0)),   # up to the last float below fs/2
    (1000.0, 1e-300, 100.0),                  # a pole at z = 1: scipy refuses
    (1e5, 5e-324, 10.0),                      # low/(fs/2) underflows to 0
])
def test_fixed_bands(fs, low, high):
    x = np.random.default_rng(3).normal(size=500)
    _assert_matches_scipy(x, fs, low, high)


def test_432k_sample_record_is_bit_equal():
    # 40 min at 180 Hz, the size of the largest benchmark record
    x = np.random.default_rng(11).normal(size=432_000).cumsum()
    _assert_matches_scipy(x, 180.0, 0.5, 35.0)


def test_whole_chain_runs_with_scipy_blocked(tmp_path):
    script = f"""
import sys
sys.modules["scipy"] = None    # any scipy import now fails
from pathlib import Path
from ecgbeats import cli
d = Path({str(tmp_path)!r})
def run(*argv):
    assert cli.main([str(a) for a in argv]) == 0, argv
run("synth", "--out-dir", d / "raw", "--n-beats", 20, "--noise-std", 0.05, "--seed", 3)
run("preprocess", "--signal", d / "raw" / "signal.csv",
    "--annotations", d / "raw" / "annotations.csv", "--fs", 250, "--out-dir", d / "pre")
run("featurize", "--beats", d / "pre" / "beats.csv", "--out", d / "f.csv",
    "--test-fraction", 0.2)
run("balance", "--features", d / "f_train.csv", "--out", d / "b.csv",
    "--targets", "N=20,S=20,V=20")
run("train", "--features", d / "b.csv", "--out", d / "m.txt", "--n-estimators", 2,
    "--max-depth", 3, "--min-data-in-leaf", 2)
run("evaluate", "--model-file", d / "m.txt", "--features", d / "f_test.csv",
    "--out-dir", d / "eval")
run("encode", "--beats", d / "pre" / "beats.csv", "--out-dir", d / "img")
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "['scipy']"    # only the blocking entry
    assert (tmp_path / "eval" / "metrics.csv").exists()
