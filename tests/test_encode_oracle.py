"""The batched encoders against the per-beat encoder they replaced, kept here
as the oracle: a PAA loop with one ``np.dot`` per window, ``np.outer`` GASF,
and MTF and recurrence plots built one series at a time.

PAA may differ from the oracle in the last bits (``np.dot`` may fuse its
multiply-adds); the other encoders must match it bit for bit when both get
the oracle's PAA output, and ``encode_beat`` must give the same bits for a
beat whatever batch it is encoded in.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgbeats.encode import (IMAGE_SIZE, MtfConfig, encode_beat, gasf, mtf, paa,
                             recurrence)

PAA_TOL = 4.44e-16  # 2 ulp of 1.0


def oracle_paa(series, m):
    x = np.asarray(series, dtype=float)
    n = x.shape[0]
    if m == n:
        return x.copy()
    out = np.empty(m)
    width = n / m
    for j in range(m):
        start = j * width
        end = start + width
        i0, i1 = int(np.floor(start)), int(np.ceil(end))
        idx = np.arange(i0, min(i1, n))
        w = np.minimum(idx + 1.0, end) - np.maximum(idx.astype(float), start)
        out[j] = np.dot(w, x[idx]) / width
    return out


def oracle_gasf(x):
    s = np.sqrt(1.0 - x * x)
    return np.outer(x, x) - np.outer(s, s)


def oracle_mtf(x, n_bins):
    edges = np.quantile(x, np.arange(1, n_bins) / n_bins)
    bins = np.searchsorted(edges, x, side="left")
    w = np.zeros((n_bins, n_bins))
    np.add.at(w, (bins[:-1], bins[1:]), 1.0)
    totals = w.sum(axis=1)
    empty = totals == 0
    w[~empty] /= totals[~empty, None]
    w[empty] = 1.0 / n_bins
    return w[np.ix_(bins, bins)]


def oracle_rp(x):
    d = np.abs(x[:, None] - x[None, :])
    top = d.max(initial=0.0)
    return d / top if top > 0 else d


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def rows(n):
    """Rows of n values in [-1, 1]: any, flat, all +-1, or rounded to one
    decimal (many ties, and -0.0)."""
    value = st.floats(-1.0, 1.0)
    return st.one_of(
        st.lists(value, min_size=n, max_size=n),
        value.map(lambda v: [v] * n),
        st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n),
        st.lists(value.map(lambda v: round(v, 1)), min_size=n, max_size=n),
    )


def assert_encoders_match(reduced, n_bins):
    """Batched gasf, mtf and rp of (B, n) against the oracle row by row."""
    batch = (gasf(reduced), mtf(reduced, MtfConfig(n_bins)), recurrence(reduced))
    for i, row in enumerate(reduced):
        assert same_bits(batch[0][i], oracle_gasf(row))
        assert same_bits(batch[1][i], oracle_mtf(row, n_bins))
        assert same_bits(batch[2][i], oracle_rp(row))


@settings(max_examples=80, deadline=None)
@given(st.integers(IMAGE_SIZE, 90).flatmap(rows), st.integers(2, IMAGE_SIZE))
def test_one_series_matches_oracle(values, n_bins):
    x = np.asarray(values)
    expected = oracle_paa(x, IMAGE_SIZE)
    assert np.max(np.abs(paa(x, IMAGE_SIZE) - expected)) <= PAA_TOL
    reduced = np.clip(expected, -1.0, 1.0)
    for series in (reduced, x):
        assert same_bits(gasf(series), oracle_gasf(series))
        assert same_bits(mtf(series, MtfConfig(n_bins)), oracle_mtf(series, n_bins))
        assert same_bits(recurrence(series), oracle_rp(series))


@settings(max_examples=30, deadline=None)
@given(st.lists(rows(70), min_size=1, max_size=8), st.integers(2, IMAGE_SIZE))
def test_batch_matches_oracle_and_is_batch_size_free(values, n_bins):
    beats = np.asarray(values)
    expected = np.stack([oracle_paa(row, IMAGE_SIZE) for row in beats])
    assert np.max(np.abs(paa(beats, IMAGE_SIZE) - expected)) <= PAA_TOL
    assert_encoders_match(np.clip(expected, -1.0, 1.0), n_bins)

    cfg = MtfConfig(n_bins)
    whole = encode_beat(beats, cfg)
    assert whole.shape == (len(beats), 3, IMAGE_SIZE, IMAGE_SIZE)
    for size in (1, 7):
        parts = [encode_beat(beats[i:i + size], cfg) for i in range(0, len(beats), size)]
        assert same_bits(np.concatenate(parts), whole)
    for i, beat in enumerate(beats):
        assert same_bits(encode_beat(beat, cfg), whole[i])


def test_blocks_of_any_size_give_the_same_bits():
    """300 beats of every row kind, encoded whole and in blocks of 1, 7 and 256."""
    rng = np.random.default_rng(11)
    any_ = rng.uniform(-1, 1, (75, 70))
    flat = np.repeat(rng.uniform(-1, 1, (75, 1)), 70, axis=1)
    signs = rng.choice([-1.0, 1.0], (75, 70))
    rounded = np.round(rng.uniform(-1, 1, (75, 70)), 1)
    beats = np.concatenate([any_, flat, signs, rounded])[rng.permutation(300)]
    expected = np.stack([oracle_paa(row, IMAGE_SIZE) for row in beats])
    assert np.max(np.abs(paa(beats, IMAGE_SIZE) - expected)) <= PAA_TOL
    assert_encoders_match(np.clip(expected, -1.0, 1.0), 8)

    whole = encode_beat(beats)
    for size in (1, 7, 256):
        parts = [encode_beat(beats[i:i + size]) for i in range(0, len(beats), size)]
        assert same_bits(np.concatenate(parts), whole)
