"""Beat-to-image encoders: Gramian angular summation field, Markov transition
field, and recurrence plot, stacked into a 3-channel 32x32 image.

Every encoder works along the last axis, so one call takes one series
``(n,)`` or a batch ``(B, n)`` and each series is encoded on its own. All
encoders operate on series already normalized to [-1, 1]. The 70-sample
beat is reduced to 32 points by piecewise aggregate approximation before
encoding, so each channel is exactly 32x32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, int_at_least, validate

IMAGE_SIZE = 32

# Values this far outside [-1, 1] are treated as float noise and clamped;
# anything worse is rejected.
_RANGE_TOL = 1e-12


@dataclass(frozen=True)
class MtfConfig:
    """Markov transition field settings: n_bins quantile bins, from 2 up to
    IMAGE_SIZE (a bin per point of the reduced beat)."""

    n_bins: int = 8

    def __post_init__(self):
        validate([int_at_least("n_bins", self.n_bins, 2)])
        validate([(self.n_bins <= IMAGE_SIZE,
                   f"n_bins must be <= {IMAGE_SIZE}, got {self.n_bins!r}")])


def paa(series, m: int) -> np.ndarray:
    """Piecewise aggregate approximation of n-point series down to m points.

    Output j is the mean of the series over the continuous window
    [j*n/m, (j+1)*n/m); samples straddling a window edge contribute
    proportionally to the overlap. This fractional weighting conserves the
    series mean exactly. Each window's weighted samples are summed left to
    right, so a series gives the same bits alone or in any batch.
    """
    x = np.asarray(series, dtype=float)
    n = x.shape[-1]
    if not 1 <= m <= n:
        raise ValidationError(f"paa target length {m} outside [1, {n}]")
    if m == n:
        return x.copy()
    width = n / m
    start = np.arange(m) * width
    end = start + width
    first = np.floor(start).astype(int)
    stop = np.minimum(np.ceil(end).astype(int), n)
    idx = first[:, None] + np.arange((stop - first).max())
    # overlap of each unit sample interval [i, i+1) with [start, end); the
    # padding past a window's last sample gets weight 0
    weight = np.minimum(idx + 1.0, end[:, None]) - np.maximum(idx, start[:, None])
    weight[idx >= stop[:, None]] = 0.0
    idx = np.minimum(idx, stop[:, None] - 1)
    return sum((w * x[..., i] for w, i in zip(weight.T, idx.T)), 0.0) / width


def out_of_range(series) -> np.ndarray:
    """Per series, ``(..., n) -> (...)``: True where a value is not finite or
    lies outside [-1, 1] by more than float noise."""
    return ~np.all(np.abs(series) <= 1.0 + _RANGE_TOL, axis=-1)


def _check_unit_range(x: np.ndarray) -> np.ndarray:
    if np.any(out_of_range(x)):
        raise ValidationError("series values must lie in [-1, 1]")
    return np.clip(x, -1.0, 1.0)


def _outer(a: np.ndarray, b: np.ndarray, op=np.multiply) -> np.ndarray:
    """op(a_i, b_j) over the last axis: (..., n) -> (..., n, n)."""
    return op(a[..., :, None], b[..., None, :])


def gasf(series) -> np.ndarray:
    """Gramian angular summation field of series in [-1, 1].

    With phi = arccos(x), entry (i, j) is cos(phi_i + phi_j), computed in the
    algebraically identical form x_i*x_j - sqrt(1-x_i^2)*sqrt(1-x_j^2). The
    outer-product form makes the matrix symmetric by construction and keeps
    the diagonal identity G_ii = 2*x_i^2 - 1 to rounding error.
    """
    x = _check_unit_range(np.asarray(series, dtype=float))
    s = np.sqrt(1.0 - x * x)
    return _outer(x, x) - _outer(s, s)


def quantile_bins(series, n_bins: int) -> np.ndarray:
    """Assign each value its series' empirical quantile bin in 0..n_bins-1.

    Bin edges sit at the k/n_bins quantiles (k = 1..n_bins-1); a value equal
    to an edge goes to the lower bin.
    """
    x = np.asarray(series, dtype=float)
    edges = np.moveaxis(np.quantile(x, np.arange(1, n_bins) / n_bins, axis=-1), 0, -1)
    # the number of edges below a value is its bin
    return np.count_nonzero(edges[..., None, :] < x[..., :, None], axis=-1)


def transition_matrix(bins: np.ndarray, n_bins: int) -> np.ndarray:
    """Row-stochastic Markov transition matrix of consecutive bin moves.

    W[a, b] is the fraction of time steps that move from bin a to bin b.
    Bins with no outgoing transition get the uniform row 1/n_bins so every
    row still sums to 1.
    """
    bins = np.asarray(bins)
    rows = bins.reshape(-1, bins.shape[-1])
    moves = (np.arange(len(rows))[:, None] * n_bins + rows[:, :-1]) * n_bins + rows[:, 1:]
    w = np.bincount(moves.ravel(), minlength=len(rows) * n_bins * n_bins).astype(float)
    w = w.reshape(bins.shape[:-1] + (n_bins, n_bins))
    totals = w.sum(axis=-1, keepdims=True)
    return np.where(totals > 0, w / np.maximum(totals, 1.0), 1.0 / n_bins)


def mtf(series, cfg: MtfConfig = MtfConfig()) -> np.ndarray:
    """Markov transition field: M[i, j] = W[bin(i), bin(j)].

    Unlike the raw transition matrix, indexing W by the bins occupied at
    times i and j keeps the temporal layout of the series.
    """
    x = np.asarray(series, dtype=float)
    n, k = x.shape[-1], cfg.n_bins
    if n < 2:
        raise ValidationError("mtf needs a series of at least 2 points")
    if k > n:
        raise ValidationError(f"n_bins {k} exceeds series length {n}")
    bins = quantile_bins(x, k)
    w = transition_matrix(bins, k).reshape(x.shape[:-1] + (k * k,))
    cell = _outer(bins * k, bins, np.add).reshape(x.shape[:-1] + (n * n,))
    return np.take_along_axis(w, cell, axis=-1).reshape(x.shape + (n,))


def recurrence(series) -> np.ndarray:
    """Unthresholded recurrence plot: the pairwise distance matrix
    |x_i - x_j| of each series min-max scaled into [0, 1] (an all-zero
    matrix stays zero)."""
    x = np.asarray(series, dtype=float)
    d = np.abs(_outer(x, x, np.subtract))
    top = d.max(axis=(-2, -1), keepdims=True, initial=0.0)
    return np.divide(d, top, out=d, where=top > 0)


def encode_beat(samples, cfg: MtfConfig = MtfConfig()) -> np.ndarray:
    """Encode normalized beats, ``(..., n)``, into 3-channel 32x32 images,
    ``(..., 3, 32, 32)`` float64.

    Each beat is PAA-reduced to IMAGE_SIZE points, then each encoder runs on
    the reduced series. Channel order is fixed: gasf, mtf, rp.
    """
    x = _check_unit_range(np.asarray(samples, dtype=float))
    reduced = paa(x, IMAGE_SIZE)
    # PAA averages values already in [-1, 1]; clip float residue for arccos.
    reduced = np.clip(reduced, -1.0, 1.0)
    return np.stack([gasf(reduced), mtf(reduced, cfg), recurrence(reduced)], axis=-3)
