"""Beat-to-image encoders: Gramian angular summation field, Markov transition
field, and recurrence plot, stacked into a 3-channel 32x32 image.

All encoders operate on a 1-D series already normalized to [-1, 1]. The
70-sample beat is reduced to 32 points by piecewise aggregate approximation
before encoding, so each channel is exactly 32x32.
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
    """Markov transition field settings. n_bins quantile bins, >= 2."""

    n_bins: int = 8

    def __post_init__(self):
        validate([int_at_least("n_bins", self.n_bins, 2)])


@dataclass
class BeatImage:
    """One encoded beat: gasf in [-1,1], mtf in [0,1], rp in [0,1]."""

    gasf: np.ndarray
    mtf: np.ndarray
    rp: np.ndarray

    def as_array(self) -> np.ndarray:
        """Channel-major (3, H, W) stack in the fixed order gasf, mtf, rp."""
        return np.stack([self.gasf, self.mtf, self.rp])


def paa(series, m: int) -> np.ndarray:
    """Piecewise aggregate approximation of an n-point series down to m points.

    Output j is the mean of the series over the continuous window
    [j*n/m, (j+1)*n/m); samples straddling a window edge contribute
    proportionally to the overlap. This fractional weighting conserves the
    series mean exactly.
    """
    x = np.asarray(series, dtype=float)
    n = x.shape[0]
    if not 1 <= m <= n:
        raise ValidationError(f"paa target length {m} outside [1, {n}]")
    if m == n:
        return x.copy()
    out = np.empty(m)
    width = n / m
    for j in range(m):
        start = j * width
        end = start + width
        i0, i1 = int(np.floor(start)), int(np.ceil(end))
        idx = np.arange(i0, min(i1, n))
        # overlap of each unit sample interval [i, i+1) with [start, end)
        w = np.minimum(idx + 1.0, end) - np.maximum(idx.astype(float), start)
        out[j] = np.dot(w, x[idx]) / width
    return out


def _check_unit_range(x: np.ndarray) -> np.ndarray:
    if x.size and (np.max(np.abs(x)) > 1.0 + _RANGE_TOL or not np.all(np.isfinite(x))):
        raise ValidationError("series values must lie in [-1, 1]")
    return np.clip(x, -1.0, 1.0)


def gasf(series) -> np.ndarray:
    """Gramian angular summation field of a series in [-1, 1].

    With phi = arccos(x), entry (i, j) is cos(phi_i + phi_j), computed in the
    algebraically identical form x_i*x_j - sqrt(1-x_i^2)*sqrt(1-x_j^2). The
    outer-product form makes the matrix symmetric by construction and keeps
    the diagonal identity G_ii = 2*x_i^2 - 1 to rounding error.
    """
    x = _check_unit_range(np.asarray(series, dtype=float))
    s = np.sqrt(1.0 - x * x)
    return np.outer(x, x) - np.outer(s, s)


def quantile_bins(series, n_bins: int) -> np.ndarray:
    """Assign each value its empirical quantile bin in 0..n_bins-1.

    Bin edges sit at the k/n_bins quantiles (k = 1..n_bins-1); a value equal
    to an edge goes to the lower bin.
    """
    x = np.asarray(series, dtype=float)
    edges = np.quantile(x, np.arange(1, n_bins) / n_bins)
    return np.searchsorted(edges, x, side="left")


def transition_matrix(bins: np.ndarray, n_bins: int) -> np.ndarray:
    """Row-stochastic Markov transition matrix of consecutive bin moves.

    W[a, b] is the fraction of time steps that move from bin a to bin b.
    Bins with no outgoing transition get the uniform row 1/n_bins so every
    row still sums to 1.
    """
    w = np.zeros((n_bins, n_bins))
    np.add.at(w, (bins[:-1], bins[1:]), 1.0)
    totals = w.sum(axis=1)
    empty = totals == 0
    w[~empty] /= totals[~empty, None]
    w[empty] = 1.0 / n_bins
    return w


def mtf(series, cfg: MtfConfig = MtfConfig()) -> np.ndarray:
    """Markov transition field: M[i, j] = W[bin(i), bin(j)].

    Unlike the raw transition matrix, indexing W by the bins occupied at
    times i and j keeps the temporal layout of the series.
    """
    x = np.asarray(series, dtype=float)
    if x.shape[0] < 2:
        raise ValidationError("mtf needs a series of at least 2 points")
    if cfg.n_bins > x.shape[0]:
        raise ValidationError(
            f"n_bins {cfg.n_bins} exceeds series length {x.shape[0]}"
        )
    bins = quantile_bins(x, cfg.n_bins)
    w = transition_matrix(bins, cfg.n_bins)
    return w[np.ix_(bins, bins)]


def recurrence(series, epsilon: float | None = None) -> np.ndarray:
    """Recurrence plot of a series.

    Default (epsilon None) is the unthresholded form: the pairwise distance
    matrix |x_i - x_j| min-max scaled into [0, 1] (an all-zero matrix stays
    zero). With epsilon, the classic binary form: 1 where |x_i - x_j| <=
    epsilon (the step function counts 0 as recurrent), else 0.
    """
    x = np.asarray(series, dtype=float)
    d = np.abs(x[:, None] - x[None, :])
    if epsilon is None:
        top = d.max(initial=0.0)
        return d / top if top > 0 else d
    if epsilon < 0:
        raise ValidationError(f"epsilon must be >= 0, got {epsilon}")
    return (d <= epsilon).astype(float)


def encode_beat(samples, cfg: MtfConfig = MtfConfig()) -> BeatImage:
    """Encode one normalized beat into the 3-channel 32x32 image.

    The beat is PAA-reduced to IMAGE_SIZE points, then each encoder runs on
    the reduced series. Channel order is fixed: gasf, mtf, rp.
    """
    x = _check_unit_range(np.asarray(samples, dtype=float))
    reduced = paa(x, IMAGE_SIZE)
    # PAA averages values already in [-1, 1]; clip float residue for arccos.
    reduced = np.clip(reduced, -1.0, 1.0)
    return BeatImage(
        gasf=gasf(reduced),
        mtf=mtf(reduced, cfg),
        rp=recurrence(reduced),
    )
