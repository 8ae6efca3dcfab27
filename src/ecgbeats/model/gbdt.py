"""Gradient-boosted trees with the softmax multiclass logloss objective.

Per boosting round, one regression tree per class is fit to the first- and
second-order derivatives of the logloss taken at the scores from the start
of the round: g_ik = p_ik - y_ik, h_ik = p_ik * (1 - p_ik). Split search is
exact greedy (a sorted scan over midpoints of distinct values) maximizing the
usual second-order gain

    G_L^2 / (H_L + lambda) + G_R^2 / (H_R + lambda) - G^2 / (H + lambda)

and leaf values are L1-soft-thresholded Newton steps scaled by the learning
rate. Trees grow depth-wise; no histogram binning, no feature subsampling.

The scan is presorted, as in the exact greedy algorithm of XGBoost (Chen &
Guestrin, KDD 2016): a fit's one sort is ``tree.presort``, stable, into int32,
of the columns a tree can cut (split features keep x's column ids), and
``tree.grow`` hands each node that one row order, filtered to its rows in
ascending value order (ties to the lower row id), so no node sorts. Each tree
packs the derivatives as one complex column c = h + ig, so a block of features
is one gather and one cumsum of (H_L, G_L); a complex add is the two real
adds, in the same order, so every prefix sum and gain keeps its bits. Prefix
sums and gains are evaluated only at the positions that leave min_data_in_leaf
rows on each side, a block of features at a time in buffers formed in place,
so the scan's memory is bounded whatever the node's size. Feature values are
read from x only at the block's first maximum, and for a whole feature only
when that maximum lands on a tie (``tree.first_cut``). Node totals are summed
over the node's rows in ascending row order, so the trees equal those of a
per-node stable sort bit for bit, and fits are deterministic given the input
order, so models are byte-reproducible.

A round's K trees are built at the same time in min(K, usable CPUs) worker
processes, forked once per fit after the presort. Threads do not scale here:
np.cumsum, ~20 % of a fit, holds the GIL, and two threads get 0.88x the
cumsum throughput of one (numpy 2.4, 2 cores; take and sin scale 2x). The
workers inherit the features, the labels and the presort copy-on-write and
share no memory with the fitting process. Each round, a class's round-start
probability column goes in, and its tree comes out with ``step``, the value
of each row's leaf. A class tree is a pure function of those, and only the
fitting process holds the scores: it adds each class's step to its score
column in class order, as LightGBM and XGBoost boosters add a finished tree's
output, so the bytes are the same for any worker count. With one usable CPU,
where fork is unavailable, or for a fit of fewer than ``_POOL_MIN_ROW_ROUNDS``
rows x n_estimators, the rounds run in-process. The pool forks its workers
before it starts its own thread, and they run only the tree builder and the
pool's queues. Boosting reaches a fixed point at a round whose K steps are
all +-0.0 (L1 zeroes every leaf): scores start at +0.0, and a sum is -0.0
only when both addends are, so every score keeps its bits and each later
round would grow the same trees. ``_rounds``, the one round loop, closes the
pool there and repeats that round, byte for byte, without computing it.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass

import numpy as np

from ..errors import int_at_least, real_above, real_at_least, validate
from .ensemble import EnsembleModel, check_training_data, softmax
from .tree import first_cut, grow, presort


@dataclass
class GbdtParams:
    """Defaults are the best configuration reported for this task."""

    SIZE = "n_estimators"   # not a field: a fit of fewer rounds is a prefix
    learning_rate: float = 0.5
    max_depth: int = 10
    n_estimators: int = 1000
    min_data_in_leaf: int = 10
    l1_alpha: float = 0.5
    l2_lambda: float = 0.7327

    def __post_init__(self):
        validate([
            real_above("learning_rate", self.learning_rate, 0),
            int_at_least("max_depth", self.max_depth, 1),
            int_at_least("n_estimators", self.n_estimators, 0),
            int_at_least("min_data_in_leaf", self.min_data_in_leaf, 1),
            real_at_least("l1_alpha", self.l1_alpha, 0),
            real_at_least("l2_lambda", self.l2_lambda, 0),
        ])


# complex scan entries per block of features: the block's (features,
# positions) buffers, 256 KB of sums and 128 KB per float part, stay in cache,
# and the scan's memory does not grow with the node
_BLOCK = 1 << 14


def _best_split(x, order, features, c, g_total, h_total, lam, min_leaf):
    """Best (feature, threshold) for one node, or None.

    order (F, n) holds the node's row ids sorted by each of x's columns
    ``features``, and c = h + ig each row's derivatives. Candidates are
    midpoints of consecutive distinct sorted values with at least min_leaf rows
    on either side. The cut is the first maximum of the (feature, position)
    gains, one ``tree.first_cut`` per block of features and one argmax over the
    blocks: lowest feature index, then lowest threshold. A NaN gain ranks
    first, as argmax ranks it, and is refused.
    """
    n = order.shape[1]
    if n < 2 * min_leaf or not len(features):
        return None
    den = h_total + lam
    parent = g_total * g_total / den if den > 0 else 0.0

    # position p splits off the first p + 1 sorted rows; legal p: lo <= p < hi
    lo, hi = min_leaf - 1, n - min_leaf
    tops = []                       # per block: its first maximum (gain, feature, threshold)
    step = max(1, _BLOCK // hi)
    # an unmasked divide then a fix-up: a where= mask makes the divide ~5x slower
    with np.errstate(divide="ignore", invalid="ignore"):
        for f in range(0, len(features), step):
            rows = order[f:f + step]
            sums = c.take(rows[:, :hi])
            np.cumsum(sums, axis=1, out=sums)
            # contiguous copies: ufuncs on the .real and .imag views are ~1.5x slower
            hl, gl = sums.real[:, lo:].copy(), sums.imag[:, lo:].copy()
            gr = np.subtract(g_total, gl)
            hr = np.subtract(h_total, hl)
            hr += lam
            hl += lam
            gains = np.square(gl, out=gl)
            gains /= hl
            if lam <= 0:                    # else H_L + lambda >= lambda > 0
                gains[~(hl > 0)] = 0.0
            np.square(gr, out=gr)
            gr /= hr
            if hr.min() <= 0:               # H - H_L can round below -lambda
                gr[~(hr > 0)] = 0.0
            gains += gr
            gains -= parent
            row, at, threshold = first_cut(gains, rows[:, lo:hi + 1], features[f:f + step], x)
            tops.append((gains[row, at], features[f + row], threshold))

    gain, feature, threshold = tops[int(np.argmax([top[0] for top in tops]))]
    if not np.isfinite(gain) or gain <= 0.0:
        return None
    return int(feature), threshold


def _leaf_value(g_sum, h_sum, params: GbdtParams) -> float:
    den = h_sum + params.l2_lambda
    if den <= 0:
        return 0.0
    mag = max(abs(g_sum) - params.l1_alpha, 0.0)
    return float(-np.sign(g_sum) * mag / den * params.learning_rate)


def _build_tree(x, order, features, g, h, params: GbdtParams) -> tuple:
    """(tree, step) of one tree grown on the fit's presort ``order`` of x's
    columns ``features``; step[r] is the value of row r's leaf."""
    step = np.empty(x.shape[0])
    c = np.empty(x.shape[0], dtype=complex)
    c.real, c.imag = h, g

    def decide(idx, order, depth):
        # summed in ascending row order: a sorted-order sum moves the last bits
        g_total, h_total = g[idx].sum(), h[idx].sum()
        if depth < params.max_depth:
            split = _best_split(x, order, features, c, g_total, h_total,
                                params.l2_lambda, params.min_data_in_leaf)
            if split is not None:
                return split, 0.0
        value = _leaf_value(g_total, h_total, params)
        step[idx] = value
        return None, value

    return grow(x, np.arange(x.shape[0]), order, decide), step


def _grow(fit, cls: int, p) -> tuple:
    """Class cls's (tree, step) of the round, fit to the derivatives at p, its
    round-start probability column."""
    x, y, order, features, params = fit
    return _build_tree(x, order, features, p - (y == cls), p * (1.0 - p), params)


# the fit a pool worker serves: set by _serve in each forked worker, never in
# the fitting process, so fits in one process share nothing
_served = None


def _serve(fit) -> None:
    global _served
    _served = fit


def _grow_served(cls: int, p) -> tuple:
    return _grow(_served, cls, p)


# rows x n_estimators from which a fit forks its pool: below it, forking and
# feeding the workers cost more than the second CPU saves. On a 2-core VM the
# pool began to win between 6,480 and 10,800 on the fit-hard benchmark's rows,
# and between 12,000 and 18,000 on corpus-prep's.
_POOL_MIN_ROW_ROUNDS = 15_000


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _rounds(x, y, k: int, params: GbdtParams):
    """Each of n_estimators rounds as (its K trees, the logloss after it); the
    pool closes when the rounds end, fail, reach the fixed point or are dropped."""
    features, order = presort(x, stable=True)      # ties keep the lower row id first
    scores = np.zeros((x.shape[0], k))
    probs = softmax(scores)
    fit = (x, y, order, features, params)

    workers = min(k, _usable_cpus())
    in_process = workers == 1 or x.shape[0] * params.n_estimators < _POOL_MIN_ROW_ROUNDS
    if not in_process:
        # imported here: at module level they would add to every CLI stage's start-up
        import multiprocessing
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
        in_process = "fork" not in multiprocessing.get_all_start_methods()
    # fork hands the workers fit without pickling it; they start at the first submit
    pool = contextlib.nullcontext() if in_process else ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_serve, initargs=(fit,))
    with pool:
        for r in range(params.n_estimators):
            if in_process:
                grown = [_grow(fit, cls, p) for cls, p in enumerate(probs.T)]
            else:
                try:
                    grown = list(pool.map(_grow_served, range(k), probs.T))
                except BrokenExecutor:
                    raise OSError(f"GBDT worker process died in round {r + 1} "
                                  "(killed, or out of memory)") from None
            trees, steps = zip(*grown)
            for cls, step in enumerate(steps):
                scores[:, cls] += step
            # this round's logloss and the next round's derivatives
            probs = softmax(scores)
            round_ = trees, float(-np.mean(np.log(probs[np.arange(x.shape[0]), y])))
            if not any(map(np.any, steps)):
                break
            yield round_
        else:
            return
    for _ in range(r, params.n_estimators):     # past the pool: the fixed point repeats
        yield round_


def fit_gbdt(rows, labels, params: GbdtParams = GbdtParams(),
             n_classes: int | None = None) -> EnsembleModel:
    """Fit the boosted ensemble; scores start at 0 for every class."""
    x, y, k = check_training_data(rows, labels, n_classes)
    rounds = list(_rounds(x, y, k, params))
    return EnsembleModel(kind="gbdt", n_classes=k, n_features=x.shape[1],
                         trees=[tree for trees, _ in rounds for tree in trees],
                         train_logloss=[loss for _, loss in rounds])
