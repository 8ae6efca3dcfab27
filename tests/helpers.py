"""Shared independent oracles for the test suite. Kept apart from the test
modules so nothing here gets collected twice."""

import tracemalloc

import numpy as np

from ecgbeats.balance import apply_plan
from ecgbeats.errors import DataError, ValidationError
from ecgbeats.metrics import confusion_matrix, macro_metrics
from ecgbeats.model.ensemble import predict_batch, softmax
from ecgbeats.model.tree import Tree
from ecgbeats.record_io import EcgRecord, parse_number
from ecgbeats.synth import _EDGE_PAD_S, _RR_BEFORE, _RR_COMPENSATORY, _TEMPLATES


def segment_distance(point, a, b):
    """Distance from point to the segment [a, b] (clamped projection)."""
    ab = b - a
    denom = float(np.dot(ab, ab))
    t = 0.0 if denom == 0 else float(np.clip(np.dot(point - a, ab) / denom, 0.0, 1.0))
    return float(np.linalg.norm(point - (a + t * ab)))


def min_segment_distance(point, members):
    """Brute-force SMOTE oracle: closest approach to any member-pair segment."""
    return min(segment_distance(point, members[i], members[j])
               for i in range(len(members)) for j in range(len(members)))


def analytic_bandpass_db(f, low=0.5, high=35.0, order=4):
    """Squared (forward-backward) analog Butterworth band-pass response, dB.

    Independent oracle: the low-pass prototype magnitude under the standard
    band-pass frequency transformation. The digital filter can only attenuate
    *more* than this near Nyquist (bilinear warping compresses the stopband).
    """
    omega = abs(f * f - low * high) / ((high - low) * f)
    return 2.0 * 10.0 * np.log10(1.0 / (1.0 + omega ** (2 * order)))


def peak_traced_bytes(fn, *args):
    """Peak bytes allocated while fn runs, numpy's buffers included; args
    allocated before the call are not counted, the result is."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def random_image(rng=None):
    """A (3, 32, 32) beat image with channels (gasf, mtf, rp) drawn over their
    legal value ranges, or all zeros without an rng."""
    if rng is None:
        return np.zeros((3, 32, 32))
    return np.stack([rng.uniform(-1, 1, (32, 32)), rng.uniform(0, 1, (32, 32)),
                     rng.uniform(0, 1, (32, 32))])


def reference_generate(cfg):
    """``synth.generate`` as a loop over beats and their components: each
    ``signal[lo:hi] +=`` adds one Gaussian, so every sample's sum is formed
    in beat order, then template order. The RR jitter is one draw per beat."""
    rng = np.random.default_rng(cfg.seed)
    schedule = rng.permutation(
        [sym for sym in ("N", "S", "V") for _ in range(cfg.n_beats)]
    ).tolist()
    schedule = ["N"] + schedule + ["N"]

    times = [_EDGE_PAD_S]
    for prev_sym, sym in zip(schedule, schedule[1:]):
        if sym == "N" and prev_sym in _RR_COMPENSATORY:
            fraction = _RR_COMPENSATORY[prev_sym]
        else:
            fraction = _RR_BEFORE[sym]
        rr = cfg.base_rr * fraction * (1.0 + rng.normal(0.0, cfg.rr_jitter))
        times.append(times[-1] + max(rr, 0.2 * cfg.base_rr))
    times = np.asarray(times)

    duration = times[-1] + _EDGE_PAD_S
    n = int(np.ceil(duration * cfg.fs)) + 1
    t = np.arange(n) / cfg.fs
    signal = np.zeros(n)
    for t_r, sym in zip(times, schedule):
        lo = np.searchsorted(t, t_r - 0.5)
        hi = np.searchsorted(t, t_r + 0.5)
        dt = t[lo:hi] - t_r
        for offset, amplitude, width in _TEMPLATES[sym]:
            signal[lo:hi] += amplitude * np.exp(-0.5 * ((dt - offset) / width) ** 2)
    if cfg.noise_std > 0:
        signal += rng.normal(0.0, cfg.noise_std, size=n)

    rpeaks = np.rint(times * cfg.fs).astype(int)
    return EcgRecord(signal=signal, fs=cfg.fs, rpeaks=rpeaks, labels=schedule)


def reference_shuffles(labels, seed):
    """Each class's indices, ascending by class, shuffled one class after
    another by one seeded generator."""
    rng = np.random.default_rng(seed)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        yield cls, idx


def reference_kfold(labels, folds, seed):
    """``search.stratified_kfold`` dealing each class's shuffle into the folds
    one sample at a time, round-robin."""
    assignments = [[] for _ in range(folds)]
    for cls, idx in reference_shuffles(np.asarray(labels, dtype=int), seed):
        if idx.shape[0] < folds:
            raise ValidationError(
                f"class {cls} has {idx.shape[0]} samples; needs >= {folds}"
            )
        for pos, sample in enumerate(idx):
            assignments[pos % folds].append(sample)
    return [np.sort(np.asarray(fold, dtype=int)) for fold in assignments]


def reference_split(labels, test_fraction, seed):
    """``search.stratified_split`` dealing each class's first
    round(test_fraction * count) shuffled samples to the test side one at a
    time, and the rest to the training side; returns (train, test)."""
    train, test = [], []
    for _, idx in reference_shuffles(np.asarray(labels, dtype=int), seed):
        n_test = int(round(test_fraction * idx.shape[0]))
        for pos, sample in enumerate(idx):
            (test if pos < n_test else train).append(sample)
    return np.sort(np.asarray(train, dtype=int)), np.sort(np.asarray(test, dtype=int))


def reference_grid_search(rows, labels, candidates, fit, folds, seed,
                          balance_plan=None, n_classes=None):
    """``search.grid_search`` fitting every candidate on every fold's
    (balanced) training split; returns (best params, each candidate's fold
    macro F1s). Ties go to the earliest candidate."""
    rows, y = np.asarray(rows, dtype=float), np.asarray(labels, dtype=int)
    scores = [[] for _ in candidates]
    for valid_idx in reference_kfold(y, folds, seed):
        train_idx = np.delete(np.arange(y.shape[0]), valid_idx)
        x_train, y_train = rows[train_idx], y[train_idx]
        if balance_plan is not None:
            x_train, y_train = apply_plan(x_train, y_train, balance_plan)
        for params, fold_f1 in zip(candidates, scores):
            model = fit(x_train, y_train, params, n_classes=n_classes)
            pred, _ = predict_batch(model, rows[valid_idx])
            cm = confusion_matrix(y[valid_idx], pred, model.n_classes)
            fold_f1.append(macro_metrics(cm)[-1])
    best = max(range(len(candidates)), key=lambda i: (np.mean(scores[i]), -i))
    return candidates[best], scores


def load_image_f32(path, size: int = 32) -> np.ndarray:
    """Read a ``.f32`` file written by ``record_io.export_image`` back into a
    float32 (3, size, size) array."""
    with open(path, "rb") as fh:
        raw = fh.read()
    expected = 3 * size * size * 4
    if len(raw) != expected:
        raise DataError(f"{path}: expected {expected} bytes, got {len(raw)}")
    return np.frombuffer(raw, dtype="<f4").reshape(3, size, size).copy()


def read_pgm(path) -> np.ndarray:
    """Read a binary P5 PGM written by ``record_io.write_pgm``."""
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise DataError(f"{path}: not a binary PGM")
        header = fh.readline().split() + [fh.readline().strip()]
        header = [parse_number(v.decode("latin-1"), int) for v in header]
        if len(header) != 3 or None in header:
            raise DataError(f"{path}: malformed PGM header")
        w, h, maxval = header
        if min(w, h) < 0:
            raise DataError(f"{path}: negative PGM size {w} x {h}")
        if maxval != 255:
            raise DataError(f"{path}: expected maxval 255, got {maxval}")
        data = fh.read()    # bounded by the file, not by the header's size
    if len(data) != w * h:
        raise DataError(f"{path}: {len(data)} pixel bytes for a {w} x {h} PGM")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w).copy()


def per_tree_gbdt_probs(model, rows):
    """GBDT probabilities summed over every tree, all-zero trees included."""
    total = np.zeros((len(rows), model.n_classes))
    for t, tree in enumerate(model.trees):
        total[:, t % model.n_classes] += tree.value[tree.apply(rows)]
    return softmax(total)


def routed_trees(monkeypatch):
    """The trees whose Tree.apply runs from here on, in call order."""
    routed, apply = [], Tree.apply
    monkeypatch.setattr(Tree, "apply", lambda tree, x: routed.append(tree) or apply(tree, x))
    return routed
