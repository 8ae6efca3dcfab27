import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgbeats.errors import DataError, ParseError, ValidationError
from ecgbeats.model import gbdt
from ecgbeats.model.ensemble import predict_batch, predict_proba, softmax
from ecgbeats.model.forest import RfParams, fit_random_forest
from ecgbeats.model.gbdt import GbdtParams, fit_gbdt
from ecgbeats.model.persist import load_model, save_model
from ecgbeats.model.search import grid_search, stratified_kfold, stratified_split
from tests.helpers import (per_tree_gbdt_probs, reference_grid_search, reference_kfold,
                           reference_split, routed_trees)


def blobs(n_per_class=50, centers=((0, 0), (4, 0), (0, 4)), spread=0.3, seed=0):
    rng = np.random.default_rng(seed)
    rows = np.concatenate([rng.normal(c, spread, size=(n_per_class, 2))
                           for c in centers])
    labels = np.repeat(np.arange(len(centers)), n_per_class)
    return rows, labels


FAST_GBDT = dict(min_data_in_leaf=1, l1_alpha=0.0, l2_lambda=0.0, learning_rate=0.5)


class TestGbdtOracle:
    """Hand-derived 4-sample example: x=[0,0,1,1], y=[0,0,1,1], one round,
    depth 1, lambda=0, alpha=0, lr=0.5. Initial p=0.5 everywhere, so for the
    class-0 tree G_left = 2*(0.5-1) = -1, H_left = 2*0.25 = 0.5, raw left
    leaf -G/H = 2.0, stored 1.0 after the learning rate."""

    def _fit(self, **overrides):
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        settings = dict(learning_rate=0.5, max_depth=1, n_estimators=1,
                        min_data_in_leaf=1, l1_alpha=0.0, l2_lambda=0.0)
        settings.update(overrides)
        return fit_gbdt(x, y, GbdtParams(**settings))

    def test_leaf_values_match_hand_derivation(self):
        model = self._fit()
        class0 = model.trees[0]
        assert class0.feature[0] == 0
        assert class0.threshold[0] == pytest.approx(0.5)
        left, right = class0.left[0], class0.right[0]
        assert class0.value[left] == pytest.approx(1.0, abs=1e-9)
        assert class0.value[right] == pytest.approx(-1.0, abs=1e-9)
        class1 = model.trees[1]
        assert class1.value[class1.left[0]] == pytest.approx(-1.0, abs=1e-9)
        assert class1.value[class1.right[0]] == pytest.approx(1.0, abs=1e-9)

    def test_oracle_model_classifies_x0_as_class0(self):
        cls, probs = predict_batch(self._fit(), [[0.0]])
        assert cls[0] == 0
        assert probs[0, 0] > probs[0, 1]

    def test_large_alpha_soft_threshold_kills_update(self):
        # |G| = 1 in both leaves; alpha = 2 > |G| zeroes every leaf
        model = self._fit(l1_alpha=2.0)
        for tree in model.trees:
            assert np.all(tree.value[tree.feature == -1] == 0.0)
        _, probs = predict_batch(model, [[0.0]])
        assert np.allclose(probs, 0.5)


class TestGbdtTraining:
    def test_separable_three_class_training_accuracy(self):
        rows, labels = blobs()
        model = fit_gbdt(rows, labels, GbdtParams(n_estimators=50, max_depth=3,
                                                  **FAST_GBDT))
        pred, _ = predict_batch(model, rows)
        assert np.mean(pred == labels) == 1.0

    def test_training_logloss_non_increasing(self):
        rows, labels = blobs(spread=1.5, seed=3)
        model = fit_gbdt(rows, labels, GbdtParams(n_estimators=40, max_depth=3,
                                                  min_data_in_leaf=2))
        ll = np.asarray(model.train_logloss)
        assert ll.shape == (40,)
        assert np.all(np.diff(ll) <= 1e-6)

    def test_min_data_in_leaf_respected(self):
        rows, labels = blobs(spread=2.0, seed=5)
        min_leaf = 7
        model = fit_gbdt(rows, labels, GbdtParams(n_estimators=3, max_depth=6,
                                                  min_data_in_leaf=min_leaf))
        for tree in model.trees:
            leaves = tree.apply(rows)
            counts = np.bincount(leaves, minlength=tree.n_nodes)
            leaf_nodes = np.flatnonzero(tree.feature == -1)
            assert np.all(counts[leaf_nodes] >= min_leaf)

    def test_tie_break_lowest_feature_then_threshold(self):
        # duplicated feature columns and a symmetric label pattern create
        # equal-gain splits at thresholds 0.5 and 2.5 on both columns
        x_col = np.array([0.0, 1.0, 2.0, 3.0])
        x = np.stack([x_col, x_col], axis=1)
        y = np.array([1, 0, 0, 1])
        model = fit_gbdt(x, y, GbdtParams(max_depth=1, n_estimators=1,
                                          **FAST_GBDT))
        tree = model.trees[0]
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(0.5)

    def test_deterministic_saved_bytes(self, tmp_path):
        rows, labels = blobs(seed=9)
        params = GbdtParams(n_estimators=5, max_depth=3, min_data_in_leaf=2)
        for i, name in enumerate(("a.txt", "b.txt")):
            save_model(fit_gbdt(rows, labels, params), tmp_path / name)
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            fit_gbdt(np.zeros((4, 2)), np.zeros(4, dtype=int), GbdtParams(n_estimators=1))

    def test_non_finite_rejected(self):
        rows = np.array([[0.0], [np.nan], [1.0], [1.0]])
        with pytest.raises(ValidationError):
            fit_gbdt(rows, np.array([0, 0, 1, 1]), GbdtParams(n_estimators=1))

    def test_tree_count_is_rounds_times_classes(self):
        rows, labels = blobs(n_per_class=20)
        model = fit_gbdt(rows, labels, GbdtParams(n_estimators=4, max_depth=2,
                                                  min_data_in_leaf=2))
        assert len(model.trees) == 4 * 3


class TestPredict:
    def test_zero_rounds_uniform(self):
        x = np.array([[0.0], [1.0]])
        model = fit_gbdt(x, np.array([0, 1]), GbdtParams(n_estimators=0))
        cls, probs = predict_batch(model, [[0.3]])
        assert cls[0] == 0
        assert np.allclose(probs, 0.5)

    def test_probabilities_sum_to_one(self):
        rows, labels = blobs(seed=2)
        model = fit_gbdt(rows, labels, GbdtParams(n_estimators=10, max_depth=3,
                                                  min_data_in_leaf=2))
        probs = predict_proba(model, np.random.default_rng(0).normal(size=(50, 2)))
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9

    def test_dimension_mismatch_rejected(self):
        rows, labels = blobs()
        model = fit_gbdt(rows, labels, GbdtParams(n_estimators=1, max_depth=2,
                                                  min_data_in_leaf=2))
        with pytest.raises(ValidationError):
            predict_batch(model, [[0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, bad):
        # unchecked, a 2-class GBDT predicted class 1 for [nan, 0, 0] and [inf, 0, 0]
        rows = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]] * 5)
        labels = np.array([0, 1] * 5)
        for model in (fit_gbdt(rows, labels, GbdtParams(n_estimators=2, **FAST_GBDT)),
                      fit_random_forest(rows, labels, RfParams(n_trees=2, seed=0))):
            with pytest.raises(ValidationError, match="non-finite"):
                predict_batch(model, [[0.0, 0.0, 0.0], [bad, 0.0, 0.0]])

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(30, 3))
        base = np.argmax(softmax(raw), axis=1)
        shifted = np.argmax(softmax(raw + 123.456), axis=1)
        assert np.array_equal(base, shifted)

    def test_argmax_tie_goes_to_lowest_class(self):
        assert np.argmax(softmax(np.zeros((1, 3))), axis=1)[0] == 0

    def test_all_zero_gbdt_trees_are_not_routed_and_keep_the_bits(self, tmp_path,
                                                                  monkeypatch):
        # trees 0 and 1 get only -0.0 leaves, tree 4 -0.0 and 0.0 by turns, tree 8
        # only 0.0; a sum from +0.0 keeps its bits when any of them is added
        tokens = {0: ["-0.0"], 1: ["-0.0"], 4: ["-0.0", "0.0"], 8: ["0.0"]}
        lines, tree, leaves = [], None, 0
        for line in _saved_gbdt_lines(tmp_path, n_estimators=3):
            words = line.split()
            if words[0] == "tree":
                tree = int(words[1])
            elif words[0] == "n" and words[2] == "leaf" and tree in tokens:
                line = f"n {words[1]} leaf {tokens[tree][leaves % len(tokens[tree])]}"
                leaves += 1
            lines.append(line)
        model = _load_edited(tmp_path, lines)
        rows = np.vstack([blobs(seed=4)[0], np.random.default_rng(1).normal(size=(40, 2))])
        want = per_tree_gbdt_probs(model, rows)
        routed = routed_trees(monkeypatch)
        assert predict_proba(model, rows).tobytes() == want.tobytes()
        assert list(map(id, routed)) == [id(tree) for t, tree in enumerate(model.trees)
                                         if t not in tokens]


class TestRandomForest:
    def test_single_tree_in_bag_accuracy(self):
        rows, labels = blobs(n_per_class=70, seed=1)
        model = fit_random_forest(rows, labels,
                                  RfParams(n_trees=1, features_per_split=2, seed=3))
        pred, _ = predict_batch(model, rows)
        assert np.mean(pred == labels) >= 0.95

    def test_same_seed_identical_predictions(self):
        rows, labels = blobs(seed=6)
        params = RfParams(n_trees=3, seed=7)
        _, a = predict_batch(fit_random_forest(rows, labels, params), rows)
        _, b = predict_batch(fit_random_forest(rows, labels, params), rows)
        assert np.array_equal(a, b)

    def test_sign_rule_generalizes(self):
        # class == (x > 0), with a margin so held-out accuracy must be 1.0
        rng = np.random.default_rng(10)
        x = rng.uniform(-1, 1, size=600)
        x = x[np.abs(x) > 0.05][:400]
        y = (x > 0).astype(int)
        model = fit_random_forest(x[:300, None], y[:300], RfParams(n_trees=20, seed=2))
        pred, _ = predict_batch(model, x[300:, None])
        assert np.mean(pred == y[300:]) >= 0.99

    def test_histogram_leaves_give_probabilities(self):
        rows, labels = blobs(seed=8)
        model = fit_random_forest(rows, labels, RfParams(n_trees=5, seed=4))
        probs = predict_proba(model, rows[:10])
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9
        assert np.all(probs >= 0.0)

    def test_default_feature_subset_is_sqrt(self):
        params = RfParams()
        assert params.features_per_split is None  # resolved to round(sqrt(F)) at fit
        assert round(np.sqrt(76)) == 9

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            fit_random_forest(np.zeros((5, 2)), np.ones(5, dtype=int), RfParams(n_trees=1))


# SHA-256 of (model file, predict_batch classes + probabilities), computed
# before trees held a single leaf payload
PINNED_BYTES = {
    "gbdt": ("44c20e9cbd9891005b18d0c13a5bd743e94f14823294b6e42334057d88ed9292",
             "59899246c84b7ed9b852464addd3c393018d82aaa24b3b8a2b377c3d49cf40aa"),
    "rf": ("670f45fe6d875413341be9f4b862d14f426d7d37194d7c17559a086ea37bbad4",
           "2430508ee252ebaa7b681ad3a47e223d11538d84bc3e4218637630181735475f"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestPersistence:
    def test_round_trip_predictions_bit_exact(self, tmp_path):
        rows, labels = blobs(seed=3)
        rng = np.random.default_rng(1)
        queries = rng.normal(1.0, 2.5, size=(100, 2))
        for model in (
            fit_gbdt(rows, labels, GbdtParams(n_estimators=8, max_depth=4,
                                              min_data_in_leaf=2)),
            fit_random_forest(rows, labels, RfParams(n_trees=7, seed=5)),
        ):
            path = tmp_path / f"{model.kind}.txt"
            save_model(model, path)
            loaded = load_model(path)
            _, original = predict_batch(model, queries)
            _, reloaded = predict_batch(loaded, queries)
            assert np.array_equal(original, reloaded)

    def test_empty_gbdt_round_trip(self, tmp_path):
        x = np.array([[0.0], [1.0]])
        model = fit_gbdt(x, np.array([0, 1]), GbdtParams(n_estimators=0))
        save_model(model, tmp_path / "m.txt")
        loaded = load_model(tmp_path / "m.txt")
        _, probs = predict_batch(loaded, [[0.0]])
        assert np.allclose(probs, 0.5)

    def test_model_and_prediction_bytes_pinned(self, tmp_path, monkeypatch):
        # GBDT forks its workers wherever there are two CPUs, whatever the size
        monkeypatch.setattr(gbdt, "_POOL_MIN_ROW_ROUNDS", 0)
        # tie-heavy rows (few levels, a duplicated column); the forest grows
        # unbounded trees on bootstrap samples that repeat rows
        rng = np.random.default_rng(77)
        x = np.round(rng.normal(size=(300, 5)), 1)
        x = np.hstack([x, x[:, :1]])
        y = np.digitize(x[:, 0] + 0.5 * x[:, 2] + rng.normal(0.0, 0.6, 300), [-0.6, 0.6])
        queries = np.vstack([x, np.round(rng.normal(size=(100, 6)), 1)])
        for model in (fit_gbdt(x, y, GbdtParams(n_estimators=3, max_depth=5,
                                                min_data_in_leaf=3)),
                      fit_random_forest(x, y, RfParams(n_trees=6, seed=4))):
            file_digest, predict_digest = PINNED_BYTES[model.kind]
            path = tmp_path / f"{model.kind}.txt"
            save_model(model, path)
            assert _sha256(path.read_bytes()) == file_digest
            for m in (model, load_model(path)):
                classes, probs = predict_batch(m, queries)
                assert _sha256(classes.astype("<i8").tobytes()
                               + probs.astype("<f8").tobytes()) == predict_digest

    def test_corrupted_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("some-other-format 9\nkind gbdt\n")
        with pytest.raises(DataError):
            load_model(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("ecgbeats-model 99\nkind gbdt\n")
        with pytest.raises(DataError):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        rows, labels = blobs(seed=4)
        model = fit_gbdt(rows, labels, GbdtParams(n_estimators=2, max_depth=2,
                                                  min_data_in_leaf=2))
        path = tmp_path / "m.txt"
        save_model(model, path)
        lines = path.read_text().splitlines()
        (tmp_path / "trunc.txt").write_text("\n".join(lines[:-4]) + "\n")
        with pytest.raises(DataError):
            load_model(tmp_path / "trunc.txt")


def _saved_gbdt_lines(tmp_path, n_estimators=1):
    rows, labels = blobs(seed=4)
    model = fit_gbdt(rows, labels, GbdtParams(n_estimators=n_estimators, max_depth=3,
                                              min_data_in_leaf=2))
    save_model(model, tmp_path / "m.txt")
    return (tmp_path / "m.txt").read_text().splitlines()


def _saved_rf_lines(tmp_path):
    rows, labels = blobs(seed=4)
    save_model(fit_random_forest(rows, labels, RfParams(n_trees=1, seed=1)),
               tmp_path / "rf.txt")
    return (tmp_path / "rf.txt").read_text().splitlines()


def _load_edited(tmp_path, lines):
    (tmp_path / "edited.txt").write_text("\n".join(lines) + "\n")
    return load_model(tmp_path / "edited.txt")


class TestModelFileValidation:
    """Hand-edited model files: every defect is a DataError, never a hang or a
    ValueError / IndexError traceback."""

    @pytest.mark.parametrize("field, token", [
        (5, "0"),       # node 1's left child is the root: a cycle
        (5, "1"),       # node 1 is its own child
        (6, "5"),       # a child past the last node
        (3, "2"),       # feature == n_features
        (3, "-1"),
        (4, "abc"),     # non-numeric threshold
        (4, "nan"),
        (1, "x"),       # non-numeric node id
    ])
    def test_bad_split_field(self, tmp_path, field, token):
        lines = _saved_gbdt_lines(tmp_path)
        at = next(i for i, ln in enumerate(lines) if ln.startswith("n 1 split"))
        parts = lines[at].split()     # n <i> split <feature> <threshold> <left> <right>
        parts[field] = token
        lines[at] = " ".join(parts)
        with pytest.raises(DataError):
            _load_edited(tmp_path, lines)

    @pytest.mark.parametrize("edit", [
        lambda parts: parts[:-1],                   # too few tokens
        lambda parts: parts + ["7"],                # too many
        lambda parts: parts[:2] + ["twig"] + parts[3:],
    ])
    def test_bad_split_shape(self, tmp_path, edit):
        lines = _saved_gbdt_lines(tmp_path)
        at = next(i for i, ln in enumerate(lines) if ln.startswith("n 0 split"))
        lines[at] = " ".join(edit(lines[at].split()))
        with pytest.raises(DataError):
            _load_edited(tmp_path, lines)

    @pytest.mark.parametrize("line, text", [
        (0, "ecgbeats-model"),          # header with one token
        (0, "ecgbeats-model one"),
        (2, "n_classes three"),
        (3, "n_features"),
        (4, "n_rounds 2"),              # tree count no longer n_rounds * K
        (6, "tree 0 nodes 99999999999"),
        (6, "tree 0 nodes"),
        (7, "n 0 leaf inf"),
        (7, "n 0"),
    ])
    def test_bad_header_or_record(self, tmp_path, line, text):
        lines = _saved_gbdt_lines(tmp_path)
        lines[line] = text
        with pytest.raises(DataError):
            _load_edited(tmp_path, lines)

    @pytest.mark.parametrize("rf, line, text, kind", [
        # int() and float() read digit separators and non-ASCII digits, each
        # below with the value the unedited file holds; the model reader does not
        (False, 2, "n_classes ٣", "integer"),
        (False, 3, "n_features 0_2", "integer"),
        (False, 7, "n 0 split ٠ 0.7029330881762753 1 2", "integer"),
        (False, 9, "n 2 leaf -0.684_9358420822772", "number"),
        (True, 8, "n 2 leaf 0 0 5_7", "integer"),
    ])
    def test_numerals_int_reads_are_refused(self, tmp_path, rf, line, text, kind):
        lines = _saved_rf_lines(tmp_path) if rf else _saved_gbdt_lines(tmp_path)
        edits = [(a, b) for a, b in zip(lines[line].split(), text.split()) if a != b]
        assert len(edits) == 1 and float(edits[0][0]) == float(edits[0][1])
        lines[line] = text
        with pytest.raises(ParseError, match=rf"edited\.txt:{line + 1}: expected an? {kind}"):
            _load_edited(tmp_path, lines)

    def test_duplicate_node_id(self, tmp_path):
        lines = _saved_gbdt_lines(tmp_path)
        at = next(i for i, ln in enumerate(lines) if ln.startswith("n 1 "))
        lines[at] = "n 0" + lines[at][3:]
        with pytest.raises(DataError):
            _load_edited(tmp_path, lines)

    def test_rf_negative_count(self, tmp_path):
        lines = _saved_rf_lines(tmp_path)
        at = next(i for i, ln in enumerate(lines) if " leaf " in ln)
        lines[at] = " ".join(lines[at].split()[:3] + ["-1", "0", "0"])
        with pytest.raises(DataError):
            _load_edited(tmp_path, lines)

    @pytest.mark.parametrize("counts", [
        ["0", "0", "0"],                                    # 0 / 0 when predicting
        ["9223372036854775807", "1", "0"],                  # the int64 sum wraps
        ["99999999999999999999", "0", "0"],                 # no int64 at all
    ])
    def test_rf_leaf_counts_must_sum_to_a_positive_int64(self, tmp_path, counts):
        lines = _saved_rf_lines(tmp_path)
        at = next(i for i, ln in enumerate(lines) if " leaf " in ln)
        lines[at] = " ".join(lines[at].split()[:3] + counts)
        with pytest.raises(ParseError, match=rf"edited\.txt:{at + 1}: leaf counts must sum"):
            _load_edited(tmp_path, lines)

    def test_rf_without_trees(self, tmp_path):
        lines = _saved_rf_lines(tmp_path)
        at = lines.index("n_trees 1")
        lines[at:] = ["n_trees 0", "end"]
        with pytest.raises(ParseError, match=rf"edited\.txt:{at + 1}: a forest needs"):
            _load_edited(tmp_path, lines)

    def test_gbdt_class_scores_must_stay_finite(self, tmp_path):
        # a 2-round model with every leaf set to one value: each class's
        # scores reach twice that value (at 1e308 a leaf the sum is inf, and
        # the softmax's inf - inf makes every probability NaN)
        def every_leaf(value):
            lines = _saved_gbdt_lines(tmp_path, n_estimators=2)
            for i, line in enumerate(lines):
                if " leaf " in line:
                    lines[i] = " ".join(line.split()[:3] + [value])
            return lines

        # 8e307 lies inside half the float64 maximum
        probs = predict_proba(_load_edited(tmp_path, every_leaf("4e307")), blobs(seed=4)[0])
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        # 1.2e308 lies past it; tree 3, class 0's second, takes that class there
        lines = every_leaf("6e307")
        at = next(i for i, ln in enumerate(lines) if ln.startswith("tree 4 "))
        with pytest.raises(ParseError, match=rf"edited\.txt:{at}: class 0's leaf values sum"):
            _load_edited(tmp_path, lines)

    def test_binary_file(self, tmp_path):
        (tmp_path / "bin.txt").write_bytes(b"ecgbeats-model 1\n\xff\xfe\x00\n")
        with pytest.raises(DataError):
            load_model(tmp_path / "bin.txt")

    def test_unedited_file_loads(self, tmp_path):
        assert _load_edited(tmp_path, _saved_gbdt_lines(tmp_path)).n_features == 2


class TestGridSearch:
    def test_single_combination_returned(self):
        rows, labels = blobs(n_per_class=15, seed=7)
        only = GbdtParams(n_estimators=2, max_depth=2, min_data_in_leaf=2)
        best, results = grid_search(rows, labels, [only], fit_gbdt, folds=3, seed=0)
        assert best is only
        assert len(results) == 1

    def test_dominant_combination_selected(self):
        rows, labels = blobs(n_per_class=30, seed=11)
        weak = GbdtParams(n_estimators=0)
        strong = GbdtParams(n_estimators=25, max_depth=3, min_data_in_leaf=2)
        best, results = grid_search(rows, labels, [weak, strong], fit_gbdt, folds=3, seed=1)
        assert best is strong
        assert results[1].mean_f1 > results[0].mean_f1

    def test_stratified_fold_histograms(self):
        rng = np.random.default_rng(5)
        labels = np.array([0] * 10 + [1] * 7 + [2] * 5)
        folds = stratified_kfold(labels, 3, seed=2)
        assert sorted(np.concatenate(folds).tolist()) == list(range(22))
        for fold in folds:
            counts = np.bincount(labels[fold], minlength=3)
            for cls, total in ((0, 10), (1, 7), (2, 5)):
                assert abs(counts[cls] - total / 3) <= 1.0

    def test_stratified_indices_pinned(self):
        # both draw every class's shuffle, in class order, from one seeded generator
        labels = np.array([2, 0, 1, 0, 0, 2, 1, 0, 1, 2, 0, 0, 1, 2, 0, 1, 0, 2, 0, 1])
        train, test = stratified_split(labels, 0.3, seed=3)
        assert train.tolist() == [0, 3, 5, 6, 7, 8, 9, 10, 11, 12, 14, 15, 18]
        assert test.tolist() == [1, 2, 4, 13, 16, 17, 19]
        assert [fold.tolist() for fold in stratified_kfold(labels, 3, seed=4)] == [
            [0, 1, 2, 7, 13, 18, 19], [3, 5, 6, 8, 10, 14, 17], [4, 9, 11, 12, 15, 16]]

    @settings(max_examples=300, deadline=None)
    @given(labels=st.integers(1, 5).flatmap(lambda k: st.lists(
               st.integers(0, k - 1).map(lambda c: 3 * c - 2), max_size=400)),
           folds=st.integers(2, 5),
           test_fraction=st.floats(0, 1, exclude_min=True, exclude_max=True),
           seed=st.integers(0, 2**32))
    def test_slices_equal_the_per_sample_dealing(self, labels, folds, test_fraction, seed):
        # class ids need not start at 0 or be contiguous; empty labels included
        labels = np.asarray(labels, dtype=int)
        for got, want in zip(stratified_split(labels, test_fraction, seed),
                             reference_split(labels, test_fraction, seed)):
            assert got.dtype == want.dtype == np.int64
            assert got.tolist() == want.tolist()
        try:
            want = reference_kfold(labels, folds, seed)
        except ValidationError as small:
            with pytest.raises(ValidationError) as error:
                stratified_kfold(labels, folds, seed)
            assert str(error.value) == str(small)
            return
        got = stratified_kfold(labels, folds, seed)
        assert len(got) == folds
        for fold, want_fold in zip(got, want):
            assert fold.dtype == want_fold.dtype == np.int64
            assert fold.tolist() == want_fold.tolist()

    def test_class_smaller_than_folds_rejected(self):
        labels = np.array([0, 0, 0, 1])
        with pytest.raises(ValidationError):
            stratified_kfold(labels, 3, seed=0)

    def test_tie_goes_to_earliest_candidate(self):
        rows, labels = blobs(n_per_class=15, seed=13)
        a = GbdtParams(n_estimators=0)
        b = GbdtParams(n_estimators=0)
        best, _ = grid_search(rows, labels, [a, b], fit_gbdt, folds=3, seed=3)
        assert best is a

    def test_each_fold_balanced_once(self, monkeypatch):
        from ecgbeats.balance import BalancePlan, apply_plan
        from ecgbeats.model import search
        calls = []

        def counted(*args):
            calls.append(args)
            return apply_plan(*args)

        monkeypatch.setattr(search, "apply_plan", counted)
        rows, labels = blobs(n_per_class=20, seed=19)
        plan = BalancePlan(targets={0: 15, 1: 15, 2: 15}, k_neighbors=3, seed=1)
        candidates = [GbdtParams(n_estimators=n, max_depth=2, min_data_in_leaf=2)
                      for n in (0, 2, 4)]
        _, results = grid_search(rows, labels, candidates, fit_gbdt, folds=4, seed=2,
                                 balance_plan=plan)
        assert len(calls) == 4
        # each candidate keeps its own fold scores, in fold order
        for params, result in zip(candidates, results):
            _, (alone,) = grid_search(rows, labels, [params], fit_gbdt, folds=4, seed=2,
                                      balance_plan=plan)
            assert result.fold_f1 == alone.fold_f1

    # entries differing only in size share a fit; -0.0 and 0.0 stay apart
    GRID_BASES = {
        (fit_gbdt, GbdtParams): [dict(max_depth=2, min_data_in_leaf=2),
                                 dict(max_depth=3, min_data_in_leaf=2, l1_alpha=0.0),
                                 dict(max_depth=3, min_data_in_leaf=2, l1_alpha=-0.0),
                                 dict(max_depth=1, min_data_in_leaf=4, learning_rate=1.0)],
        (fit_random_forest, RfParams): [dict(), dict(seed=3), dict(max_depth=2),
                                        dict(max_depth=2, seed=3, min_samples_leaf=3)],
    }

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(list(GRID_BASES)),
           entries=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)),
                            min_size=1, max_size=6),
           folds=st.integers(2, 3), seed=st.integers(0, 99), balance=st.booleans())
    def test_size_groups_equal_the_per_candidate_loop(self, kind, entries, folds, seed,
                                                      balance):
        from ecgbeats.balance import BalancePlan
        fit, param_cls = kind
        smallest = 0 if param_cls is GbdtParams else 1
        # the first entry again, as a duplicate of its own
        entries = [*entries, entries[0]]
        candidates = [param_cls(**{**self.GRID_BASES[kind][base],
                                   param_cls.SIZE: max(size, smallest)})
                      for base, size in entries]
        rows, labels = blobs(n_per_class=12, spread=1.5, seed=seed)
        plan = (BalancePlan(targets={0: 8, 1: 5, 2: 8}, k_neighbors=2, seed=seed)
                if balance else None)
        fits = []

        def spy(*args, **kwargs):
            fits.append(args[2])
            return fit(*args, **kwargs)

        best, results = grid_search(rows, labels, candidates, spy, folds=folds, seed=seed,
                                    balance_plan=plan)
        want_best, want_f1 = reference_grid_search(rows, labels, candidates, fit, folds,
                                                   seed, balance_plan=plan)
        assert [r.fold_f1 for r in results] == want_f1
        assert best is want_best
        # per fold, one fit per group, at the group's largest size, in grid order
        largest = {}
        for (base, _), params in zip(entries, candidates):
            largest[base] = max(largest.get(base, 0), getattr(params, param_cls.SIZE))
        assert [(getattr(p, param_cls.SIZE), replace(p, **{param_cls.SIZE: 1}))
                for p in fits] == folds * [
            (size, param_cls(**{**self.GRID_BASES[kind][base], param_cls.SIZE: 1}))
            for base, size in largest.items()]

    def test_in_fold_balancing(self):
        from ecgbeats.balance import BalancePlan
        rng = np.random.default_rng(17)
        rows = np.concatenate([rng.normal(0, 0.4, (60, 2)),
                               rng.normal(3, 0.4, (15, 2)),
                               rng.normal(-3, 0.4, (15, 2))])
        labels = np.repeat([0, 1, 2], [60, 15, 15])
        plan = BalancePlan(targets={0: 25, 1: 25, 2: 25}, k_neighbors=3, seed=1)
        candidate = GbdtParams(n_estimators=10, max_depth=3, min_data_in_leaf=2)
        best, results = grid_search(rows, labels, [candidate], fit_gbdt, folds=3, seed=2,
                                    balance_plan=plan)
        assert best is candidate
        assert results[0].mean_f1 > 0.8  # separable blobs stay learnable
