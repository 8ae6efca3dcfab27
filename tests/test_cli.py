import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ecgbeats import cli
from ecgbeats.model.ensemble import predict_proba
from ecgbeats.model.forest import RfParams
from ecgbeats.model.gbdt import GbdtParams
from ecgbeats.model.persist import load_model
from ecgbeats.record_io import (BEAT_LEN, MAX_CLASSES, Beats, load_feature_matrix,
                                read_beats_csv, save_feature_matrix, write_annotations_csv,
                                write_beats_csv, write_signal_csv)
from ecgbeats.synth import SynthConfig, generate
from tests.helpers import per_tree_gbdt_probs, routed_trees


def run(*argv):
    return cli.main([str(a) for a in argv])


def run_stage(root, argv, inputs, outputs, stdout):
    """Run a stage that must succeed and check what it leaves under root: one
    manifest per primary output and no other, each naming the stage's inputs
    in order under the SHA-256 of its canonical payload, and stdout."""
    before = set(root.rglob("*.manifest.json"))
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert run(*argv) == 0
    added = set(root.rglob("*.manifest.json")) - before
    assert sorted(map(str, added)) == sorted(f"{out}.manifest.json" for out in outputs)
    for path in added:
        manifest = json.loads(path.read_text())
        assert sorted(manifest) == ["config_sha256", "inputs", "params", "stage"]
        assert manifest["stage"] == argv[0]
        assert manifest["inputs"] == [str(p) for p in inputs]
        payload = {key: manifest[key] for key in ("stage", "params", "inputs")}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert manifest["config_sha256"] == hashlib.sha256(canonical.encode()).hexdigest()
    assert buffer.getvalue() == stdout


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """synth -> preprocess -> featurize(split), shared by the fast CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    raw, pre = root / "raw", root / "pre"
    run_stage(root, ["synth", "--out-dir", raw, "--n-beats", 30,
                     "--noise-std", "0.02", "--seed", 7],
              [], [raw / "signal.csv"], f"synth: wrote 92 beats at 250.0 Hz to {raw}\n")
    run_stage(root, ["preprocess", "--signal", raw / "signal.csv",
                     "--annotations", raw / "annotations.csv",
                     "--fs", 250, "--out-dir", pre],
              [raw / "signal.csv", raw / "annotations.csv"], [pre / "beats.csv"],
              "preprocess: kept 90 beats, dropped 2, skipped 0 unknown labels\n")
    train, test = root / "features_train.csv", root / "features_test.csv"
    run_stage(root, ["featurize", "--beats", pre / "beats.csv",
                     "--out", root / "features.csv",
                     "--test-fraction", "0.2", "--split-seed", 1],
              [pre / "beats.csv", pre / "record_meta.json"], [train, test],
              f"featurize: wrote 72 train rows to {train}, 18 test rows to {test}\n")
    return root


class TestPipeline:
    def test_synth_outputs_exist(self, pipeline_dir):
        assert (pipeline_dir / "raw" / "signal.csv").exists()
        assert (pipeline_dir / "raw" / "annotations.csv").exists()
        assert (pipeline_dir / "raw" / "signal.csv.manifest.json").exists()

    def test_preprocess_meta(self, pipeline_dir):
        meta = json.loads((pipeline_dir / "pre" / "record_meta.json").read_text())
        assert meta["fs"] == 180.0
        assert meta["n_beats"] == 90
        assert meta["skipped_labels"] == 0
        assert meta["n_beats"] + meta["n_dropped"] == meta["n_rpeaks"]

    def test_split_is_stratified_and_disjoint(self, pipeline_dir):
        _, train_labels = load_feature_matrix(pipeline_dir / "features_train.csv")
        _, test_labels = load_feature_matrix(pipeline_dir / "features_test.csv")
        assert np.bincount(train_labels, minlength=3).tolist() == [24, 24, 24]
        assert np.bincount(test_labels, minlength=3).tolist() == [6, 6, 6]
        pre, out = pipeline_dir / "pre", pipeline_dir / "features_all.csv"
        run_stage(pipeline_dir, ["featurize", "--beats", pre / "beats.csv", "--out", out],
                  [pre / "beats.csv", pre / "record_meta.json"], [out],
                  f"featurize: wrote 90 rows to {out}\n")
        _, all_labels = load_feature_matrix(out)
        assert np.bincount(all_labels, minlength=3).tolist() == [30, 30, 30]

    def test_train_evaluate_report(self, pipeline_dir):
        features = pipeline_dir / "features_train.csv"
        test = pipeline_dir / "features_test.csv"
        gbdt, rf = pipeline_dir / "model.txt", pipeline_dir / "rf.txt"
        run_stage(pipeline_dir, ["train", "--features", features, "--out", gbdt,
                                 "--model", "gbdt", "--n-estimators", 8, "--max-depth", 3,
                                 "--min-data-in-leaf", 2],
                  [features], [gbdt], f"train: fitted gbdt on 72 rows (24 trees) -> {gbdt}\n")
        run_stage(pipeline_dir, ["train", "--features", features, "--out", rf,
                                 "--model", "rf", "--n-trees", 3, "--seed", 2],
                  [features], [rf], f"train: fitted rf on 72 rows (3 trees) -> {rf}\n")
        header = ("Model       Precision  Recall  Accuracy  F1 score\n"
                  "----------  ---------  ------  --------  --------\n")
        gbdt_row = "gbdt-small  1.0000     1.0000  1.0000    1.0000  \n"
        eval_dir, eval_rf = pipeline_dir / "eval", pipeline_dir / "eval_rf"
        run_stage(pipeline_dir, ["evaluate", "--model-file", gbdt, "--features", test,
                                 "--out-dir", eval_dir, "--name", "gbdt-small"],
                  [gbdt, test], [eval_dir / "metrics.csv"], header + gbdt_row)
        run_stage(pipeline_dir, ["evaluate", "--model-file", rf, "--features", test,
                                 "--out-dir", eval_rf],
                  [rf, test], [eval_rf / "metrics.csv"],
                  "Model  Precision  Recall  Accuracy  F1 score\n"
                  "-----  ---------  ------  --------  --------\n"
                  "rf     1.0000     1.0000  1.0000    1.0000  \n")
        metrics = (eval_dir / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "model,precision,recall,accuracy,f1"
        assert metrics[1].startswith("gbdt-small,")
        # without --out the table goes to stdout alone, and no manifest is written
        run_stage(pipeline_dir, ["report", "--metrics", eval_dir / "metrics.csv"],
                  [eval_dir / "metrics.csv"], [], header + gbdt_row)
        both = [eval_dir / "metrics.csv", eval_rf / "metrics.csv"]
        out = pipeline_dir / "report.txt"
        text = header + gbdt_row + "rf          1.0000     1.0000  1.0000    1.0000  \n"
        run_stage(pipeline_dir, ["report", "--metrics", *both, "--out", out],
                  both, [out], text)
        assert out.read_text() == text

    def test_balance_stage(self, pipeline_dir):
        features, out = pipeline_dir / "features_train.csv", pipeline_dir / "balanced.csv"
        run_stage(pipeline_dir, ["balance", "--features", features, "--out", out,
                                 "--targets", "N=20,S=30,V=30", "--k-neighbors", 3,
                                 "--seed", 5],
                  [features], [out],
                  "balance: wrote 80 rows, histogram {'N': 20, 'S': 30, 'V': 30}\n")
        _, labels = load_feature_matrix(out)
        assert np.bincount(labels, minlength=3).tolist() == [20, 30, 30]

    def test_encode_emits_four_files_per_beat(self, pipeline_dir):
        beats, out = pipeline_dir / "pre" / "beats.csv", pipeline_dir / "images"
        run_stage(pipeline_dir, ["encode", "--beats", beats, "--out-dir", out],
                  [beats], [out / "index.csv"], f"encode: wrote 90 images to {out}\n")
        f32s = sorted(out.glob("*.f32"))
        assert len(f32s) == 90
        for stem in (p.with_suffix("") for p in f32s[:5]):
            for suffix in ("_gasf.pgm", "_mtf.pgm", "_rp.pgm"):
                assert stem.with_name(stem.name + suffix).exists()
        index = (out / "index.csv").read_text().splitlines()
        assert len(index) == 91  # header + one row per beat

    def test_encode_files_match_pinned_digests(self, pipeline_dir):
        out = pipeline_dir / "images_pinned"
        assert run("encode", "--beats", pipeline_dir / "pre" / "beats.csv",
                   "--out-dir", out) == 0
        assert image_digests(out) == PIPELINE_IMAGE_DIGESTS

    def test_gridsearch(self, pipeline_dir):
        grid = pipeline_dir / "grid.json"
        grid.write_text(json.dumps([
            {"n_estimators": 0},
            {"n_estimators": 6, "max_depth": 3, "min_data_in_leaf": 2},
        ]))
        features, out = pipeline_dir / "features_train.csv", pipeline_dir / "gs"
        run_stage(pipeline_dir, ["gridsearch", "--features", features, "--grid", grid,
                                 "--model", "gbdt", "--folds", 3, "--out-dir", out],
                  [features, grid], [out / "results.csv"],
                  "gridsearch: best combination #1 (mean macro F1 1.0000)\n")
        best = json.loads((out / "best_params.json").read_text())
        assert best["n_estimators"] == 6
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 combinations

    def test_tables_match_pinned_bytes(self, pipeline_dir):
        # the CSV tables the stages write: minimal quoting, \r\n line ends
        features, test = pipeline_dir / "features_train.csv", pipeline_dir / "features_test.csv"
        out = pipeline_dir / "tables"
        out.mkdir()
        grid, grid_rf = out / "grid.json", out / "grid_rf.json"
        grid.write_text(json.dumps([
            {"n_estimators": 0},
            {"n_estimators": 6, "max_depth": 3, "min_data_in_leaf": 2},
        ]))
        grid_rf.write_text(json.dumps([{"n_trees": 2, "max_depth": 2},
                                       {"n_trees": 3, "seed": 4, "min_samples_leaf": 3}]))
        assert run("train", "--features", features, "--out", out / "model.txt",
                   "--n-estimators", 8, "--max-depth", 3, "--min-data-in-leaf", 2) == 0
        assert run("train", "--features", features, "--out", out / "rf.txt",
                   "--model", "rf", "--n-trees", 3, "--seed", 2) == 0
        assert run("evaluate", "--model-file", out / "model.txt", "--features", test,
                   "--out-dir", out / "eval", "--name", "gbdt-small") == 0
        assert run("evaluate", "--model-file", out / "rf.txt", "--features", test,
                   "--out-dir", out / "eval_rf") == 0
        assert run("gridsearch", "--features", features, "--grid", grid, "--folds", 3,
                   "--out-dir", out / "gs") == 0
        assert run("gridsearch", "--model", "rf", "--features", features, "--grid", grid_rf,
                   "--folds", 2, "--targets", "N=20,S=30,V=30", "--k-neighbors", 3,
                   "--seed", 5, "--out-dir", out / "gs_rf") == 0
        assert {name: (out / name).read_bytes() for name in PINNED_TABLES} == PINNED_TABLES


PINNED_TABLES = {
    "eval/metrics.csv": b"model,precision,recall,accuracy,f1\r\n"
                        b"gbdt-small,1.000000,1.000000,1.000000,1.000000\r\n",
    "eval/confusion.csv": b"6,0,0\r\n0,6,0\r\n0,0,6\r\n",
    "eval_rf/metrics.csv": b"model,precision,recall,accuracy,f1\r\n"
                           b"rf,1.000000,1.000000,1.000000,1.000000\r\n",
    "eval_rf/confusion.csv": b"6,0,0\r\n0,6,0\r\n0,0,6\r\n",
    "gs/results.csv": b'index,params,mean_macro_f1,fold_f1\r\n'
                      b'0,"{""n_estimators"": 0}",0.166667,0.166667 0.166667 0.166667\r\n'
                      b'1,"{""max_depth"": 3, ""min_data_in_leaf"": 2, ""n_estimators"": 6}",'
                      b'1.000000,1.000000 1.000000 1.000000\r\n',
    "gs_rf/results.csv": b'index,params,mean_macro_f1,fold_f1\r\n'
                         b'0,"{""max_depth"": 2, ""n_trees"": 2}",0.928944,0.885714 0.972174\r\n'
                         b'1,"{""min_samples_leaf"": 3, ""n_trees"": 3, ""seed"": 4}",'
                         b'0.986087,0.972174 1.000000\r\n',
}


def _record_fits(monkeypatch, name):
    """Wrap ``ecgbeats.cli.<name>`` so each fit's params are recorded."""
    calls, fit = [], getattr(cli, name)

    def recorded(rows, labels, params, n_classes=None):
        calls.append(params)
        return fit(rows, labels, params, n_classes=n_classes)

    monkeypatch.setattr(cli, name, recorded)
    return calls


class TestModelKind:
    def test_every_fit_goes_through_the_cli_names(self, tmp_path, monkeypatch,
                                                  pipeline_dir):
        # the benchmark's tracer wraps these two names in ecgbeats.cli; a fit
        # that bypasses them goes untimed
        fits = {name: _record_fits(monkeypatch, name)
                for name in ("fit_gbdt", "fit_random_forest")}
        features, grid = pipeline_dir / "features_train.csv", tmp_path / "grid.json"
        assert run("train", "--features", features, "--out", tmp_path / "gbdt.txt",
                   "--n-estimators", 1) == 0
        assert run("train", "--model", "rf", "--features", features,
                   "--out", tmp_path / "rf.txt", "--n-trees", 1) == 0
        assert [len(calls) for calls in fits.values()] == [1, 1]
        grid.write_text('[{"n_estimators": 1}, {"n_estimators": 2}]')
        assert run("gridsearch", "--features", features, "--grid", grid,
                   "--folds", 2, "--out-dir", tmp_path / "gs") == 0
        grid.write_text('[{"n_trees": 1}]')
        assert run("gridsearch", "--model", "rf", "--features", features, "--grid", grid,
                   "--folds", 2, "--out-dir", tmp_path / "gs_rf") == 0
        # 2 folds x 1 size group (one fit at n_estimators 2), and 2 folds x 1 candidate
        assert [len(calls) for calls in fits.values()] == [1 + 2, 1 + 2]
        assert all(isinstance(p, GbdtParams) for p in fits["fit_gbdt"])
        assert all(isinstance(p, RfParams) for p in fits["fit_random_forest"])

    def test_grid_entry_seed_wins_over_the_flag(self, tmp_path, monkeypatch, pipeline_dir):
        fits = _record_fits(monkeypatch, "fit_random_forest")
        entry = {"n_trees": 2, "seed": 5}
        (tmp_path / "grid.json").write_text(json.dumps([entry]))
        assert run("gridsearch", "--model", "rf",
                   "--features", pipeline_dir / "features_train.csv",
                   "--grid", tmp_path / "grid.json", "--out-dir", tmp_path / "gs") == 0
        assert len(fits) == 3 and all(p.seed == 5 for p in fits)
        assert json.loads((tmp_path / "gs" / "best_params.json").read_text()) == entry
        # an entry that names no seed takes --seed
        fits.clear()
        (tmp_path / "grid.json").write_text('[{"n_trees": 2}]')
        assert run("gridsearch", "--model", "rf", "--seed", 3,
                   "--features", pipeline_dir / "features_train.csv",
                   "--grid", tmp_path / "grid.json", "--out-dir", tmp_path / "gs3") == 0
        assert len(fits) == 3 and all(p.seed == 3 for p in fits)


def image_digests(out):
    """SHA-256 over every beat image file (name and bytes, in stem order) and
    over index.csv."""
    files = hashlib.sha256()
    for path in sorted(out.glob("beat_*")):
        files.update(path.name.encode() + b"\0" + path.read_bytes())
    return files.hexdigest(), hashlib.sha256((out / "index.csv").read_bytes()).hexdigest()


# written by the per-beat encoder that the batched one replaced
PIPELINE_IMAGE_DIGESTS = (
    "204a5cf5ffd0786cc94951a050ac36f8beab0f7bf902dc5aa267a7e270269e03",
    "e1b27e7f4dcc4545086e891703a0a903b416f7b98aba0ab10538c5dae1cb43f8")
RECORD_3000_IMAGE_DIGESTS = (
    "1f15cd2495b748675d1da7d91099c1f19e1e8ce2da78dae25c18e77535b6e9d0",
    "bdcd63a83cb206f5614e98a218fdb2593c41013220a440be98f70637ad3f1a9b")


def test_encode_of_3000_noisy_beats_matches_pinned_digests(tmp_path):
    # several blocks of cli.ENCODE_CHUNK beats and a partial one
    assert run("synth", "--out-dir", tmp_path / "raw", "--n-beats", 1200,
               "--noise-std", "0.1", "--seed", 5) == 0
    assert run("preprocess", "--signal", tmp_path / "raw" / "signal.csv",
               "--annotations", tmp_path / "raw" / "annotations.csv",
               "--out-dir", tmp_path / "pre") == 0
    lines = (tmp_path / "pre" / "beats.csv").read_bytes().split(b"\r\n")
    (tmp_path / "first.csv").write_bytes(b"\r\n".join(lines[:3001]) + b"\r\n")
    assert run("encode", "--beats", tmp_path / "first.csv",
               "--out-dir", tmp_path / "img") == 0
    assert image_digests(tmp_path / "img") == RECORD_3000_IMAGE_DIGESTS


# the seven artifacts perfbench/run.py digests on its fit-hard workload at
# seed 42, from the record test_synth.py pins (rr_jitter 0.15)
FIT_HARD_SEED42_SHA256 = {
    "beats.csv": "54f2cdd1987b581234bae1f0f556e492065c038d281c6daa16df18877e5e9137",
    "features_train.csv": "fdac37ee42668f0b7b8cd32caa96bb2d7788455eb68fb745da99e07369ea6ff3",
    "features_test.csv": "3a27c1a22d75ccc58baa703ac8cc8f112499f6780b4516a157db36c8beb817f8",
    "balanced.csv": "bd90a7ef356a1e15f9e76d1c614da1186c52f9d8c7a025cab15c2a40623d321a",
    "gbdt.model": "377d00dff8d01ea2bbf18585c4c1089e5595048673ba89ca72e2cc08ba2735ec",
    "rf.model": "65b6aa47015d38c3ea40d2fd744a9ecdf339f7f887e7273ca38d5e44522469b7",
    "images/index.csv": "492faf63e1adf893d03314a126e67a1610d1bb542641ed6a10191df77b18e1d2",
}


# written at the default 1000 rounds by the loop that computed every round;
# the fixed point comes at round 27, so 2,935 of the 3,000 trees hold only +-0.0
FIT_HARD_SEED42_DEFAULT_ROUNDS_SHA256 = {
    "gbdt_default.model": "cf4c0f6b7e5e884e76110c7bb6ebe8b6ae73ec4b65dbffec91c4f0391b1b56c8",
    "eval_default/metrics.csv": "9e04226a921ed9888251af36d8375e5775fe30bccf3dbb133c04d5d137208401",
    "eval_default/confusion.csv":
        "fec793d8c3605cdd80c5a15bee42c1a3297f8f080fdbfec53e4cac26949ff4ba",
}


@pytest.fixture(scope="module")
def fit_hard_chain(tmp_path_factory):
    """The benchmark's fit-hard chain at seed 42, argument for argument, then a
    train at the default rounds and an evaluate of that model."""
    tmp_path = tmp_path_factory.mktemp("fit_hard")
    record = generate(SynthConfig(n_beats=600, noise_std=0.3, rr_jitter=0.15, seed=42))
    write_signal_csv(tmp_path / "signal.csv", record.signal)
    write_annotations_csv(tmp_path / "annotations.csv", record.rpeaks, record.labels)
    out = tmp_path / "out"
    for argv in (
            ["preprocess", "--signal", tmp_path / "signal.csv",
             "--annotations", tmp_path / "annotations.csv", "--fs", 250, "--out-dir", out],
            ["featurize", "--beats", out / "beats.csv", "--out", out / "features.csv",
             "--test-fraction", "0.2", "--split-seed", 42],
            ["balance", "--features", out / "features_train.csv", "--out", out / "balanced.csv",
             "--targets", "N=720,S=720,V=720", "--seed", 42],
            ["train", "--model", "gbdt", "--features", out / "balanced.csv",
             "--out", out / "gbdt.model", "--n-estimators", 20, "--seed", 42],
            ["train", "--model", "rf", "--features", out / "balanced.csv",
             "--out", out / "rf.model", "--n-trees", 10, "--seed", 42],
            ["train", "--model", "gbdt", "--features", out / "balanced.csv",
             "--out", out / "gbdt_default.model"],
            ["evaluate", "--model-file", out / "gbdt_default.model",
             "--features", out / "features_test.csv", "--out-dir", out / "eval_default"]):
        assert run(*argv) == 0
    # the header and the first 10 beats, copied in text mode as write_encode_input does
    with open(out / "beats.csv") as src, open(out / "encode_input.csv", "w") as dst:
        dst.writelines(line for _, line in zip(range(11), src))
    assert run("encode", "--beats", out / "encode_input.csv", "--out-dir", out / "images") == 0
    return out


def sha256_of(root, names):
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in names}


def test_fit_hard_chain_artifacts_pinned(fit_hard_chain):
    # the benchmark compares artifacts only between the chains of one run, so
    # this pins them across commits
    assert sha256_of(fit_hard_chain, FIT_HARD_SEED42_SHA256) == FIT_HARD_SEED42_SHA256


def test_fit_hard_default_rounds_pinned(fit_hard_chain):
    # the rounds past the fixed point are copied, not computed, and the model
    # and its scores keep the bytes of the loop that computed them all
    assert (sha256_of(fit_hard_chain, FIT_HARD_SEED42_DEFAULT_ROUNDS_SHA256)
            == FIT_HARD_SEED42_DEFAULT_ROUNDS_SHA256)


def test_default_rounds_model_predicts_the_per_tree_sum(fit_hard_chain, monkeypatch):
    # 2,935 of its 3,000 trees hold only +-0.0: prediction routes none of them
    model = load_model(fit_hard_chain / "gbdt_default.model")
    rows = np.vstack([load_feature_matrix(fit_hard_chain / name)[0]
                      for name in ("features_test.csv", "balanced.csv")])
    want = per_tree_gbdt_probs(model, rows)
    routed = routed_trees(monkeypatch)
    assert predict_proba(model, rows).tobytes() == want.tobytes()
    assert len(routed) == sum(tree.value.any() for tree in model.trees) == 65


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        files = ("signal.csv", "annotations.csv", "signal.csv.manifest.json",
                 "pre/beats.csv", "pre/record_meta.json",
                 "pre/beats.csv.manifest.json")

        def run_stages():
            assert run("synth", "--out-dir", tmp_path, "--n-beats", 10,
                       "--seed", 3, "--noise-std", "0.05") == 0
            assert run("preprocess", "--signal", tmp_path / "signal.csv",
                       "--annotations", tmp_path / "annotations.csv",
                       "--fs", 250, "--out-dir", tmp_path / "pre") == 0
            return {rel: (tmp_path / rel).read_bytes() for rel in files}

        first = run_stages()
        second = run_stages()
        for rel in files:
            assert first[rel] == second[rel], rel


class TestErrors:
    def test_missing_input_names_file(self, tmp_path, capsys):
        code = run("featurize", "--beats", tmp_path / "nope.csv",
                   "--out", tmp_path / "f.csv")
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_failed_stage_leaves_no_manifest(self, tmp_path, capsys, pipeline_dir):
        # the train file is written, then the test file cannot be
        (tmp_path / "f_test.csv").mkdir()
        code = run("featurize", "--beats", pipeline_dir / "pre" / "beats.csv",
                   "--test-fraction", "0.2", "--out", tmp_path / "f.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert (tmp_path / "f_train.csv").exists()
        assert not (tmp_path / "f_train.csv.manifest.json").exists()

    @pytest.mark.parametrize("split, field", [
        (["--test-fraction", "2"], "test_fraction"),
        (["--test-fraction", "0.2", "--split-seed", "-1"], "seed"),
    ], ids=["test-fraction", "split-seed"])
    def test_bad_split_flag_writes_nothing(self, tmp_path, capsys, pipeline_dir, split, field):
        code = run("featurize", "--beats", pipeline_dir / "pre" / "beats.csv",
                   "--out", tmp_path / "new" / "f.csv", *split)
        assert code == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_bad_flag_value_is_validation_error(self, tmp_path):
        assert run("synth", "--out-dir", tmp_path, "--n-beats", 0) == 1

    @pytest.mark.parametrize("argv, message", [
        (["train", "--features", "f.csv", "--out", "m.txt", "--max-depth", "1.5"],
         "error: ecgbeats train: argument --max-depth: invalid int value: '1.5'\n"),
        (["synth", "--n-beats", "5"],
         "error: ecgbeats synth: the following arguments are required: --out-dir\n"),
    ], ids=["unconvertible", "missing-required"])
    def test_flag_argparse_refuses_is_exit_1(self, tmp_path, capsys, argv, message):
        # argparse's own exit would be 2, the code of malformed data
        assert run(*argv) == 1
        assert capsys.readouterr().err == message

    @staticmethod
    def shortest_prefixes(parser):
        """(shortest unique prefix, action) of each long flag of parser that
        has a prefix no other of its long flags starts with."""
        flags = [flag for a in parser._actions for flag in a.option_strings
                 if flag.startswith("--")]
        for action in parser._actions:
            for flag in action.option_strings:
                prefix = next((flag[:n] for n in range(3, len(flag))
                               if sum(f.startswith(flag[:n]) for f in flags) == 1), None)
                if flag.startswith("--") and prefix:
                    yield prefix, action

    @pytest.mark.parametrize("stage", ["synth", "preprocess", "featurize", "balance", "encode",
                                       "train", "evaluate", "gridsearch", "report"])
    def test_abbreviated_flag_is_exit_1(self, tmp_path, capsys, stage):
        # each required flag given in full, then one flag cut to its shortest
        # unique prefix with its default value, a value argparse would accept
        parser = cli.build_parser({})
        stages = next(a for a in parser._actions if a.dest == "stage").choices
        sub = stages[stage]
        required = [arg for a in sub._actions if a.required
                    for arg in (a.option_strings[0], tmp_path / a.dest)]
        cases = list(self.shortest_prefixes(sub))
        assert len(cases) >= 2              # --help and at least one of the stage's own
        for prefix, action in cases:
            value = [] if action.nargs == 0 else [
                tmp_path / "x" if action.default is None else action.default]
            assert run(stage, *required, prefix, *value) == 1, prefix
            unrecognized = " ".join(map(str, [prefix, *value]))
            assert (capsys.readouterr().err
                    == f"error: ecgbeats: unrecognized arguments: {unrecognized}\n")
        assert list(tmp_path.iterdir()) == []

    def test_abbreviated_config_flag_is_exit_1(self, tmp_path, capsys):
        (tmp_path / "config.json").write_text("{}")
        assert [prefix for prefix, _ in self.shortest_prefixes(cli.build_parser({}))] == [
            "--h", "--c"]
        assert run("--c", tmp_path / "config.json", "synth", "--out-dir", tmp_path / "x") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("prefix", ["--c", "--conf", "--h"])
    def test_abbreviated_top_level_flag_is_named(self, tmp_path, capsys, prefix):
        # not "invalid choice" for the config path: the message names the flag
        (tmp_path / "cfg.json").write_text("{}")
        assert run(prefix, tmp_path / "cfg.json", "synth", "--out-dir", tmp_path / "x") == 1
        assert capsys.readouterr() == (
            "", f"error: ecgbeats: unrecognized arguments: {prefix}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            run("synth", "--help")
        assert info.value.code == 0
        assert "--out-dir" in capsys.readouterr().out

    def test_all_validation_failures_listed_at_once(self, tmp_path, capsys):
        code = run("train", "--features", tmp_path / "f.csv",
                   "--out", tmp_path / "m.txt",
                   "--learning-rate", "0", "--max-depth", "0",
                   "--min-data-in-leaf", "0")
        assert code == 1
        err = capsys.readouterr().err
        for field in ("learning_rate", "max_depth", "min_data_in_leaf"):
            assert field in err

    @pytest.mark.parametrize("targets, message", [
        ("N=abc,S=5,V=5", "bad target 'N="),
        ("N=-5,S=5,V=5", "targets must map class ids >= 0 to counts >= 1"),
        ("N=0,S=5,V=5", "targets must map class ids >= 0 to counts >= 1"),
    ], ids=["N=abc,S=5,V=5", "N=-5,S=5,V=5", "N=0,S=5,V=5"])
    def test_bad_targets_are_validation_errors(self, tmp_path, capsys, targets, message):
        for stage_args in (["balance", "--out", tmp_path / "b.csv"],
                           ["gridsearch", "--grid", tmp_path / "g.json",
                            "--out-dir", tmp_path / "gs"]):
            code = run(*stage_args, "--features", tmp_path / "f.csv", "--targets", targets)
            assert code == 1
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("blank_lines, line", [(0, 302), (2, 304)])
    def test_out_of_range_beat_refused_before_any_image(self, tmp_path, capsys,
                                                        blank_lines, line):
        # row 300 of 600 lies past the first cli.ENCODE_CHUNK beats
        rng = np.random.default_rng(0)
        samples = rng.uniform(-1.0, 1.0, size=(600, BEAT_LEN))
        samples[300, 17] = 5.0
        beats = tmp_path / "beats.csv"
        write_beats_csv(beats, Beats(samples=samples, rpeak=np.arange(600) * 200,
                                     label=np.arange(600) % 3, rr_prev=np.full(600, 0.8),
                                     rr_next=np.full(600, 0.8), raw_amp=np.ones(600)))
        lines = beats.read_bytes().split(b"\r\n")
        beats.write_bytes(b"\r\n".join(lines[:10] + [b""] * blank_lines + lines[10:]))
        code = run("encode", "--beats", beats, "--out-dir", tmp_path / "img")
        assert code == 1
        assert f"beats.csv:{line}: beat samples must lie in [-1, 1]" in capsys.readouterr().err
        assert not (tmp_path / "img").exists()

    def test_evaluate_rejects_cyclic_model(self, tmp_path, capsys, pipeline_dir):
        model = tmp_path / "m.txt"
        assert run("train", "--features", pipeline_dir / "features_train.csv",
                   "--out", model, "--n-estimators", 1, "--max-depth", 2,
                   "--min-data-in-leaf", 2) == 0
        lines = model.read_text().splitlines()
        split = next(i for i, ln in enumerate(lines) if ln.startswith("n 0 split"))
        lines[split] = " ".join(lines[split].split()[:5] + ["0", "0"])
        model.write_text("\n".join(lines) + "\n")
        code = run("evaluate", "--model-file", model,
                   "--features", pipeline_dir / "features_test.csv",
                   "--out-dir", tmp_path / "eval")
        assert code == 2
        assert "m.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["zero_leaf", "no_trees"])
    def test_evaluate_rejects_rf_that_predicts_nan(self, tmp_path, capsys, pipeline_dir,
                                                   edit):
        model = tmp_path / "rf.txt"
        assert run("train", "--model", "rf", "--features", pipeline_dir / "features_train.csv",
                   "--out", model, "--n-trees", 2) == 0
        lines = model.read_text().splitlines()
        if edit == "zero_leaf":
            at = next(i for i, ln in enumerate(lines) if " leaf " in ln)
            lines[at] = " ".join(lines[at].split()[:3] + ["0", "0", "0"])
        else:
            at = lines.index("n_trees 2")
            lines[at:] = ["n_trees 0", "end"]
        model.write_text("\n".join(lines) + "\n")
        code = run("evaluate", "--model-file", model,
                   "--features", pipeline_dir / "features_test.csv",
                   "--out-dir", tmp_path / "eval")
        assert code == 2
        assert f"rf.txt:{at + 1}: " in capsys.readouterr().err
        assert not (tmp_path / "eval" / "metrics.csv").exists()

    @pytest.mark.parametrize("key, numeral", [("n_classes", "\u0663"), ("n_features", "7_6")])
    def test_evaluate_rejects_model_numerals_int_reads(self, tmp_path, capsys, pipeline_dir,
                                                        key, numeral):
        # int() reads 3 and 76, the values the file holds; the model reader does not
        model = tmp_path / "m.txt"
        assert run("train", "--features", pipeline_dir / "features_train.csv",
                   "--out", model, "--n-estimators", 1, "--max-depth", 2) == 0
        lines = model.read_text().splitlines()
        at = lines.index(f"{key} {int(numeral)}")
        lines[at] = f"{key} {numeral}"
        model.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run("evaluate", "--model-file", model,
                   "--features", pipeline_dir / "features_test.csv",
                   "--out-dir", tmp_path / "eval")
        assert code == 2
        assert f"m.txt:{at + 1}: expected an integer, found {numeral!r}" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "metrics.csv").exists()

    def test_evaluate_rejects_gbdt_whose_scores_overflow(self, tmp_path, capsys,
                                                         pipeline_dir):
        model = tmp_path / "m.txt"
        assert run("train", "--features", pipeline_dir / "features_train.csv",
                   "--out", model, "--n-estimators", 2, "--max-depth", 2,
                   "--min-data-in-leaf", 2) == 0
        lines = model.read_text().splitlines()
        for i, line in enumerate(lines):
            if " leaf " in line:
                lines[i] = " ".join(line.split()[:3] + ["1e308"])
        model.write_text("\n".join(lines) + "\n")
        code = run("evaluate", "--model-file", model,
                   "--features", pipeline_dir / "features_test.csv",
                   "--out-dir", tmp_path / "eval")
        assert code == 2
        assert "m.txt:" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "metrics.csv").exists()

    def test_killed_gbdt_worker_is_one_error_line(self, tmp_path, pipeline_dir):
        # the first worker to build a tree SIGKILLs itself, as the OOM killer
        # would: exit 2 with one line, no model file, and no hang
        script = "\n".join([
            "import os, signal, sys",
            "from ecgbeats import cli",
            "from ecgbeats.model import gbdt",
            "build = gbdt._build_tree",
            "def killing_build(*args):",
            "    try:",
            "        os.close(os.open(sys.argv[1], os.O_CREAT | os.O_EXCL))",
            "    except FileExistsError:",
            "        return build(*args)",
            "    os.kill(os.getpid(), signal.SIGKILL)",
            "gbdt._build_tree = killing_build",
            "gbdt._usable_cpus = lambda: 2",
            "gbdt._POOL_MIN_ROW_ROUNDS = 0",
            "sys.exit(cli.main(sys.argv[2:]))",
        ])
        model = tmp_path / "m.txt"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run(     # a hang is a TimeoutExpired failure
            [sys.executable, "-c", script, str(tmp_path / "killed"), "train",
             "--features", str(pipeline_dir / "features_train.csv"), "--out", str(model),
             "--n-estimators", "3", "--max-depth", "2", "--min-data-in-leaf", "2"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: GBDT worker process died in round 1 ")
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert (tmp_path / "killed").exists()
        assert not model.exists()

    def test_nan_signal_line_is_data_error(self, tmp_path, capsys):
        d = tmp_path / "raw"
        assert run("synth", "--out-dir", d, "--n-beats", 5) == 0
        lines = (d / "signal.csv").read_text().splitlines()
        lines[9] = "nan"
        (d / "signal.csv").write_text("\n".join(lines) + "\n")
        code = run("preprocess", "--signal", d / "signal.csv",
                   "--annotations", d / "annotations.csv", "--fs", 250,
                   "--out-dir", tmp_path / "pre")
        assert code == 2
        assert "signal.csv:10: non-finite" in capsys.readouterr().err
        assert not (tmp_path / "pre" / "beats.csv").exists()

    def test_nan_feature_is_data_error(self, tmp_path, capsys, pipeline_dir):
        lines = (pipeline_dir / "features_train.csv").read_text().splitlines()
        fields = lines[3].split(",")
        fields[5] = "nan"
        lines[3] = ",".join(fields)
        features = tmp_path / "f.csv"
        features.write_text("\n".join(lines) + "\n")
        code = run("balance", "--features", features, "--out", tmp_path / "b.csv",
                   "--targets", "N=30,S=30,V=30")
        assert code == 2
        assert "f.csv:4: non-finite" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    def test_undecodable_annotation_is_data_error(self, tmp_path, capsys):
        d = tmp_path / "raw"
        assert run("synth", "--out-dir", d, "--n-beats", 5) == 0
        (d / "annotations.csv").write_bytes(b"sample_index,label\n\xff\xfe,N\n")
        code = run("preprocess", "--signal", d / "signal.csv",
                   "--annotations", d / "annotations.csv", "--fs", 250,
                   "--out-dir", tmp_path / "pre")
        assert code == 2
        assert "annotations.csv:2: undecodable byte 0xff" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["7", "-1"])
    def test_out_of_set_label_rejected_by_balance_as_by_train(self, tmp_path, capsys,
                                                              pipeline_dir, label):
        lines = (pipeline_dir / "features_train.csv").read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + "," + label
        features = tmp_path / "f.csv"
        features.write_text("\n".join(lines) + "\n")
        code = run("balance", "--features", features, "--out", tmp_path / "b.csv",
                   "--targets", "N=20,S=20,V=20")
        assert code == 1
        assert "labels outside 0..2" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()
        code = run("train", "--features", features, "--out", tmp_path / "m.txt",
                   "--n-estimators", 1)
        assert code == 1
        assert "labels outside 0..2" in capsys.readouterr().err

    def test_out_of_set_label_rejected_by_gridsearch(self, tmp_path, capsys, pipeline_dir):
        # six rows of class 3 fill every fold, so only --labels can refuse them
        lines = (pipeline_dir / "features_train.csv").read_text().splitlines()
        for i in range(1, 7):
            lines[i] = lines[i].rsplit(",", 1)[0] + ",3"
        features = tmp_path / "f.csv"
        features.write_text("\n".join(lines) + "\n")
        (tmp_path / "grid.json").write_text('[{"n_trees": 2}]')
        code = run("gridsearch", "--model", "rf", "--features", features,
                   "--grid", tmp_path / "grid.json", "--out-dir", tmp_path / "gs")
        assert code == 1
        assert "labels outside 0..2" in capsys.readouterr().err
        assert not (tmp_path / "gs").exists()

    def test_gridsearch_scores_with_k_from_labels(self, tmp_path, pipeline_dir):
        # no row of V: K = 3 from --labels scores V's F1 as 0, as evaluate does
        rows, labels = load_feature_matrix(pipeline_dir / "features_train.csv")
        features = tmp_path / "f.csv"
        save_feature_matrix(rows[labels < 2], labels[labels < 2], features)
        (tmp_path / "grid.json").write_text('[{"n_trees": 3}]')
        fold_f1 = {}
        for symbols in ("N,S", "N,S,V"):
            assert run("gridsearch", "--model", "rf", "--features", features,
                       "--grid", tmp_path / "grid.json", "--labels", symbols,
                       "--out-dir", tmp_path / symbols) == 0
            with open(tmp_path / symbols / "results.csv", newline="") as fh:
                row, = list(csv.DictReader(fh))
            fold_f1[symbols] = [float(f) for f in row["fold_f1"].split()]
        # the forest's splits and votes do not depend on an empty class
        assert fold_f1["N,S,V"] == pytest.approx([f * 2 / 3 for f in fold_f1["N,S"]],
                                                 abs=1e-6)

    def test_annotation_index_outside_int64_is_data_error(self, tmp_path, capsys):
        d = tmp_path / "raw"
        assert run("synth", "--out-dir", d, "--n-beats", 5) == 0
        (d / "annotations.csv").write_text(
            "sample_index,label\n99999999999999999999999,N\n")
        code = run("preprocess", "--signal", d / "signal.csv",
                   "--annotations", d / "annotations.csv", "--fs", 250,
                   "--out-dir", tmp_path / "pre")
        assert code == 2
        err = capsys.readouterr().err
        assert "annotations.csv:2: sample index '99999999999999999999999' outside int64" in err
        assert not (tmp_path / "pre").exists()

    @pytest.mark.parametrize("index", ["1_0", "\u0663"])
    def test_annotation_index_numpy_would_refuse_is_data_error(self, tmp_path, capsys,
                                                                index):
        # int() reads digit separators and non-ASCII digits; the signal reader does not
        d = tmp_path / "raw"
        assert run("synth", "--out-dir", d, "--n-beats", 5) == 0
        (d / "annotations.csv").write_text(f"sample_index,label\n 7 ,N\n{index},N\n",
                                           encoding="utf-8")
        code = run("preprocess", "--signal", d / "signal.csv",
                   "--annotations", d / "annotations.csv", "--fs", 250,
                   "--out-dir", tmp_path / "pre")
        assert code == 2
        err = capsys.readouterr().err
        assert f"annotations.csv:3: non-integer sample index {index!r}" in err
        assert not (tmp_path / "pre").exists()

    @pytest.mark.parametrize("text, message", [
        ("model,precision,recall,accuracy,f1\ngbdt,abc,0.9,0.9,0.9\n",
         "metrics.csv:2: metric 'abc' is not a number in [0, 1]"),
        ("name,precision,recall,accuracy,f1\ngbdt,0.9,0.9,0.9,0.9\n",
         "metrics.csv:1: expected header 'model,precision,recall,accuracy,f1'"),
        ("model,precision,recall,accuracy,f1\ngbdt,0.9,0.9,0.9,0.9\nrf,0.9,0.9\n",
         "metrics.csv:3: expected 5 columns, got 3"),
        ("model,precision,recall,accuracy,f1\ngbdt,0.9,nan,0.9,0.9\n",
         "metrics.csv:2: metric 'nan' is not a number in [0, 1]"),
        ("model,precision,recall,accuracy,f1\ngbdt,0.9,0.9,inf,0.9\n",
         "metrics.csv:2: metric 'inf' is not a number in [0, 1]"),
        ("model,precision,recall,accuracy,f1\ngbdt,0.9,0.9,0.9,1_0\n",
         "metrics.csv:2: metric '1_0' is not a number in [0, 1]"),
        ("model,precision,recall,accuracy,f1\n\xe9,0.9,0.9,0.9,0.9\n",
         "metrics.csv:2: undecodable byte 0xe9"),
        ("model,precision,recall,accuracy,f1\n" + "x" * 200_000 + ",0.9,0.9,0.9,0.9\n",
         "metrics.csv:2: field larger than field limit (131072)"),
    ])
    def test_malformed_metrics_csv_is_data_error(self, tmp_path, capsys, text, message):
        good = tmp_path / "good.csv"
        good.write_text("model,precision,recall,accuracy,f1\nrf,0.5,0.5,0.5,0.5\n")
        (tmp_path / "metrics.csv").write_bytes(text.encode("latin-1"))
        code = run("report", "--metrics", good, tmp_path / "metrics.csv",
                   "--out", tmp_path / "report.txt")
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {tmp_path / message}"]
        assert not (tmp_path / "report.txt").exists()

    def test_duplicate_target_symbol_is_validation_error(self, tmp_path, capsys,
                                                        pipeline_dir):
        code = run("balance", "--features", pipeline_dir / "features_train.csv",
                   "--out", tmp_path / "b.csv", "--targets", "N=30,N=40,S=30,V=30")
        assert code == 1
        assert "bad target 'N=40'; N is named twice" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    def test_unparsable_grid_is_validation_error(self, tmp_path, capsys, pipeline_dir):
        grid = tmp_path / "grid.json"
        grid.write_text('[{"n_estimators": 2,]')
        code = run("gridsearch", "--features", pipeline_dir / "features_train.csv",
                   "--grid", grid, "--out-dir", tmp_path / "gs")
        assert code == 1
        assert "grid.json: not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("target, code", [("config", 1), ("grid", 1), ("record_meta", 2)])
    def test_deeply_nested_json_is_one_error_line(self, tmp_path, capsys, pipeline_dir,
                                                  target, code):
        deep, out = tmp_path / f"{target}.json", tmp_path / "out"
        deep.write_text("[" * 200_000)   # past the JSON decoder's recursion limit
        argv = {"config": ["--config", deep, "synth", "--out-dir", out],
                "grid": ["gridsearch", "--features", pipeline_dir / "features_train.csv",
                         "--grid", deep, "--out-dir", out],
                "record_meta": ["featurize", "--beats", pipeline_dir / "pre" / "beats.csv",
                                "--meta", deep, "--out", out / "f.csv"]}[target]
        assert run(*argv) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {deep}: not valid JSON (")
        assert not out.exists()

    @pytest.mark.parametrize("meta", ['{"hrv_mean": 0.8', "[1, 2, 3]",
                                      '{"hrv_mean": 0.8, "hrv_median": 0.8}',
                                      '{"hrv_mean": 0.8, "hrv_median": 0.8, "hrv_var": NaN}',
                                      '{"hrv_mean": "0.8", "hrv_median": 0.8, "hrv_var": 0}'])
    def test_bad_record_meta_is_data_error(self, tmp_path, capsys, pipeline_dir, meta):
        (tmp_path / "meta.json").write_text(meta)
        code = run("featurize", "--beats", pipeline_dir / "pre" / "beats.csv",
                   "--meta", tmp_path / "meta.json", "--out", tmp_path / "f.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert "meta.json: " in err and "Traceback" not in err
        assert not (tmp_path / "f.csv").exists()

    def test_band_validation(self, tmp_path):
        d = tmp_path / "raw"
        assert run("synth", "--out-dir", d, "--n-beats", 5) == 0
        code = run("preprocess", "--signal", d / "signal.csv",
                   "--annotations", d / "annotations.csv", "--fs", 250,
                   "--out-dir", tmp_path / "pre",
                   "--low-hz", "50", "--high-hz", "35")
        assert code == 1

    def test_signal_too_large_to_filter_is_data_error(self, tmp_path, capsys):
        # 1.7e308 passes the reader (it is finite) but overflows in the filter
        d = tmp_path / "raw"
        assert run("synth", "--out-dir", d, "--n-beats", 30) == 0
        lines = (d / "signal.csv").read_text().splitlines()
        lines[1000:1200] = ["1.7e308"] * 200
        (d / "signal.csv").write_text("\n".join(lines) + "\n")
        code = run("preprocess", "--signal", d / "signal.csv",
                   "--annotations", d / "annotations.csv", "--fs", 250,
                   "--out-dir", tmp_path / "pre")
        assert code == 2
        err = capsys.readouterr().err
        assert "signal.csv: the filtered signal is not finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "pre").exists()

    def test_empty_label_symbol_refused(self, tmp_path, capsys):
        d = tmp_path / "raw"
        assert run("synth", "--out-dir", d, "--n-beats", 5) == 0
        code = run("preprocess", "--signal", d / "signal.csv",
                   "--annotations", d / "annotations.csv", "--labels", "N,,V",
                   "--out-dir", tmp_path / "pre")
        assert code == 1
        assert "label symbols must be unique and non-empty" in capsys.readouterr().err
        assert not (tmp_path / "pre").exists()

    def test_strict_unknown_label(self, tmp_path, capsys):
        d = tmp_path / "raw"
        assert run("synth", "--out-dir", d, "--n-beats", 5) == 0
        ann = d / "annotations.csv"
        ann.write_text(ann.read_text() + "10,Q\n")
        assert run("preprocess", "--signal", d / "signal.csv", "--annotations", ann,
                   "--fs", 250, "--out-dir", tmp_path / "clean",
                   "--strict") == 1
        assert f"{ann}: label 'Q' not in ('N', 'S', 'V')" in capsys.readouterr().err
        assert not (tmp_path / "clean").exists()
        # non-strict skips and succeeds
        assert run("preprocess", "--signal", d / "signal.csv", "--annotations", ann,
                   "--fs", 250, "--out-dir", tmp_path / "clean") == 0

    def test_rr_spans_every_annotated_peak(self, tmp_path):
        # N N Q N N N, one peak a second: the Q is no beat, but the beats on
        # either side of it are 1 s from it, and the HRV counts all 6 peaks
        signal = np.random.default_rng(0).normal(scale=0.1, size=7 * 250)
        write_signal_csv(tmp_path / "s.csv", signal)
        write_annotations_csv(tmp_path / "a.csv", [250 * k for k in range(1, 7)], "NNQNNN")
        assert run("preprocess", "--signal", tmp_path / "s.csv",
                   "--annotations", tmp_path / "a.csv", "--fs", 250,
                   "--out-dir", tmp_path / "pre") == 0
        beats = read_beats_csv(tmp_path / "pre" / "beats.csv")
        assert beats.rpeak.tolist() == [360, 720, 900]
        assert beats.rr_prev.tolist() == beats.rr_next.tolist() == [1.0, 1.0, 1.0]
        meta = json.loads((tmp_path / "pre" / "record_meta.json").read_text())
        assert (meta["n_rpeaks"], meta["n_beats"], meta["n_dropped"],
                meta["skipped_labels"]) == (6, 3, 2, 1)
        assert (meta["hrv_mean"], meta["hrv_median"], meta["hrv_var"]) == (1.0, 1.0, 0.0)

    def test_unknown_label_duplicating_a_peak_refused(self, tmp_path, capsys):
        d = tmp_path / "raw"
        assert run("synth", "--out-dir", d, "--n-beats", 5) == 0
        ann = d / "annotations.csv"
        peak = ann.read_text().splitlines()[3].split(",")[0]
        ann.write_text(ann.read_text() + f"{peak},Q\n")
        assert run("preprocess", "--signal", d / "signal.csv", "--annotations", ann,
                   "--fs", 250, "--out-dir", tmp_path / "pre") == 1
        assert "R-peak indices must be strictly increasing" in capsys.readouterr().err
        assert not (tmp_path / "pre").exists()

    @pytest.mark.parametrize("fs, shown", [("1e300", "1e+300"), ("1e6", "1000000.0")])
    def test_rpeaks_merging_when_downsampling_names_both_rates(self, tmp_path, capsys,
                                                                 fs, shown):
        d = tmp_path / "raw"
        assert run("synth", "--out-dir", d, "--n-beats", 20, "--noise-std", 0.05,
                   "--seed", 3) == 0
        assert run("preprocess", "--signal", d / "signal.csv",
                   "--annotations", d / "annotations.csv", "--fs", fs,
                   "--out-dir", tmp_path / "pre") == 1
        assert (f"R-peaks collided while resampling from {shown} Hz to 180.0 Hz: at that "
                "ratio adjacent R-peaks merge onto one sample") in capsys.readouterr().err
        assert not (tmp_path / "pre").exists()

    def test_evaluate_of_a_file_with_no_rows_names_it(self, tmp_path, capsys,
                                                      pipeline_dir):
        model = tmp_path / "m.txt"
        assert run("train", "--features", pipeline_dir / "features_train.csv",
                   "--out", model, "--n-estimators", 1, "--max-depth", 2,
                   "--min-data-in-leaf", 2) == 0
        empty = tmp_path / "empty.csv"
        save_feature_matrix(np.empty((0, 76)), np.empty(0, dtype=int), empty)
        code = run("evaluate", "--model-file", model, "--features", empty,
                   "--out-dir", tmp_path / "eval")
        assert code == 2
        assert f"{empty}: no feature rows" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("n_classes", [65, 3000, 100000000])
    def test_evaluate_refuses_a_model_past_the_class_bound(self, tmp_path, capsys,
                                                           pipeline_dir, n_classes):
        # a header with no trees, so only the class count can refuse it; at
        # 10^8, evaluate's K x K confusion matrix was a 268 GiB allocation
        model = tmp_path / "m.txt"
        model.write_text(f"ecgbeats-model 1\nkind gbdt\nn_classes {n_classes}\n"
                         "n_features 76\nn_rounds 0\nn_trees 0\nend\n")
        code = run("evaluate", "--model-file", model,
                   "--features", pipeline_dir / "features_test.csv",
                   "--out-dir", tmp_path / "eval")
        assert code == 2
        assert capsys.readouterr().err == f"error: {model}:3: {n_classes} outside [1, 65)\n"
        assert not (tmp_path / "eval").exists()

    def test_labels_past_the_class_bound_refused(self, tmp_path, capsys, pipeline_dir):
        labels = ",".join(["N", "S", "V"] + [f"c{i}" for i in range(3, MAX_CLASSES + 1)])
        code = run("train", "--features", pipeline_dir / "features_train.csv",
                   "--out", tmp_path / "m.txt", "--labels", labels)
        assert code == 1
        assert f"at most {MAX_CLASSES} label symbols, got 65" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("model_kind", ["gbdt", "rf"])
    def test_a_model_of_max_classes_loads(self, tmp_path, pipeline_dir, model_kind):
        labels = ",".join(["N", "S", "V"] + [f"c{i}" for i in range(3, MAX_CLASSES)])
        model = tmp_path / "m.txt"
        assert run("train", "--features", pipeline_dir / "features_train.csv",
                   "--out", model, "--labels", labels, "--model", model_kind,
                   "--n-estimators", 1, "--max-depth", 2, "--n-trees", 1) == 0
        assert run("evaluate", "--model-file", model,
                   "--features", pipeline_dir / "features_test.csv",
                   "--out-dir", tmp_path / "eval") == 0
        with open(tmp_path / "eval" / "confusion.csv") as fh:
            assert len(fh.readlines()) == MAX_CLASSES

    @pytest.mark.parametrize("stage, name, argv", [
        ("synth", "generate", ["--n-beats", 100000000000]),
        ("balance", "apply_plan", ["--targets", "N=100000000000,S=10,V=10"]),
    ])
    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 745. GiB for an array"),
         "Unable to allocate 745. GiB for an array"),
        (MemoryError(), "out of memory"),
    ])
    def test_memory_error_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                            pipeline_dir, stage, name, argv, exc, message):
        # the stage's allocation is refused before anything is written
        def refused(*args, **kwargs):
            raise exc

        module = {"synth": cli.synth_mod, "balance": cli.balance_mod}[stage]
        monkeypatch.setattr(module, name, refused)
        out = tmp_path / "out"
        io = {"synth": ["--out-dir", out],
              "balance": ["--features", pipeline_dir / "features_train.csv", "--out", out]}
        assert run(stage, *io[stage], *argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synth": {"n_beats": 5, "seed": 9}}))
        # config default: 5 beats/class + 2 guard beats = 17 annotations
        assert run("--config", config, "synth", "--out-dir", tmp_path / "a") == 0
        assert "wrote 17 beats" in capsys.readouterr().out
        # explicit flag beats the config value: 3*4 + 2 = 14
        assert run("--config", config, "synth", "--out-dir", tmp_path / "b",
                   "--n-beats", 4) == 0
        assert "wrote 14 beats" in capsys.readouterr().out

    def test_unknown_config_key_listed(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synth": {"bogus_key": 1}}))
        assert run("--config", config, "synth", "--out-dir", tmp_path / "x") == 1

    def test_help_is_no_config_key(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synth": {"help": True}}))
        assert run("--config", config, "synth", "--out-dir", tmp_path / "x") == 1
        assert "unknown keys: ['help']" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_unknown_stage_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"not_a_stage": {}}))
        assert run("--config", config, "synth", "--out-dir", tmp_path / "x") == 1

    def test_ingest_is_no_longer_a_stage(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ingest": {"fs": 250.0}}))
        assert run("--config", config, "synth", "--out-dir", tmp_path / "x") == 1
        assert "unknown stages ['ingest']" in capsys.readouterr().err
        assert "ingest" not in cli.build_parser({}).format_usage()

    @pytest.mark.parametrize("text, message", [
        ('{"synth": {"n_beats": 5}', "not valid JSON"),
        (b'{"synth": {"n_beats": 5}, "x": "\xff"}', "not valid JSON"),
        ('{"synth": 5}', "config section 'synth' must be a JSON object"),
        ('{"synth": [1]}', "config section 'synth' must be a JSON object"),
        ('[{"synth": {}}]', "config must be a JSON object"),
    ])
    def test_malformed_config_is_validation_error(self, tmp_path, capsys, text, message):
        config = tmp_path / "config.json"
        if isinstance(text, bytes):
            config.write_bytes(text)
        else:
            config.write_text(text)
        assert run("--config", config, "synth", "--out-dir", tmp_path / "x") == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("stage, key", [("balance", "targets"), ("gridsearch", "targets"),
                                            ("balance", "labels"), ("train", "labels")])
    def test_non_string_targets_or_labels_from_config(self, tmp_path, capsys, stage, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({stage: {key: 5}}))
        extra = {"balance": ["--out", tmp_path / "b.csv"],
                 "train": ["--out", tmp_path / "m.txt"],
                 "gridsearch": ["--grid", tmp_path / "g.json", "--out-dir", tmp_path / "gs"]}
        assert run("--config", config, stage, "--features", tmp_path / "f.csv",
                   *extra[stage]) == 1
        assert f"{key} must be a string" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["train", "gridsearch"])
    def test_config_model_outside_choices(self, tmp_path, capsys, stage):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({stage: {"model": "xgb"}}))
        extra = {"train": ["--out", tmp_path / "m.txt"],
                 "gridsearch": ["--grid", tmp_path / "g.json", "--out-dir", tmp_path / "gs"]}
        assert run("--config", config, stage, "--features", tmp_path / "f.csv",
                   *extra[stage]) == 1
        err = capsys.readouterr().err
        assert f"config {stage}.model must be one of gbdt, rf, got 'xgb'" in err
        assert not list(tmp_path.glob("m.txt*")) and not (tmp_path / "gs").exists()

    @pytest.mark.parametrize("stage, section, argv", [
        ("featurize", {"meta": 5}, ["--beats", "pre/beats.csv", "--out", "f.csv"]),
        ("featurize", {"meta": ["x"]}, ["--beats", "pre/beats.csv", "--out", "f.csv"]),
        ("evaluate", {"name": 5}, ["--model-file", "m.txt", "--features", "f.csv",
                                   "--out-dir", "eval"]),
        ("report", {"out": 5}, ["--metrics", "metrics.csv"]),
        ("preprocess", {"labels": None}, ["--signal", "s.csv", "--annotations", "a.csv",
                                          "--out-dir", "pre"]),
        ("preprocess", {"strict": 1}, ["--signal", "s.csv", "--annotations", "a.csv",
                                       "--out-dir", "pre"]),
    ])
    def test_config_value_of_the_wrong_kind(self, tmp_path, capsys, monkeypatch,
                                            stage, section, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text(json.dumps({stage: section}))
        assert run("--config", "config.json", stage, *argv) == 1
        err = capsys.readouterr().err
        (key, value), = section.items()
        kind = "true or false" if key == "strict" else "a string"
        assert f"config {stage}.{key} must be {kind}, got {value!r}" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_other_stage_section_checked_on_load(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train": {"model": "xgb"}}))
        assert run("--config", config, "synth", "--out-dir", tmp_path / "x") == 1
        err = capsys.readouterr().err
        assert "config train.model must be one of gbdt, rf, got 'xgb'" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("config, flags, message", [
        ({"synth": {"out_dir": "x"}}, [], "config synth.out_dir: --out-dir"),
        ({"synth": {"out_dir": "x"}}, ["--out-dir", "y"], "config synth.out_dir: --out-dir"),
        ({"report": {"metrics": ["m.csv"]}}, ["--out-dir", "y"],
         "config report.metrics: --metrics"),
    ], ids=["synth", "synth-with-flag", "other-stage"])
    def test_config_key_of_a_required_flag_refused(self, tmp_path, capsys, monkeypatch,
                                                   config, flags, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert run("--config", "config.json", "synth", *flags) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message} is required on the command line\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_config_null_where_the_flag_defaults_to_null(self, tmp_path, pipeline_dir):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"featurize": {"meta": None}}))
        assert run("--config", config, "featurize",
                   "--beats", pipeline_dir / "pre" / "beats.csv",
                   "--out", tmp_path / "f.csv") == 0

    def test_config_string_is_not_reparsed(self, tmp_path, capsys):
        # JSON values reach the stage as they are: "5" is a string, not 5
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synth": {"n_beats": "5"}}))
        assert run("--config", config, "synth", "--out-dir", tmp_path / "x") == 1
        assert "n_beats must be an integer >= 1, got '5'" in capsys.readouterr().err


def _loaded_after_cli_import(module: str) -> bool:
    code = f"import sys, ecgbeats.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    return out.stdout.strip() == "True"


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal takes about a second to import; no stage needs it
    assert not _loaded_after_cli_import("scipy.signal")


def test_cli_import_leaves_process_pool_unloaded():
    # only GBDT training uses a process pool, and fit_gbdt imports it
    assert not _loaded_after_cli_import("concurrent.futures")
    assert not _loaded_after_cli_import("multiprocessing")


def _python(code: str, *argv, **kwargs) -> str:
    """The stdout of a fresh interpreter that runs ``code`` with ``argv``."""
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, check=True, **kwargs).stdout


def _package_modules_after(statement: str) -> list:
    """The ``ecgbeats`` modules and numpy in ``sys.modules`` after a fresh
    interpreter runs ``statement``."""
    return _python(f"import sys; {statement}; print(*sorted(m for m in sys.modules "
                   "if m.split('.')[0] in ('ecgbeats', 'numpy')))").split()


def test_package_import_loads_no_module():
    assert _package_modules_after("import ecgbeats") == ["ecgbeats"]


def test_record_io_import_loads_only_its_own_imports():
    assert ([m for m in _package_modules_after("import ecgbeats.record_io")
             if m.startswith("ecgbeats")]
            == ["ecgbeats", "ecgbeats.errors", "ecgbeats.record_io"])


@pytest.mark.parametrize("collecting", [True, False])
def test_cli_import_leaves_the_collector_as_it_found_it(collecting):
    out = _python(f"import gc; {'gc.enable' if collecting else 'gc.disable'}(); "
                  "import ecgbeats.cli; print(gc.isenabled())")
    assert out.strip() == str(collecting)


@pytest.mark.parametrize("argv, code", [
    (["synth", "--out-dir", "raw", "--n-beats", "1"], 0),
    (["synth", "--out-dir", "raw", "--n-beats", "0"], 1),
    (["report", "--metrics", "missing.csv"], 2),
])
def test_run_freezes_the_heap_and_returns_mains_code(tmp_path, argv, code):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = _python("import gc; from ecgbeats import cli; "
                  "print(cli.run(), gc.get_freeze_count() > 0)", *argv, cwd=tmp_path, env=env)
    assert out.split()[-2:] == [str(code), "True"]


def test_main_in_process_freezes_nothing(tmp_path):
    before = gc.get_freeze_count()
    assert run("synth", "--out-dir", tmp_path, "--n-beats", 1) == 0
    assert gc.get_freeze_count() == before
