"""Parameter checks: every params-dataclass field refuses bad values, fed
directly, through ``--config`` and (GBDT and RF fields) through ``--grid``,
always as exit 1 naming the field, never a traceback."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ecgbeats import cli
from ecgbeats.balance import BalancePlan
from ecgbeats.encode import MtfConfig
from ecgbeats.errors import ValidationError
from ecgbeats.model.forest import RfParams
from ecgbeats.model.gbdt import GbdtParams
from ecgbeats.record_io import LabelSet, save_feature_matrix
from ecgbeats.synth import SynthConfig

NAN, INF = math.nan, math.inf
# JSON values that are no integer and no finite number
NOT_NUMBERS = [NAN, INF, -INF, True, None, "x"]
NOT_INTS = NOT_NUMBERS + [1.5]

SRC = Path(__file__).resolve().parents[1] / "src"


def run(*argv):
    return cli.main([str(a) for a in argv])


def bad_int(low, optional=False):
    """Invalid values of an integer field that must be >= low."""
    return [v for v in NOT_INTS + [low - 1, -1] if not (optional and v is None)]


def bad_real(low, strict):
    """Invalid values of a finite real field that must be > low (strict) or >= low."""
    return NOT_NUMBERS + [-1] + ([low] if strict else [])


def cases(table):
    return [pytest.param(stage, key, field, value, id=f"{stage}-{key}-{value!r}")
            for stage, key, field, values in table for value in values]


# (stage, config key, field named in the message, invalid values)
CONFIG_FIELDS = [
    ("synth", "n_beats", "n_beats", bad_int(1)),
    ("synth", "fs", "fs", bad_real(0, strict=True)),
    ("synth", "noise_std", "noise_std", bad_real(0, strict=False)),
    ("synth", "seed", "seed", bad_int(0)),
    ("train", "learning_rate", "learning_rate", bad_real(0, strict=True)),
    ("train", "max_depth", "max_depth", bad_int(1)),
    ("train", "n_estimators", "n_estimators", bad_int(0)),
    ("train", "min_data_in_leaf", "min_data_in_leaf", bad_int(1)),
    ("train", "l1_alpha", "l1_alpha", bad_real(0, strict=False)),
    ("train", "l2_lambda", "l2_lambda", bad_real(0, strict=False)),
    ("train-rf", "n_trees", "n_trees", bad_int(1)),
    ("train-rf", "rf_max_depth", "max_depth", bad_int(1, optional=True)),
    ("train-rf", "min_samples_leaf", "min_samples_leaf", bad_int(1)),
    ("train-rf", "features_per_split", "features_per_split", bad_int(1, optional=True)),
    ("train-rf", "seed", "seed", bad_int(0)),
    ("balance", "k_neighbors", "k_neighbors", bad_int(1)),
    ("balance", "seed", "seed", bad_int(0)),
    ("balance", "targets", "target", [NAN, INF, 5, True, None, "x", "N=1.5", "N=0"]),
    ("encode", "mtf_bins", "n_bins", bad_int(2) + [33]),
    ("gridsearch-rf", "seed", "seed", bad_int(0)),
    # past the upsampling bound: with no inputs on disk a regressed check stops
    # at the missing files (exit 2) before resample could allocate
    ("preprocess", "fs", "fs", bad_real(0, strict=True) + [1e-300]),
    ("preprocess", "target_fs", "target_fs", bad_real(0, strict=True) + [1e300]),
    ("preprocess", "low_hz", "low_hz", bad_real(0, strict=True) + [40.0]),
    ("preprocess", "high_hz", "high_hz", bad_real(0, strict=True) + [90.0]),
]

GRID_FIELDS = [
    ("gbdt", "learning_rate", "learning_rate", bad_real(0, strict=True)),
    ("gbdt", "max_depth", "max_depth", bad_int(1)),
    ("gbdt", "n_estimators", "n_estimators", bad_int(0)),
    ("gbdt", "min_data_in_leaf", "min_data_in_leaf", bad_int(1)),
    ("gbdt", "l1_alpha", "l1_alpha", bad_real(0, strict=False)),
    ("gbdt", "l2_lambda", "l2_lambda", bad_real(0, strict=False)),
    ("rf", "n_trees", "n_trees", bad_int(1)),
    ("rf", "max_depth", "max_depth", bad_int(1, optional=True)),
    ("rf", "min_samples_leaf", "min_samples_leaf", bad_int(1)),
    ("rf", "features_per_split", "features_per_split", bad_int(1, optional=True)),
]


@pytest.fixture
def inputs(tmp_path):
    """A grid and a small feature file; the other stage inputs do not exist,
    because every parameter is checked before any input is read."""
    rows = np.random.default_rng(0).normal(size=(12, 3))
    save_feature_matrix(rows, np.arange(12) % 3, tmp_path / "f.csv")
    (tmp_path / "grid.json").write_text(json.dumps([{"n_trees": 1}]))
    return tmp_path


def stage_argv(stage: str, d: Path) -> list:
    return {
        "synth": ["synth", "--out-dir", d / "raw"],
        "preprocess": ["preprocess", "--signal", d / "no_signal.csv",
                       "--annotations", d / "no_ann.csv", "--out-dir", d / "pre"],
        "train": ["train", "--features", d / "no_f.csv", "--out", d / "m.txt"],
        "train-rf": ["train", "--model", "rf", "--features", d / "no_f.csv",
                     "--out", d / "m.txt"],
        "balance": ["balance", "--features", d / "no_f.csv", "--out", d / "b.csv"],
        "encode": ["encode", "--beats", d / "no_beats.csv", "--out-dir", d / "img"],
        "gridsearch-rf": ["gridsearch", "--model", "rf", "--features", d / "f.csv",
                          "--grid", d / "grid.json", "--out-dir", d / "gs"],
    }[stage]


def assert_refused(code, capsys, field):
    err = capsys.readouterr().err
    assert code == 1, err
    assert field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("stage, key, field, value", cases(CONFIG_FIELDS))
def test_config_value_refused(inputs, capsys, stage, key, field, value):
    argv = stage_argv(stage, inputs)
    config = inputs / "config.json"
    config.write_text(json.dumps({argv[0]: {key: value}}))
    assert_refused(run("--config", config, *argv), capsys, field)
    assert sorted(p.name for p in inputs.iterdir()) == ["config.json", "f.csv", "grid.json"]


@pytest.mark.parametrize("model, key, field, value", cases(GRID_FIELDS))
def test_grid_value_refused(inputs, capsys, model, key, field, value):
    (inputs / "grid.json").write_text(json.dumps([{"n_estimators": 0} if model == "gbdt"
                                                  else {"n_trees": 1}, {key: value}]))
    code = run("gridsearch", "--model", model, "--features", inputs / "f.csv",
               "--grid", inputs / "grid.json", "--out-dir", inputs / "gs")
    assert_refused(code, capsys, field)
    assert not (inputs / "gs").exists()


@pytest.mark.parametrize("stage, key", [
    ("synth", "fs"), ("synth", "noise_std"), ("train", "learning_rate"),
    ("train", "l2_lambda"), ("preprocess", "fs"), ("preprocess", "target_fs"),
    ("preprocess", "low_hz"),
])
def test_integer_with_no_float_refused(inputs, capsys, stage, key):
    # 10**400 is an integer no float can hold: it used to pass as finite and
    # then overflow (a traceback for target_fs) in the first float arithmetic
    argv = stage_argv(stage, inputs)
    (inputs / "config.json").write_text(json.dumps({argv[0]: {key: 10**400}}))
    assert_refused(run("--config", inputs / "config.json", *argv), capsys, key)


def test_grid_nan_learning_rate_is_exit_1_in_a_subprocess(inputs):
    # used to fit all-NaN probabilities and exit 0 with a macro F1 of 0.1667
    (inputs / "grid.json").write_text('[{"learning_rate": NaN, "n_estimators": 2}]')
    out = subprocess.run(
        [sys.executable, "-m", "ecgbeats.cli", "gridsearch", "--features",
         str(inputs / "f.csv"), "--grid", str(inputs / "grid.json"),
         "--out-dir", str(inputs / "gs")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.returncode == 1, out.stderr
    assert "grid.json: invalid configuration" in out.stderr
    assert "learning_rate must be a finite number > 0, got nan" in out.stderr
    assert "Traceback" not in out.stderr
    assert not (inputs / "gs").exists()


@pytest.mark.parametrize("argv, field", [
    (["synth", "--out-dir", "{d}/raw", "--seed", "-1"], "seed"),
    (["synth", "--out-dir", "{d}/raw", "--fs", "inf"], "fs"),
    (["preprocess", "--signal", "{d}/s.csv", "--annotations", "{d}/a.csv",
      "--out-dir", "{d}/pre", "--fs", "inf"], "fs"),
    (["preprocess", "--signal", "{d}/s.csv", "--annotations", "{d}/a.csv",
      "--out-dir", "{d}/pre", "--target-fs", "inf"], "target_fs"),
    (["balance", "--features", "{d}/f.csv", "--out", "{d}/b.csv", "--seed", "-1"], "seed"),
    (["train", "--model", "rf", "--features", "{d}/f.csv", "--out", "{d}/m.txt",
      "--features-per-split", "-1"], "features_per_split"),
    (["train", "--model", "rf", "--features", "{d}/f.csv", "--out", "{d}/m.txt",
      "--features-per-split", "0"], "features_per_split"),
    (["train", "--model", "rf", "--features", "{d}/f.csv", "--out", "{d}/m.txt",
      "--seed", "-1"], "seed"),
    (["gridsearch", "--features", "{d}/f.csv", "--grid", "{d}/grid.json",
      "--out-dir", "{d}/gs", "--seed", "-1"], "seed"),
    (["gridsearch", "--features", "{d}/f.csv", "--grid", "{d}/grid.json",
      "--out-dir", "{d}/gs", "--folds", "1"], "folds"),
])
def test_flag_value_refused(inputs, capsys, argv, field):
    (inputs / "grid.json").write_text('[{"n_estimators": 0}]')
    assert_refused(run(*(a.format(d=inputs) for a in argv)), capsys, field)
    assert not {"raw", "pre", "b.csv", "m.txt", "gs"} & {p.name for p in inputs.iterdir()}


# (stage, flag dest) -> (params class, field) for every flag a params object checks
PARAMS_FLAGS = {
    **{("synth", f): (SynthConfig, f) for f in ("n_beats", "fs", "noise_std", "seed")},
    ("balance", "k_neighbors"): (BalancePlan, "k_neighbors"),
    ("balance", "seed"): (BalancePlan, "seed"),
    ("gridsearch", "k_neighbors"): (BalancePlan, "k_neighbors"),
    ("encode", "mtf_bins"): (MtfConfig, "n_bins"),
    **{("train", f): (GbdtParams, f) for f in ("learning_rate", "max_depth", "n_estimators",
                                               "min_data_in_leaf", "l1_alpha", "l2_lambda")},
    **{("train", f): (RfParams, f) for f in ("n_trees", "min_samples_leaf",
                                             "features_per_split", "seed")},
    ("train", "rf_max_depth"): (RfParams, "max_depth"),
}


def test_flag_defaults_are_the_params_defaults():
    stages = cli.build_parser({})._subparsers._group_actions[0].choices
    for (stage, dest), (cls, name) in PARAMS_FLAGS.items():
        field, = (f for f in dataclasses.fields(cls) if f.name == name)
        assert stages[stage].get_default(dest) == field.default, (stage, dest)
    for stage in ("preprocess", "balance", "train", "gridsearch"):
        assert stages[stage].get_default("labels") == ",".join(LabelSet().symbols)
    targets = stages["balance"].get_default("targets")
    assert cli._parse_targets(targets, LabelSet()) == BalancePlan().targets


def test_unused_model_flags_are_not_read(inputs):
    # only the chosen model's params are built
    assert run("train", "--features", inputs / "f.csv", "--out", inputs / "m.txt",
               "--n-estimators", 1, "--max-depth", 2, "--min-data-in-leaf", 1,
               "--n-trees", 0, "--seed", -1, "--features-per-split", -1) == 0
    assert run("train", "--model", "rf", "--features", inputs / "f.csv",
               "--out", inputs / "rf.txt", "--n-trees", 1,
               "--learning-rate", "nan", "--max-depth", 0) == 0


@pytest.mark.parametrize("value", bad_real(0, strict=True))
def test_synth_base_rr_refused(value):
    with pytest.raises(ValidationError, match="base_rr"):
        SynthConfig(base_rr=value)


@pytest.mark.parametrize("value", bad_real(0, strict=False))
def test_synth_rr_jitter_refused(value):
    with pytest.raises(ValidationError, match="rr_jitter"):
        SynthConfig(rr_jitter=value)


@pytest.mark.parametrize("make, fields", [
    (lambda: SynthConfig(n_beats=0, rr_jitter=-0.1), ("n_beats", "rr_jitter")),
    (lambda: GbdtParams(learning_rate=NAN, l2_lambda=-1.0), ("learning_rate", "l2_lambda")),
    (lambda: RfParams(features_per_split=0, seed=-1), ("features_per_split", "seed")),
    (lambda: BalancePlan(targets={0: 0}, k_neighbors=0), ("targets", "k_neighbors")),
], ids=["SynthConfig", "GbdtParams", "RfParams", "BalancePlan"])
def test_two_bad_fields_in_one_error(make, fields):
    with pytest.raises(ValidationError) as info:
        make()
    message = str(info.value)
    assert message.count("\n  - ") == 2
    for field in fields:
        assert field in message


def test_mtf_config_reports_its_one_field():
    # MtfConfig has a single field, so one failure is all it can list
    with pytest.raises(ValidationError) as info:
        MtfConfig(n_bins=2.0)
    assert str(info.value) == ("invalid configuration:\n"
                               "  - n_bins must be an integer >= 2, got 2.0")


@pytest.mark.parametrize("value", [np.int64(3), 3])
def test_numpy_and_python_integers_accepted(value):
    assert RfParams(n_trees=value, max_depth=value, features_per_split=value,
                    seed=value).n_trees == 3
    assert GbdtParams(learning_rate=value, max_depth=value).max_depth == 3
