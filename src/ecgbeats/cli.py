"""Command-line pipeline: synth -> preprocess -> featurize -> balance /
encode -> train -> evaluate -> report, plus gridsearch.

Every stage is file-to-file, independently runnable, and deterministic given
its seed, so reruns are byte-identical. A stage returns its input paths, its
primary outputs and its summary line. Only after the stage succeeds does
``main`` write each output's ``<name>.manifest.json`` sidecar, recording the
resolved parameters and their hash, and print the summary, so a failed stage
leaves no manifest. Defaults may come from a JSON config file (``--config``)
whose top-level keys are stage names; explicit flags win, and config values are
taken as the JSON values they are. Every section is checked against its
flags when the config loads. Flag defaults are the field defaults of the
params objects the stages build, and those objects check the parameters
before any input is read.

Exit codes: 0 ok, 1 invalid configuration, 2 missing or malformed data, or
an allocation the machine refuses (MemoryError).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import balance as balance_mod
from . import features as features_mod
from . import metrics as metrics_mod
from . import preprocess as preprocess_mod
from . import record_io
from . import synth as synth_mod
from .encode import MtfConfig, encode_beat, out_of_range
from .errors import DataError, ValidationError, is_real, validate
from .model import (GbdtParams, RfParams, fit_gbdt, fit_random_forest,
                    grid_search, load_model, predict_batch, save_model)
from .model.search import stratified_split
from .record_io import LabelSet, read_beats_csv, write_beats_csv

ENCODE_CHUNK = 256  # beats encoded per encode_beat call by cmd_encode
LABELS = ",".join(LabelSet.symbols)


class _Parser(argparse.ArgumentParser):
    """Reports a flag argparse cannot parse (a value it cannot convert, a bad
    choice, a missing required flag) as a ValidationError, exit 1, not 2."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _check_config(stage: str, action: argparse.Action, value) -> None:
    """A config value must fit its flag: one of its choices, a bool for a
    switch, a string for a text or path flag, or null where the flag's own
    default is null. The params objects check numbers."""
    name = f"config {stage}.{action.dest}"
    if action.required:  # argparse wants the flag before main() fills in config values
        raise ValidationError(f"{name}: {action.option_strings[0]} "
                              "is required on the command line")
    if action.choices is not None and value not in action.choices:
        raise ValidationError(
            f"{name} must be one of {', '.join(action.choices)}, got {value!r}")
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise ValidationError(f"{name} must be true or false, got {value!r}")
    elif (action.type in (None, str, Path) and not isinstance(value, str)
          and not (value is None and action.default is None)):
        raise ValidationError(f"{name} must be a string, got {value!r}")


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _require_inputs(*paths) -> list:
    """The stage's input paths as the manifest records them; each must exist."""
    paths = [str(p) for p in paths]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        raise DataError("missing stage input(s): " + ", ".join(missing))
    return paths


def _read_json(path, error=ValidationError):
    try:
        with open(path, "rb") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:   # RecursionError: nested too deeply
        raise error(f"{path}: not valid JSON ({exc})") from None


def _manifest_params(args) -> dict:
    skip = {"func", "config"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        out[key] = str(value) if isinstance(value, Path) else value
    return out


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_manifest(target, args, inputs) -> None:
    payload = {
        "stage": args.stage,
        "params": _manifest_params(args),
        "inputs": list(inputs),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    payload["config_sha256"] = hashlib.sha256(canonical.encode()).hexdigest()
    _write_json(f"{target}.manifest.json", payload)


def _label_set(args) -> LabelSet:
    return LabelSet(tuple(s.strip() for s in args.labels.split(",")))


def _model_kind(model: str):
    """--model -> (fit function, params class). The fit functions are this
    module's names, read at each call, so a wrapper set on them is used."""
    return (fit_gbdt, GbdtParams) if model == "gbdt" else (fit_random_forest, RfParams)


def _parse_targets(spec: str, label_set: LabelSet) -> dict:
    """'N=300000,S=100000,V=100000' -> {class_id: count}."""
    targets = {}
    for item in spec.split(","):
        name, _, count = item.partition("=")
        try:
            value = int(count)
        except ValueError:
            raise ValidationError(f"bad target {item!r}; expected SYMBOL=COUNT") from None
        class_id = label_set.id_of(name.strip())
        if class_id in targets:
            raise ValidationError(f"bad target {item!r}; {name.strip()} is named twice")
        targets[class_id] = value
    return targets


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def cmd_synth(args) -> tuple:
    cfg = synth_mod.SynthConfig(n_beats=args.n_beats, fs=args.fs,
                                noise_std=args.noise_std, seed=args.seed)
    record = synth_mod.generate(cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    record_io.write_signal_csv(out / "signal.csv", record.signal)
    record_io.write_annotations_csv(out / "annotations.csv", record.rpeaks, record.labels)
    return [], [out / "signal.csv"], (f"synth: wrote {len(record.rpeaks)} beats "
                                      f"at {args.fs} Hz to {out}")


def cmd_preprocess(args) -> tuple:
    validate(preprocess_mod.rate_rule(args.fs, args.target_fs, ("fs", "target_fs"))
             + preprocess_mod.band_rule(args.low_hz, args.high_hz, args.target_fs,
                                        ("low_hz", "high_hz", "target_fs")))
    label_set = _label_set(args)
    inputs = _require_inputs(args.signal, args.annotations)
    record = record_io.load_record(args.signal, args.annotations, fs=args.fs,
                                   lead_select=args.lead)
    unknown = [sym for sym in record.labels if sym not in label_set]
    if unknown and args.strict:
        raise ValidationError(f"{args.annotations}: label {unknown[0]!r} not in "
                              f"{label_set.symbols}")
    processed = preprocess_mod.preprocess_record(record, to_hz=args.target_fs,
                                                 low=args.low_hz, high=args.high_hz)
    if not np.isfinite(processed.signal).all():
        raise DataError(f"{args.signal}: the filtered signal is not finite "
                        "(samples too large to filter)")
    beats, dropped = preprocess_mod.segment_beats(processed, label_set)
    beats = preprocess_mod.normalize_beats(beats)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_beats_csv(out / "beats.csv", beats)
    meta = dict(zip(features_mod.HRV_KEYS, features_mod.record_hrv(processed)),
                fs=processed.fs, n_rpeaks=len(processed.rpeaks), n_beats=len(beats),
                n_dropped=dropped, skipped_labels=len(unknown))
    _write_json(out / "record_meta.json", meta)
    return inputs, [out / "beats.csv"], (f"preprocess: kept {len(beats)} beats, dropped "
                                         f"{dropped}, skipped {len(unknown)} unknown labels")


def cmd_featurize(args) -> tuple:
    meta_path = args.meta or Path(args.beats).parent / "record_meta.json"
    inputs = _require_inputs(args.beats, meta_path)
    beats = read_beats_csv(args.beats)
    meta = _read_json(meta_path, DataError)
    keys = features_mod.HRV_KEYS
    if not (isinstance(meta, dict) and all(is_real(meta.get(k)) for k in keys)):
        raise DataError(f"{meta_path}: expected finite numbers {', '.join(keys)}")
    hrv = tuple(meta[k] for k in keys)
    rows, labels = features_mod.beat_features(beats, hrv), beats.label

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.test_fraction is None:
        parts = [("", out, np.arange(len(labels)))]
    else:
        split = stratified_split(labels, args.test_fraction, args.split_seed)
        parts = [(f"{name} ", out.with_name(f"{out.stem}_{name}{out.suffix}"), idx)
                 for name, idx in zip(("train", "test"), split)]
    for _, path, idx in parts:
        record_io.save_feature_matrix(rows[idx], labels[idx], path)
    return inputs, [path for _, path, _ in parts], (
        "featurize: wrote " + ", ".join(f"{len(idx)} {name}rows to {path}"
                                        for name, path, idx in parts))


def cmd_balance(args) -> tuple:
    label_set = _label_set(args)
    plan = balance_mod.BalancePlan(targets=_parse_targets(args.targets, label_set),
                                   k_neighbors=args.k_neighbors, seed=args.seed)
    inputs = _require_inputs(args.features)
    rows, labels = record_io.load_feature_matrix(args.features)
    metrics_mod.check_labels(labels, len(label_set))
    rows, labels = balance_mod.apply_plan(rows, labels, plan)
    record_io.save_feature_matrix(rows, labels, args.out)
    histogram = {label_set.symbol_of(c): int(n)
                 for c, n in zip(*np.unique(labels, return_counts=True))}
    return inputs, [args.out], f"balance: wrote {len(labels)} rows, histogram {histogram}"


def cmd_encode(args) -> tuple:
    cfg = MtfConfig(n_bins=args.mtf_bins)
    inputs = _require_inputs(args.beats)
    beats = read_beats_csv(args.beats)
    bad = np.flatnonzero(out_of_range(beats.samples))
    if bad.size:
        raise ValidationError(f"{args.beats}:{record_io.line_of_row(args.beats, bad[0])}: "
                              "beat samples must lie in [-1, 1]")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stems = [f"beat_{i:05d}" for i in range(len(beats))]
    for start in range(0, len(beats), ENCODE_CHUNK):
        images = encode_beat(beats.samples[start:start + ENCODE_CHUNK], cfg)
        for stem, image in zip(stems[start:], images):
            record_io.export_image(image, out / stem)
    record_io.write_table(out / "index.csv", ["stem", "label"],
                          zip(stems, beats.label.tolist()))
    return inputs, [out / "index.csv"], f"encode: wrote {len(beats)} images to {out}"


def cmd_train(args) -> tuple:
    fit, param_cls = _model_kind(args.model)
    # each params field takes the flag of its name; rf's max_depth is --rf-max-depth
    flags = dict(vars(args), max_depth=args.rf_max_depth) if args.model == "rf" else vars(args)
    params = param_cls(**{f.name: flags[f.name] for f in fields(param_cls)})
    label_set = _label_set(args)
    inputs = _require_inputs(args.features)
    rows, labels = record_io.load_feature_matrix(args.features)
    model = fit(rows, labels, params, n_classes=len(label_set))
    save_model(model, args.out)
    return inputs, [args.out], (f"train: fitted {args.model} on {len(labels)} rows "
                                f"({len(model.trees)} trees) -> {args.out}")


def cmd_evaluate(args) -> tuple:
    inputs = _require_inputs(args.model_file, args.features)
    model = load_model(args.model_file)
    rows, labels = record_io.load_feature_matrix(args.features)
    if not len(labels):
        raise DataError(f"{args.features}: no feature rows to evaluate")
    pred, _ = predict_batch(model, rows)
    cm = metrics_mod.confusion_matrix(labels, pred, model.n_classes)
    report = metrics_mod.ModelReport(args.name or model.kind, *metrics_mod.macro_metrics(cm))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics_mod.write_metrics_csv(out / "metrics.csv", [report])
    record_io.write_table(out / "confusion.csv", None, cm.tolist())
    return inputs, [out / "metrics.csv"], metrics_mod.format_report([report])


def cmd_gridsearch(args) -> tuple:
    label_set, plan = _label_set(args), None
    if args.targets is not None:
        plan = balance_mod.BalancePlan(targets=_parse_targets(args.targets, label_set),
                                       k_neighbors=args.k_neighbors, seed=args.seed)
    inputs = _require_inputs(args.features, args.grid)
    raw_grid = _read_json(args.grid)
    if not isinstance(raw_grid, list) or not raw_grid:
        raise ValidationError(f"{args.grid}: expected a non-empty JSON list of parameter objects")
    fit, param_cls = _model_kind(args.model)
    seed = {"seed": args.seed} if args.model == "rf" else {}  # an entry's own seed wins
    try:
        candidates = [param_cls(**{**seed, **combo}) for combo in raw_grid]
    except (TypeError, ValidationError) as exc:
        raise ValidationError(f"{args.grid}: {exc}") from None
    rows, labels = record_io.load_feature_matrix(args.features)
    metrics_mod.check_labels(labels, len(label_set))

    best, results = grid_search(rows, labels, candidates, fit, folds=args.folds,
                                seed=args.seed, balance_plan=plan,
                                n_classes=len(label_set))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    record_io.write_table(out / "results.csv", ["index", "params", "mean_macro_f1", "fold_f1"],
                          ([r.index, json.dumps(raw_grid[r.index], sort_keys=True),
                            f"{r.mean_f1:.6f}", " ".join(f"{s:.6f}" for s in r.fold_f1)]
                           for r in results))
    best_index = next(r.index for r in results if r.params is best)
    _write_json(out / "best_params.json", raw_grid[best_index])
    return inputs, [out / "results.csv"], (
        f"gridsearch: best combination #{best_index} "
        f"(mean macro F1 {results[best_index].mean_f1:.4f})")


def cmd_report(args) -> tuple:
    inputs = _require_inputs(*args.metrics)
    reports = []
    for path in args.metrics:
        reports.extend(metrics_mod.read_metrics_csv(path))
    text = metrics_mod.format_report(reports)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return inputs, [args.out] if args.out else [], text


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser(config: dict) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ecgbeats",
        description="Heartbeat classification pipeline: features + tree "
                    "ensembles, and beat-to-image encoders.")
    parser.add_argument("--config", default=None, help="JSON config file")
    sub = parser.add_subparsers(dest="stage", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled record")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-beats", type=int, default=synth_mod.SynthConfig.n_beats,
                   help="beats per class")
    p.add_argument("--fs", type=float, default=synth_mod.SynthConfig.fs)
    p.add_argument("--noise-std", type=float, default=synth_mod.SynthConfig.noise_std)
    p.add_argument("--seed", type=int, default=synth_mod.SynthConfig.seed)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="resample, filter, segment, normalize")
    p.add_argument("--signal", required=True, help="signal CSV (no header)")
    p.add_argument("--annotations", required=True,
                   help="annotation CSV (sample_index,label)")
    p.add_argument("--fs", type=float, default=250.0, help="input sampling rate, Hz")
    p.add_argument("--lead", type=int, default=0, help="lead column to use")
    p.add_argument("--labels", default=LABELS, help="admitted label symbols, ordered")
    p.add_argument("--strict", action="store_true",
                   help="reject unknown labels instead of skipping")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--target-fs", type=float, default=preprocess_mod.TARGET_FS)
    p.add_argument("--low-hz", type=float, default=preprocess_mod.BAND_LOW_HZ)
    p.add_argument("--high-hz", type=float, default=preprocess_mod.BAND_HIGH_HZ)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("featurize", help="beats -> 76-dim feature CSV")
    p.add_argument("--beats", required=True, help="beats.csv from preprocess")
    p.add_argument("--meta", default=None, help="record_meta.json (default: sibling)")
    p.add_argument("--out", required=True, type=Path, help="output feature CSV")
    p.add_argument("--test-fraction", type=float, default=None,
                   help="hold out this stratified fraction as *_test.csv")
    p.add_argument("--split-seed", type=int, default=0)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("balance", help="undersample + SMOTE the training set")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--targets", default=",".join(
        f"{LabelSet.symbols[c]}={n}" for c, n in balance_mod.DEFAULT_TARGETS.items()))
    p.add_argument("--k-neighbors", type=int, default=balance_mod.BalancePlan.k_neighbors)
    p.add_argument("--seed", type=int, default=balance_mod.BalancePlan.seed)
    p.add_argument("--labels", default=LABELS)
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("encode", help="beats -> GASF/MTF/RP image files")
    p.add_argument("--beats", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--mtf-bins", type=int, default=MtfConfig.n_bins)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("train", help="fit a tree-ensemble classifier")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--model", choices=("gbdt", "rf"), default="gbdt")
    p.add_argument("--labels", default=LABELS)
    p.add_argument("--seed", type=int, default=RfParams.seed)
    p.add_argument("--learning-rate", type=float, default=GbdtParams.learning_rate)
    p.add_argument("--max-depth", type=int, default=GbdtParams.max_depth)
    p.add_argument("--n-estimators", type=int, default=GbdtParams.n_estimators)
    p.add_argument("--min-data-in-leaf", type=int, default=GbdtParams.min_data_in_leaf)
    p.add_argument("--l1-alpha", type=float, default=GbdtParams.l1_alpha)
    p.add_argument("--l2-lambda", type=float, default=GbdtParams.l2_lambda)
    p.add_argument("--n-trees", type=int, default=RfParams.n_trees)
    p.add_argument("--rf-max-depth", type=int, default=RfParams.max_depth)
    p.add_argument("--min-samples-leaf", type=int, default=RfParams.min_samples_leaf)
    p.add_argument("--features-per-split", type=int, default=RfParams.features_per_split)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a model on an untouched test set")
    p.add_argument("--model-file", required=True)
    p.add_argument("--features", required=True, help="held-out test features")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--name", default=None, help="row name in the report")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gridsearch", help="grid search with stratified k-fold CV")
    p.add_argument("--features", required=True)
    p.add_argument("--grid", required=True, help="JSON list of parameter objects")
    p.add_argument("--model", choices=("gbdt", "rf"), default="gbdt")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--folds", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--targets", default=None,
                   help="apply in-fold balancing to these targets")
    p.add_argument("--k-neighbors", type=int, default=balance_mod.BalancePlan.k_neighbors)
    p.add_argument("--labels", default=LABELS)
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("report", help="render metrics CSVs as one table")
    p.add_argument("--metrics", nargs="+", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    unknown = set(config) - set(sub.choices)
    if unknown:
        raise ValidationError(f"config names unknown stages {sorted(unknown)}")
    for name, section in config.items():
        if not isinstance(section, dict):
            raise ValidationError(f"config section '{name}' must be a JSON object")
        sp = sub.choices[name]
        # argparse's own --help stores no value, so it is no config key
        actions = {a.dest: a for a in sp._actions if a.default is not argparse.SUPPRESS}
        unknown = set(section) - set(actions)
        if unknown:
            raise ValidationError(
                f"config section '{name}' has unknown keys: {sorted(unknown)}")
        for key, value in section.items():
            _check_config(name, actions[key], value)
            # no parser default, so main() fills in the JSON value as it is; the
            # action's own default, since a set_defaults() string is type-converted
            actions[key].default = argparse.SUPPRESS
    return parser


def _load_config(argv) -> dict:
    pre = _Parser(prog="ecgbeats", add_help=False)
    pre.add_argument("--config", default=None)
    ns, _ = pre.parse_known_args(argv)
    if ns.config is None:
        return {}
    _require_inputs(ns.config)
    config = _read_json(ns.config)
    if not isinstance(config, dict):
        raise ValidationError(f"{ns.config}: config must be a JSON object")
    return config


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = _load_config(argv)
        args = build_parser(config).parse_args(argv)
        for key, value in config.get(args.stage, {}).items():
            vars(args).setdefault(key, value)
        inputs, outputs, summary = args.func(args)
        for target in outputs:
            _write_manifest(target, args, inputs)
        print(summary)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
