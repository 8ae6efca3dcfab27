"""Command-line pipeline: synth -> ingest/preprocess -> featurize -> balance /
encode -> train -> evaluate -> report, plus gridsearch.

Every stage is file-to-file, independently runnable, and deterministic given
its seed, so reruns are byte-identical. Each primary output gets a
``<name>.manifest.json`` sidecar recording the resolved parameters and their
hash. Defaults may come from a JSON config file (``--config``) whose
top-level keys are stage names; explicit flags win.

Exit codes: 0 ok, 1 invalid configuration, 2 missing or malformed data.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import balance as balance_mod
from . import features as features_mod
from . import metrics as metrics_mod
from . import preprocess as preprocess_mod
from . import record_io
from . import synth as synth_mod
from .encode import MtfConfig, encode_beat
from .errors import DataError, ValidationError
from .model import (GbdtParams, RfParams, fit_gbdt, fit_random_forest,
                    grid_search, load_model, predict_batch, save_model)
from .model.search import stratified_split
from .record_io import LabelSet, read_beats_csv, write_beats_csv

STAGES = ("synth", "ingest", "preprocess", "featurize", "balance", "encode",
          "train", "evaluate", "gridsearch", "report")


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _require_inputs(*paths) -> None:
    missing = [str(p) for p in paths if not Path(p).exists()]
    if missing:
        raise DataError("missing stage input(s): " + ", ".join(missing))


def _validate(checks) -> None:
    """checks: iterable of (ok, message); report every failure at once."""
    problems = [msg for ok, msg in checks if not ok]
    if problems:
        raise ValidationError(
            "invalid configuration:\n  - " + "\n  - ".join(problems))


def _manifest_params(args) -> dict:
    skip = {"func", "config"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        out[key] = str(value) if isinstance(value, Path) else value
    return out


def _write_manifest(target, stage: str, args, inputs=()) -> None:
    payload = {
        "stage": stage,
        "params": _manifest_params(args),
        "inputs": [str(p) for p in inputs],
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    payload["config_sha256"] = hashlib.sha256(canonical.encode()).hexdigest()
    with open(f"{target}.manifest.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _label_set(args) -> LabelSet:
    return LabelSet(tuple(s.strip() for s in args.labels.split(",")))


def _parse_targets(spec: str, label_set: LabelSet) -> dict:
    """'N=300000,S=100000,V=100000' -> {class_id: count}."""
    targets = {}
    for item in spec.split(","):
        name, _, count = item.partition("=")
        try:
            value = int(count)
        except ValueError:
            raise ValidationError(f"bad target {item!r}; expected SYMBOL=COUNT") from None
        if value <= 0:
            raise ValidationError(f"bad target {item!r}; the count must be positive")
        targets[label_set.id_of(name.strip())] = value
    return targets


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    _validate([
        (args.n_beats >= 1, f"--n-beats must be >= 1, got {args.n_beats}"),
        (args.noise_std >= 0, f"--noise-std must be >= 0, got {args.noise_std}"),
        (args.fs > 0, f"--fs must be positive, got {args.fs}"),
    ])
    cfg = synth_mod.SynthConfig(n_beats=args.n_beats, fs=args.fs,
                                noise_std=args.noise_std, seed=args.seed)
    record = synth_mod.generate(cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    record_io.write_signal_csv(out / "signal.csv", record.leads[0])
    record_io.write_annotations_csv(out / "annotations.csv", record.rpeaks, record.labels)
    _write_manifest(out / "signal.csv", "synth", args)
    print(f"synth: wrote {len(record.rpeaks)} beats at {args.fs} Hz to {out}")
    return 0


def _load_record(args, label_set):
    _require_inputs(args.signal, args.annotations)
    return record_io.load_record(args.signal, args.annotations, fs=args.fs,
                                 lead_select=args.lead, label_set=label_set,
                                 strict=args.strict)


def cmd_ingest(args) -> int:
    _validate([(args.fs > 0, f"--fs must be positive, got {args.fs}")])
    label_set = _label_set(args)
    record, skipped = _load_record(args, label_set)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    record_io.write_signal_csv(out / "signal.csv", record.leads[0])
    record_io.write_annotations_csv(out / "annotations.csv", record.rpeaks, record.labels)
    _write_manifest(out / "signal.csv", "ingest", args,
                    inputs=[args.signal, args.annotations])
    print(f"ingest: {len(record.rpeaks)} beats kept, {skipped} unknown labels skipped")
    return 0


def cmd_preprocess(args) -> int:
    _validate([
        (args.fs > 0, f"--fs must be positive, got {args.fs}"),
        (args.target_fs > 0, f"--target-fs must be positive, got {args.target_fs}"),
        (0 < args.low_hz < args.high_hz < args.target_fs / 2,
         f"band ({args.low_hz}, {args.high_hz}) must satisfy "
         f"0 < low < high < target_fs/2 = {args.target_fs / 2}"),
    ])
    label_set = _label_set(args)
    record, skipped = _load_record(args, label_set)
    processed = preprocess_mod.preprocess_record(record, to_hz=args.target_fs,
                                                 low=args.low_hz, high=args.high_hz)
    beats, dropped = preprocess_mod.segment_beats(processed, label_set)
    beats = preprocess_mod.normalize_beats(beats)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_beats_csv(out / "beats.csv", beats)
    rr = features_mod.rr_intervals(processed.rpeaks, processed.fs)
    hrv = features_mod.hrv_stats(rr) if rr.size else (0.0, 0.0, 0.0)
    meta = {"fs": processed.fs, "hrv_mean": hrv[0], "hrv_median": hrv[1],
            "hrv_var": hrv[2], "n_rpeaks": int(len(processed.rpeaks)),
            "n_beats": len(beats), "n_dropped": dropped,
            "skipped_labels": skipped}
    with open(out / "record_meta.json", "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")
    _write_manifest(out / "beats.csv", "preprocess", args,
                    inputs=[args.signal, args.annotations])
    print(f"preprocess: kept {len(beats)} beats, dropped {dropped}, "
          f"skipped {skipped} unknown labels")
    return 0


def cmd_featurize(args) -> int:
    _validate([
        (args.test_fraction is None or 0 < args.test_fraction < 1,
         f"--test-fraction must be in (0, 1), got {args.test_fraction}"),
    ])
    meta_path = args.meta or Path(args.beats).parent / "record_meta.json"
    _require_inputs(args.beats, meta_path)
    beats = read_beats_csv(args.beats)
    with open(meta_path) as fh:
        meta = json.load(fh)
    hrv = (meta["hrv_mean"], meta["hrv_median"], meta["hrv_var"])
    rows, labels = features_mod.beat_features(beats, hrv), beats.label

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.test_fraction is None:
        record_io.save_feature_matrix(rows, labels, out)
        _write_manifest(out, "featurize", args, inputs=[args.beats, meta_path])
        print(f"featurize: wrote {len(labels)} rows to {out}")
    else:
        train_idx, test_idx = stratified_split(labels, args.test_fraction,
                                               args.split_seed)
        train_path = out.with_name(out.stem + "_train" + out.suffix)
        test_path = out.with_name(out.stem + "_test" + out.suffix)
        record_io.save_feature_matrix(rows[train_idx], labels[train_idx], train_path)
        record_io.save_feature_matrix(rows[test_idx], labels[test_idx], test_path)
        _write_manifest(train_path, "featurize", args, inputs=[args.beats, meta_path])
        _write_manifest(test_path, "featurize", args, inputs=[args.beats, meta_path])
        print(f"featurize: wrote {len(train_idx)} train rows to {train_path}, "
              f"{len(test_idx)} test rows to {test_path}")
    return 0


def cmd_balance(args) -> int:
    _validate([(args.k_neighbors >= 1,
                f"--k-neighbors must be >= 1, got {args.k_neighbors}")])
    label_set = _label_set(args)
    targets = _parse_targets(args.targets, label_set)
    _require_inputs(args.features)
    rows, labels = record_io.load_feature_matrix(args.features)
    metrics_mod.check_labels(labels, len(label_set))
    plan = balance_mod.BalancePlan(targets=targets, k_neighbors=args.k_neighbors,
                                   seed=args.seed)
    rows, labels = balance_mod.apply_plan(rows, labels, plan)
    record_io.save_feature_matrix(rows, labels, args.out)
    _write_manifest(args.out, "balance", args, inputs=[args.features])
    histogram = {label_set.symbol_of(c): int(n)
                 for c, n in zip(*np.unique(labels, return_counts=True))}
    print(f"balance: wrote {len(labels)} rows, histogram {histogram}")
    return 0


def cmd_encode(args) -> int:
    _validate([(args.mtf_bins >= 2, f"--mtf-bins must be >= 2, got {args.mtf_bins}")])
    _require_inputs(args.beats)
    beats = read_beats_csv(args.beats)
    cfg = MtfConfig(n_bins=args.mtf_bins)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    index_rows = []
    for i, (samples, label) in enumerate(zip(beats.samples, beats.label.tolist())):
        stem = out / f"beat_{i:05d}"
        record_io.export_image(encode_beat(samples, cfg), stem)
        index_rows.append((stem.name, label))
    with open(out / "index.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stem", "label"])
        writer.writerows(index_rows)
    _write_manifest(out / "index.csv", "encode", args, inputs=[args.beats])
    print(f"encode: wrote {len(beats)} images to {out}")
    return 0


def _gbdt_params(args) -> GbdtParams:
    return GbdtParams(learning_rate=args.learning_rate, max_depth=args.max_depth,
                      n_estimators=args.n_estimators,
                      min_data_in_leaf=args.min_data_in_leaf,
                      l1_alpha=args.l1_alpha, l2_lambda=args.l2_lambda)


def _rf_params(args) -> RfParams:
    return RfParams(n_trees=args.n_trees, max_depth=args.rf_max_depth,
                    min_samples_leaf=args.min_samples_leaf,
                    features_per_split=args.features_per_split, seed=args.seed)


def cmd_train(args) -> int:
    _validate([
        (args.learning_rate > 0, f"--learning-rate must be > 0, got {args.learning_rate}"),
        (args.max_depth >= 1, f"--max-depth must be >= 1, got {args.max_depth}"),
        (args.n_estimators >= 0, f"--n-estimators must be >= 0, got {args.n_estimators}"),
        (args.min_data_in_leaf >= 1,
         f"--min-data-in-leaf must be >= 1, got {args.min_data_in_leaf}"),
        (args.l1_alpha >= 0, f"--l1-alpha must be >= 0, got {args.l1_alpha}"),
        (args.l2_lambda >= 0, f"--l2-lambda must be >= 0, got {args.l2_lambda}"),
        (args.n_trees >= 1, f"--n-trees must be >= 1, got {args.n_trees}"),
        (args.min_samples_leaf >= 1,
         f"--min-samples-leaf must be >= 1, got {args.min_samples_leaf}"),
    ])
    _require_inputs(args.features)
    label_set = _label_set(args)
    rows, labels = record_io.load_feature_matrix(args.features)
    if args.model == "gbdt":
        model = fit_gbdt(rows, labels, _gbdt_params(args), n_classes=len(label_set))
    else:
        model = fit_random_forest(rows, labels, _rf_params(args),
                                  n_classes=len(label_set))
    save_model(model, args.out)
    _write_manifest(args.out, "train", args, inputs=[args.features])
    print(f"train: fitted {args.model} on {len(labels)} rows "
          f"({len(model.trees)} trees) -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    _require_inputs(args.model_file, args.features)
    model = load_model(args.model_file)
    rows, labels = record_io.load_feature_matrix(args.features)
    pred, _ = predict_batch(model, rows)
    cm = metrics_mod.confusion_matrix(labels, pred, model.n_classes)
    precision, recall, f1, accuracy = metrics_mod.macro_metrics(cm)
    report = metrics_mod.ModelReport(name=args.name or model.kind,
                                     precision=precision, recall=recall,
                                     f1=f1, accuracy=accuracy)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics_mod.write_metrics_csv(out / "metrics.csv", [report])
    with open(out / "confusion.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(cm.tolist())
    _write_manifest(out / "metrics.csv", "evaluate", args,
                    inputs=[args.model_file, args.features])
    print(metrics_mod.format_report([report]))
    return 0


def cmd_gridsearch(args) -> int:
    _validate([
        (args.folds >= 2, f"--folds must be >= 2, got {args.folds}"),
        (args.k_neighbors >= 1, f"--k-neighbors must be >= 1, got {args.k_neighbors}"),
    ])
    plan = None
    if args.targets:
        label_set = _label_set(args)
        plan = balance_mod.BalancePlan(targets=_parse_targets(args.targets, label_set),
                                       k_neighbors=args.k_neighbors, seed=args.seed)
    _require_inputs(args.features, args.grid)
    rows, labels = record_io.load_feature_matrix(args.features)
    with open(args.grid) as fh:
        raw_grid = json.load(fh)
    if not isinstance(raw_grid, list) or not raw_grid:
        raise ValidationError(f"{args.grid}: expected a non-empty JSON list of parameter objects")
    param_cls = GbdtParams if args.model == "gbdt" else RfParams
    seed = {"seed": args.seed} if args.model == "rf" else {}
    try:
        candidates = [param_cls(**{**combo, **seed}) for combo in raw_grid]
    except TypeError as exc:
        raise ValidationError(f"{args.grid}: {exc}") from None

    best, results = grid_search(rows, labels, candidates, folds=args.folds,
                                seed=args.seed, balance_plan=plan)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "results.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "params", "mean_macro_f1", "fold_f1"])
        for r in results:
            writer.writerow([r.index, json.dumps(raw_grid[r.index], sort_keys=True),
                             f"{r.mean_f1:.6f}",
                             " ".join(f"{s:.6f}" for s in r.fold_f1)])
    best_index = next(r.index for r in results if r.params is best)
    with open(out / "best_params.json", "w") as fh:
        json.dump(raw_grid[best_index], fh, sort_keys=True, indent=2)
        fh.write("\n")
    _write_manifest(out / "results.csv", "gridsearch", args,
                    inputs=[args.features, args.grid])
    print(f"gridsearch: best combination #{best_index} "
          f"(mean macro F1 {results[best_index].mean_f1:.4f})")
    return 0


def cmd_report(args) -> int:
    _require_inputs(*args.metrics)
    reports = []
    for path in args.metrics:
        reports.extend(metrics_mod.read_metrics_csv(path))
    text = metrics_mod.format_report(reports)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        _write_manifest(args.out, "report", args, inputs=args.metrics)
    print(text)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_record_flags(p):
    p.add_argument("--signal", required=True, help="signal CSV (no header)")
    p.add_argument("--annotations", required=True,
                   help="annotation CSV (sample_index,label)")
    p.add_argument("--fs", type=float, default=250.0, help="input sampling rate, Hz")
    p.add_argument("--lead", type=int, default=0, help="lead column to use")
    p.add_argument("--labels", default="N,S,V", help="admitted label symbols, ordered")
    p.add_argument("--strict", action="store_true",
                   help="reject unknown labels instead of skipping")


def build_parser(config: dict) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecgbeats",
        description="Heartbeat classification pipeline: features + tree "
                    "ensembles, and beat-to-image encoders.")
    parser.add_argument("--config", default=None, help="JSON config file")
    sub = parser.add_subparsers(dest="stage", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled record")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-beats", type=int, default=100, help="beats per class")
    p.add_argument("--fs", type=float, default=250.0)
    p.add_argument("--noise-std", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="validate and normalize a raw record")
    _add_record_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("preprocess", help="resample, filter, segment, normalize")
    _add_record_flags(p)
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
    p.add_argument("--targets", default="N=300000,S=100000,V=100000")
    p.add_argument("--k-neighbors", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--labels", default="N,S,V")
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("encode", help="beats -> GASF/MTF/RP image files")
    p.add_argument("--beats", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--mtf-bins", type=int, default=8)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("train", help="fit a tree-ensemble classifier")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--model", choices=("gbdt", "rf"), default="gbdt")
    p.add_argument("--labels", default="N,S,V")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--learning-rate", type=float, default=0.5)
    p.add_argument("--max-depth", type=int, default=10)
    p.add_argument("--n-estimators", type=int, default=1000)
    p.add_argument("--min-data-in-leaf", type=int, default=10)
    p.add_argument("--l1-alpha", type=float, default=0.5)
    p.add_argument("--l2-lambda", type=float, default=0.7327)
    p.add_argument("--n-trees", type=int, default=100)
    p.add_argument("--rf-max-depth", type=int, default=None)
    p.add_argument("--min-samples-leaf", type=int, default=1)
    p.add_argument("--features-per-split", type=int, default=None)
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
    p.add_argument("--k-neighbors", type=int, default=5)
    p.add_argument("--labels", default="N,S,V")
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("report", help="render metrics CSVs as one table")
    p.add_argument("--metrics", nargs="+", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    for name, sp in sub.choices.items():
        if name in config:
            known = {a.dest for a in sp._actions}
            unknown = set(config[name]) - known
            if unknown:
                raise ValidationError(
                    f"config section '{name}' has unknown keys: {sorted(unknown)}")
            sp.set_defaults(**config[name])
    return parser


def _load_config(argv) -> dict:
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    ns, _ = pre.parse_known_args(argv)
    if ns.config is None:
        return {}
    _require_inputs(ns.config)
    with open(ns.config) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValidationError(f"{ns.config}: config must be a JSON object")
    unknown = set(config) - set(STAGES)
    if unknown:
        raise ValidationError(f"{ns.config}: unknown stages {sorted(unknown)}")
    return config


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = _load_config(argv)
        args = build_parser(config).parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
