"""In-memory spans around the public functions of each ecgbeats layer.

The spans are recorded from outside the program: ``Tracer.install`` replaces
module attributes with timing wrappers and ``Tracer.uninstall`` puts the
originals back, so nothing under ``src/`` carries tracing code. A function
that ``ecgbeats.cli`` binds by name at import time (``from .model import
fit_gbdt``) is wrapped in the ``ecgbeats.cli`` namespace as well as in its
home module; otherwise the CLI would call the unwrapped original.

A span is ``(id, parent, name, start, end, chain)``: ``parent`` is the id of
the span that was open when it started, ``chain`` names the workload chain it
belongs to. A span's self time is its duration minus the durations of its
children (calls are nested on one thread, so children never overlap).

Counters are taken at the same boundaries: a probe's ``count`` hook sees the
call's arguments and result, after its span has ended, and returns the
counts to add.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

# counters merged with max() instead of a sum
MAX_COUNTERS = {"model.gbdt.max_depth"}


@dataclass(frozen=True)
class Probe:
    module: str               # home module of the function
    attr: str                 # function name in that module
    span: str                 # span name
    count: Callable | None = None   # (args, kwargs, result) -> {counter: n}
    in_cli: bool = False      # also bound by name in ecgbeats.cli


def _rows_read_signal(args, kwargs, result):
    return {"record_io.rows_read": result.shape[0]}


def _rows_read_features(args, kwargs, result):
    return {"record_io.rows_read": result[1].shape[0]}


def _rows_written(args, kwargs, result):
    return {"record_io.rows_written": len(args[1])}


def _segmented(args, kwargs, result):
    return {"preprocess.beats_kept": len(result[0]), "preprocess.beats_dropped": result[1]}


def _smote(args, kwargs, result):
    labels, targets = np.asarray(args[1]), args[2]
    # SMOTE's neighbour search is all-pairs within each class it grows
    sizes = [int(np.count_nonzero(labels == cls)) for cls in targets]
    pairs = sum(m * m for m, target in zip(sizes, targets.values()) if target > m)
    return {"balance.synthetic_rows": result[1].shape[0] - labels.shape[0],
            "balance.knn_pairs": pairs}


def tree_depth(tree) -> int:
    """Edges from the root to the deepest leaf (children follow parents)."""
    depth = np.zeros(tree.n_nodes, dtype=int)
    for node in np.flatnonzero(tree.feature >= 0):
        depth[tree.left[node]] = depth[tree.right[node]] = depth[node] + 1
    return int(depth.max())


def _gbdt(args, kwargs, model):
    return {"model.gbdt.trees": len(model.trees),
            "model.gbdt.nodes": sum(t.n_nodes for t in model.trees),
            "model.gbdt.max_depth": max(tree_depth(t) for t in model.trees)}


def _forest(args, kwargs, model):
    return {"model.forest.trees": len(model.trees),
            "model.forest.nodes": sum(t.n_nodes for t in model.trees)}


def _saved(args, kwargs, result):
    return {"model.persist.bytes": os.path.getsize(os.fspath(args[1]))}


def _predicted(args, kwargs, result):
    return {"model.ensemble.row_trees": len(result[0]) * len(args[0].trees)}


def _per_call(counter: str):
    return lambda args, kwargs, result: {counter: 1}


CLI_COMMANDS = ("preprocess", "featurize", "balance", "train", "evaluate", "encode")

PROBES = (
    *(Probe("ecgbeats.cli", f"cmd_{c}", f"cli.{c}") for c in CLI_COMMANDS),
    Probe("ecgbeats.cli", "read_beats_csv", "cli.read_beats_csv"),
    Probe("ecgbeats.cli", "write_beats_csv", "cli.write_beats_csv"),
    Probe("ecgbeats.record_io", "load_record", "record_io.load_record"),
    Probe("ecgbeats.record_io", "read_signal_csv", "record_io.read_signal_csv",
          _rows_read_signal),
    Probe("ecgbeats.record_io", "read_annotations_csv", "record_io.read_annotations_csv"),
    Probe("ecgbeats.record_io", "save_feature_matrix", "record_io.save_feature_matrix",
          _rows_written),
    Probe("ecgbeats.record_io", "load_feature_matrix", "record_io.load_feature_matrix",
          _rows_read_features),
    Probe("ecgbeats.record_io", "export_image", "record_io.export_image"),
    Probe("ecgbeats.preprocess", "resample", "preprocess.resample"),
    Probe("ecgbeats.preprocess", "bandpass_filter", "preprocess.filter"),
    Probe("ecgbeats.preprocess", "segment_beats", "preprocess.segment", _segmented),
    Probe("ecgbeats.preprocess", "normalize_beats", "preprocess.normalize"),
    Probe("ecgbeats.features", "beat_features", "features.beat_features",
          _per_call("features.calls")),
    Probe("ecgbeats.balance", "undersample", "balance.undersample"),
    Probe("ecgbeats.balance", "smote", "balance.smote", _smote),
    Probe("ecgbeats.model.gbdt", "fit_gbdt", "model.gbdt.fit", _gbdt, in_cli=True),
    Probe("ecgbeats.model.forest", "fit_random_forest", "model.forest.fit", _forest,
          in_cli=True),
    Probe("ecgbeats.model.persist", "save_model", "model.persist.save", _saved, in_cli=True),
    Probe("ecgbeats.model.persist", "load_model", "model.persist.load", in_cli=True),
    Probe("ecgbeats.model.ensemble", "predict_batch", "model.ensemble.predict", _predicted,
          in_cli=True),
    Probe("ecgbeats.encode", "encode_beat", "encode.encode_beat", _per_call("encode.beats"),
          in_cli=True),
    Probe("ecgbeats.encode", "paa", "encode.paa"),
    Probe("ecgbeats.encode", "gasf", "encode.gasf"),
    Probe("ecgbeats.encode", "mtf", "encode.mtf"),
    Probe("ecgbeats.encode", "recurrence", "encode.recurrence"),
    Probe("ecgbeats.synth", "generate", "synth.generate"),
)


class Tracer:
    """Keeps spans and counters in memory until ``write`` is called."""

    def __init__(self):
        self.spans = []          # [id, parent, name, start, end, chain]
        self.chain = None        # chain id stamped on new spans
        self._open = []          # ids of the spans currently open
        self._counts = defaultdict(int)   # counters since the last take_counts
        self._saved = []         # (module, attr, original) while installed

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._start(name)
        try:
            yield
        finally:
            self._end(span)

    def _start(self, name: str) -> list:
        parent = self._open[-1] if self._open else None
        span = [len(self.spans), parent, name, 0.0, 0.0, self.chain]
        self.spans.append(span)
        self._open.append(span[0])
        span[3] = time.perf_counter()
        return span

    def _end(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._open.pop()

    def _wrap(self, probe: Probe, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._start(probe.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(span)
            if probe.count is not None:
                tracer._add_counts(probe.count(args, kwargs, result))
            return result
        return traced

    def install(self) -> None:
        for probe in PROBES:
            modules = [probe.module] + (["ecgbeats.cli"] if probe.in_cli else [])
            original = getattr(importlib.import_module(probe.module), probe.attr)
            wrapper = self._wrap(probe, original)
            for name in modules:
                module = importlib.import_module(name)
                if getattr(module, probe.attr) is not original:
                    raise RuntimeError(f"{name}.{probe.attr} is not the function in "
                                       f"{probe.module}; cannot wrap it")
                self._saved.append((module, probe.attr, original))
                setattr(module, probe.attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _add_counts(self, counts: dict) -> None:
        for key, n in counts.items():
            merged = self._counts[key]
            self._counts[key] = max(merged, n) if key in MAX_COUNTERS else merged + n

    def take_counts(self) -> dict:
        """Counters added since the last call."""
        counts = dict(self._counts)
        self._counts.clear()
        return counts

    def self_times(self, chain) -> dict:
        """Summed self time per span name over the spans of one chain."""
        spans = [s for s in self.spans if s[5] == chain]
        child_time = defaultdict(float)
        for span in spans:
            if span[1] is not None:
                child_time[span[1]] += span[4] - span[3]
        totals = defaultdict(float)
        for span in spans:
            totals[span[2]] += span[4] - span[3] - child_time[span[0]]
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, chain in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "chain": chain}) + "\n")

