"""Versioned plain-text model files.

Grammar (one record per line, whitespace separated):

    ecgbeats-model 1
    kind <gbdt|rf>
    n_classes <K>
    n_features <F>
    n_rounds <R>                      # gbdt only
    n_trees <T>
    tree <t> nodes <M>                # repeated T times, t ascending
    n <i> split <feature> <threshold> <left> <right>
    n <i> leaf <value>                # gbdt leaf
    n <i> leaf <c0> ... <cK-1>        # rf leaf (class counts)
    end

A leaf record is its node's entry of the tree's one ``value`` payload: a
GBDT score or a forest's K class counts. Thresholds and payloads are written
with repr(), which round-trips float64 exactly, so a loaded model predicts
bit-identically. GBDT trees are stored in their round-major, class-minor
training order; ``n_rounds`` is the model's tree count over K, and loading
checks n_trees == n_rounds * K.

Loading checks every record: 1 <= K <= record_io.MAX_CLASSES (64), the
bound on label symbols; each split node i needs i < left, right < M and
0 <= feature < F (so routing always ends at a leaf), and numbers must parse,
thresholds and leaf values as finite floats. A forest has at least one tree
and each of its leaves' counts sums to 1 .. 2**63 - 1, so its probabilities
are never 0 / 0 or an int64 overflow. A GBDT class's score is one leaf per
tree summed, so its trees' largest |leaf| values must sum below half the
float64 maximum: its scores, and their differences in the softmax, then stay
finite, never inf - inf = NaN. A malformed file raises ParseError, a DataError
naming the file and line.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DataError, ParseError
from ..record_io import MAX_CLASSES, parse_number
from .ensemble import EnsembleModel
from .tree import LEAF, Tree

FORMAT_NAME = "ecgbeats-model"
FORMAT_VERSION = 1
# a bound on every GBDT class score: differences of two such scores stay finite
_SCORE_LIMIT = float(np.finfo(float).max) / 2


def save_model(model: EnsembleModel, path) -> None:
    lines = [f"{FORMAT_NAME} {FORMAT_VERSION}",
             f"kind {model.kind}",
             f"n_classes {model.n_classes}",
             f"n_features {model.n_features}"]
    if model.kind == "gbdt":
        lines.append(f"n_rounds {model.n_rounds}")
    lines.append(f"n_trees {len(model.trees)}")
    for t, tree in enumerate(model.trees):
        lines.append(f"tree {t} nodes {tree.n_nodes}")
        for i in range(tree.n_nodes):
            if tree.feature[i] != LEAF:
                lines.append(
                    f"n {i} split {int(tree.feature[i])} {float(tree.threshold[i])!r} "
                    f"{int(tree.left[i])} {int(tree.right[i])}"
                )
            else:
                leaf = " ".join(map(repr, np.atleast_1d(tree.value[i]).tolist()))
                lines.append(f"n {i} leaf {leaf}")
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class _LineReader:
    """Whitespace-split records of a model file. Every malformed record ends
    in a ParseError (a DataError) naming the file and line."""

    def __init__(self, path):
        try:
            with open(path) as fh:
                self.lines = [ln.rstrip("\n") for ln in fh]
        except UnicodeDecodeError:
            raise DataError(f"{path}: not a text file") from None
        self.path = path
        self.pos = 0

    def fail(self, message: str):
        raise ParseError(self.path, self.pos, message)

    def next(self) -> list:
        while self.pos < len(self.lines):
            line = self.lines[self.pos]
            self.pos += 1
            if line.strip():
                return line.split()
        raise DataError(f"{self.path}: truncated model file")

    def expect(self, key: str, n_fields: int | None = 1) -> list:
        """The fields after ``key``; n_fields None allows any number."""
        parts = self.next()
        if parts[0] != key:
            self.fail(f"expected '{key}', found '{parts[0]}'")
        if n_fields is not None and len(parts) != 1 + n_fields:
            self.fail(f"'{key}' needs {n_fields} field(s), found {len(parts) - 1}")
        return parts[1:]

    def integer(self, token: str, low: int = 0, high: int | None = None) -> int:
        """An integer in [low, high), written in plain ASCII digits."""
        value = parse_number(token, int)
        if value is None:
            self.fail(f"expected an integer, found {token!r}")
        if value < low or (high is not None and value >= high):
            self.fail(f"{value} outside [{low}, {'inf' if high is None else high})")
        return value

    def number(self, token: str) -> float:
        """A finite float, written in plain ASCII."""
        value = parse_number(token)
        if value is None:
            self.fail(f"expected a number, found {token!r}")
        if not math.isfinite(value):
            self.fail(f"{token} is not a finite number")
        return value


def _read_tree(reader: _LineReader, t: int, kind: str, n_classes: int,
               n_features: int) -> Tree:
    """Tree block ``t``. Children must come after their parent (the builders
    always append them), which also rules out cycles, so routing ends."""
    t_id, word, n_nodes = reader.expect("tree", 3)
    if t_id != str(t) or word != "nodes":
        reader.fail(f"expected 'tree {t} nodes <M>'")
    # at most one node per remaining line, so a corrupt count cannot allocate much
    n_nodes = reader.integer(n_nodes, low=1, high=len(reader.lines) - reader.pos + 1)
    # a leaf holds K class counts (rf) or one score (gbdt); a split a zero payload
    if kind == "rf":
        n_fields, zero, parse = n_classes, [0] * n_classes, reader.integer
    else:
        n_fields, zero, parse = 1, 0.0, reader.number
    nodes = [None] * n_nodes
    for _ in range(n_nodes):
        parts = reader.expect("n", None)
        if len(parts) < 2:
            reader.fail("node record needs an id and a kind")
        i = reader.integer(parts[0], high=n_nodes)
        if nodes[i] is not None:
            reader.fail(f"node {i} defined twice")
        node_kind, fields = parts[1], parts[2:]
        if node_kind == "split":
            if len(fields) != 4:
                reader.fail(f"split needs 4 fields, found {len(fields)}")
            nodes[i] = (reader.integer(fields[0], high=n_features), reader.number(fields[1]),
                        reader.integer(fields[2], low=i + 1, high=n_nodes),
                        reader.integer(fields[3], low=i + 1, high=n_nodes), zero)
        elif node_kind == "leaf":
            if len(fields) != n_fields:
                reader.fail(f"leaf needs {n_fields} field(s), found {len(fields)}")
            payload = [parse(token) for token in fields]
            # a forest leaf's counts are divided by their sum when predicting
            if kind == "rf" and not 0 < sum(payload) < 2 ** 63:
                reader.fail(f"leaf counts must sum to 1 .. 2**63 - 1, found {sum(payload)}")
            nodes[i] = (LEAF, 0.0, LEAF, LEAF, payload if kind == "rf" else payload[0])
        else:
            reader.fail(f"unknown node kind {node_kind!r}")
    return Tree.from_nodes(nodes)


def load_model(path) -> EnsembleModel:
    reader = _LineReader(path)
    header = reader.next()
    if header[0] != FORMAT_NAME:
        raise DataError(f"{path}: not an {FORMAT_NAME} file")
    if len(header) != 2 or reader.integer(header[1]) != FORMAT_VERSION:
        reader.fail(f"format version {' '.join(header[1:])!r} unsupported "
                    f"(expected {FORMAT_VERSION})")
    kind = reader.expect("kind")[0]
    if kind not in ("gbdt", "rf"):
        reader.fail(f"unknown model kind {kind!r}")
    n_classes = reader.integer(reader.expect("n_classes")[0], low=1,
                               high=MAX_CLASSES + 1)
    n_features = reader.integer(reader.expect("n_features")[0], low=1)
    n_rounds = reader.integer(reader.expect("n_rounds")[0]) if kind == "gbdt" else 0
    n_trees = reader.integer(reader.expect("n_trees")[0])
    if kind == "gbdt" and n_trees != n_rounds * n_classes:
        reader.fail(f"gbdt needs n_rounds * n_classes = {n_rounds * n_classes} trees")
    if kind == "rf" and n_trees == 0:
        reader.fail("a forest needs at least one tree")

    trees, reach = [], [0.0] * n_classes      # per GBDT class: sum of max |leaf|
    for t in range(n_trees):
        trees.append(_read_tree(reader, t, kind, n_classes, n_features))
        if kind == "gbdt":
            reach[t % n_classes] += float(np.abs(trees[-1].value).max())
            if not reach[t % n_classes] < _SCORE_LIMIT:
                reader.fail(f"class {t % n_classes}'s leaf values sum past "
                            f"{_SCORE_LIMIT:.3g}, so its scores can overflow")
    if reader.next() != ["end"]:
        reader.fail("missing end marker")
    return EnsembleModel(kind=kind, n_classes=n_classes, n_features=n_features, trees=trees)
