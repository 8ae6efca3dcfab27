#!/usr/bin/env python3
"""Benchmark of the ecgbeats command-line pipeline.

    python3 perfbench/run.py --workload fit-hard --seed 1 --seconds 40 --trace 0

Run it from anywhere inside a checkout: it imports ``ecgbeats`` from the
checkout's ``src/`` (and exits 2 when there is none), and keeps everything it
writes under ``.bench_work/<workload>/``.

Set-up generates one synthetic record from ``--seed`` and writes its signal
and annotation CSVs; the chains read that first copy. A chain then runs
every CLI command the way a user runs it, each as its own subprocess and one
after another (the load never exceeds one core plus BLAS threads): preprocess,
featurize (20 % held out), balance, train gbdt, train rf, evaluate each model,
encode. Chains repeat while the next one still fits in ``--seconds``, and at
least twice; a chain takes 15-25 s, so a run mostly makes two, and
``pipeline_s`` is their median. Reruns are compared byte for byte. After each
chain the run sets up three more times, so that the samples of ``setup_s``
(their median) are spread over the run like the chains; the first, cold
set-up, whose record the chains read, is left out of it.
Every workload runs every command, so every metric exists on every workload;
the workloads differ in data and parameters so that each one loads other
layers (BENCHMARK.json says why each exists).

The end-to-end times are whole-chain figures. On a shared 2-core VM one CLI
call's wall time spread by up to 30 % between runs (interquartile range over
median, ten runs), more than a 25 % regression bound, while the chain total
spread by 7-15 %. Per-command times are kept in the result file.

With ``--trace 1`` the same chains run in-process through
``ecgbeats.cli.main``, untraced and traced in turn, and the per-layer metrics
come from the traced chains' spans (see ``tracing.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Every stage run and
every output check counts as one attempted operation. Machine facts, inputs,
per-chain figures and artifact digests go to
``.bench_work/<workload>/result-seed<n>-trace<k>.json``, and a traced run's
spans to ``spans-seed<n>-trace1.jsonl`` beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import dataclasses
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracing import CLI_COMMANDS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TIME_BUDGET_S = 170.0     # a run must end within 180 s, whatever happens
TEST_FRACTION = 0.2
STARTUP_REPEATS = 3      # import probes of a traced run
SETUPS_PER_CHAIN = 3      # set-up samples taken after each chain
ARTIFACTS = ("beats.csv", "features_train.csv", "features_test.csv", "balanced.csv",
             "gbdt.model", "rf.model", "images/index.csv")


@dataclass(frozen=True)
class Workload:
    n_beats: int                 # per class; synth keeps exactly this many per class
    noise_std: float
    rr_jitter: float
    balance: tuple               # N, S, V targets as multiples of the training class size
    gbdt_rounds: int             # other GBDT settings are the paper's (CLI defaults)
    rf_trees: int
    encode_beats: int            # encode the first n beats
    f1_floors: tuple             # held-out macro F1 that (gbdt, rf) must reach

    def train_per_class(self) -> int:
        # stratified_split puts round(fraction * count) of each class on the test side
        return self.n_beats - int(round(TEST_FRACTION * self.n_beats))

    def targets(self) -> tuple:
        return tuple(int(round(r * self.train_per_class())) for r in self.balance)

    def tiny(self) -> Workload:
        """The same chain at a size that runs in seconds, for the smoke test."""
        return dataclasses.replace(
            self, n_beats=40, gbdt_rounds=min(self.gbdt_rounds, 2),
            rf_trees=min(self.rf_trees, 2), f1_floors=(0.5, 0.5), encode_beats=10)


# Every CLI call pays about 1.1-1.5 s of imports (mostly scipy.signal), and a
# chain makes eight of them, so each workload makes its target layers large
# against that floor and keeps the other stages as small as they can be while
# every metric still exists. The F1 floors are the lowest held-out macro F1
# seen over 40 seeds (fit-hard) and 37 seeds (corpus-prep), less 0.02-0.025.
WORKLOADS = {
    # Noise and RR jitter make the classes overlap, so GBDT trees grow deep
    # (26-30 nodes per tree, depth 10) at the paper's hyperparameters.
    "fit-hard": Workload(
        n_beats=600, noise_std=0.3, rr_jitter=0.15, balance=(1.5, 1.5, 1.5),
        gbdt_rounds=20, rf_trees=10, encode_beats=10, f1_floors=(0.95, 0.93)),
    # The largest record, SMOTE growing every class and a 500-beat image export
    # load the CSV readers and writers, preprocess, balance and encode; one
    # GBDT round keeps model.gbdt small.
    "corpus-prep": Workload(
        n_beats=1200, noise_std=0.1, rr_jitter=0.02, balance=(3.75, 1.25, 1.25),
        gbdt_rounds=1, rf_trees=2, encode_beats=500, f1_floors=(0.98, 0.95)),
}


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------

class Outcome:
    """Counts operations attempted and failed; keeps a line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}".rstrip(": "))
        return ok


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy
    import scipy
    cpu_model = platform.processor() or None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), cpu_model)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model, "caches": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads(),
            "platform": platform.platform()}


# ---------------------------------------------------------------------------
# running stages
# ---------------------------------------------------------------------------

@dataclass
class StageRun:
    code: int
    wall_s: float
    rss_mb: float | None     # peak RSS of a subprocess; None in-process
    log: str


def spawn(cmd, log_path: Path, deadline: float) -> StageRun:
    """Run one child to completion; its rusage comes from os.wait4."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log_path, "wb") as log:
        os.sync()   # so no write-back of earlier outputs runs inside the timed call
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped; Popen must not wait
    return StageRun(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                    log_path.read_text(errors="replace"))


def subprocess_stage(deadline: float):
    def run(name, argv, log_path: Path) -> StageRun:
        return spawn([sys.executable, "-m", "ecgbeats.cli", *argv], log_path, deadline)
    return run


def inprocess_stage(tracer: Tracer | None):
    """Stages through ``ecgbeats.cli.main``; traced ones under a ``stage.<name>`` span.

    The probes are installed only around a traced stage, before its clock
    starts, so untraced chains run the original functions.
    """
    from ecgbeats import cli

    def run(name, argv, log_path: Path) -> StageRun:
        buffer = io.StringIO()
        if tracer:
            tracer.install()
        try:
            span = tracer.span(f"stage.{name}") if tracer else contextlib.nullcontext()
            os.sync()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
                try:
                    with span:
                        code = cli.main(argv)
                except Exception:  # a crash is a failed stage, not a crashed benchmark
                    traceback.print_exc()
                    code = -1
            wall = time.perf_counter() - start
        finally:
            if tracer:
                tracer.uninstall()
        log_path.write_text(buffer.getvalue())
        return StageRun(code, wall, None, buffer.getvalue())
    return run


# ---------------------------------------------------------------------------
# one workload chain
# ---------------------------------------------------------------------------

def chain_stages(w: Workload, seed: int, inputs: Path, out: Path) -> list:
    """(stage, CLI argv) in run order."""
    targets = ",".join(f"{sym}={n}" for sym, n in zip("NSV", w.targets()))
    s = str(seed)
    return [
        ("preprocess", ["preprocess", "--signal", inputs / "signal.csv",
                        "--annotations", inputs / "annotations.csv", "--fs", "250",
                        "--out-dir", out]),
        ("featurize", ["featurize", "--beats", out / "beats.csv", "--out",
                       out / "features.csv", "--test-fraction", str(TEST_FRACTION),
                       "--split-seed", s]),
        ("balance", ["balance", "--features", out / "features_train.csv",
                     "--out", out / "balanced.csv", "--targets", targets, "--seed", s]),
        ("train_gbdt", ["train", "--model", "gbdt", "--features", out / "balanced.csv",
                        "--out", out / "gbdt.model", "--n-estimators", str(w.gbdt_rounds),
                        "--seed", s]),
        ("train_rf", ["train", "--model", "rf", "--features", out / "balanced.csv",
                      "--out", out / "rf.model", "--n-trees", str(w.rf_trees), "--seed", s]),
        ("evaluate_gbdt", ["evaluate", "--model-file", out / "gbdt.model", "--features",
                           out / "features_test.csv", "--out-dir", out / "eval_gbdt",
                           "--name", "gbdt"]),
        ("evaluate_rf", ["evaluate", "--model-file", out / "rf.model", "--features",
                         out / "features_test.csv", "--out-dir", out / "eval_rf",
                         "--name", "rf"]),
        ("encode", ["encode", "--beats", out / "encode_input.csv",
                    "--out-dir", out / "images"]),
    ]


def write_encode_input(w: Workload, out: Path) -> None:
    """The first ``encode_beats`` rows of beats.csv: encoding every beat would
    take more of a run than the other stages together."""
    with open(out / "beats.csv") as src, open(out / "encode_input.csv", "w") as dst:
        for _, line in zip(range(w.encode_beats + 1), src):
            dst.write(line)


def run_chain(w: Workload, seed: int, inputs: Path, out: Path, run_stage,
              outcome: Outcome) -> dict | None:
    """Run every stage once into the new directory ``out``; returns per-stage
    wall times, or None on a failure."""
    out.mkdir(parents=True)
    walls, rss = {}, []
    for name, argv in chain_stages(w, seed, inputs, out):
        if name == "encode":
            write_encode_input(w, out)
        result = run_stage(name, [str(a) for a in argv], out / f"{name}.log")
        if not outcome.check(f"stage {name} exit code", result.code == 0,
                             f"exit {result.code}: {result.log[-400:]}"):
            return None
        walls[name] = result.wall_s
        if result.rss_mb is not None:
            rss.append(result.rss_mb)
    return {"stages": walls, "total_s": sum(walls.values()),
            "peak_rss_mb": max(rss) if rss else None}


def csv_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def check_outputs(w: Workload, out: Path, outcome: Outcome) -> dict:
    """Check one chain's outputs; returns artifact digests and macro F1 per model."""
    expected = 3 * w.n_beats
    meta = json.loads((out / "record_meta.json").read_text())
    outcome.check("beats kept", meta["n_beats"] == expected,
                  f"{meta['n_beats']} != {expected}")
    # synth adds one guard beat at each end; segmentation drops exactly those
    outcome.check("beats dropped", meta["n_dropped"] == 2, f"{meta['n_dropped']} != 2")
    n_split = sum(len(csv_rows(out / f)) for f in ("features_train.csv", "features_test.csv"))
    outcome.check("feature rows", n_split == expected, f"{n_split} != {expected}")

    labels = [row[-1] for row in csv_rows(out / "balanced.csv")]
    histogram = [labels.count(str(c)) for c in range(3)]
    outcome.check("balanced histogram", histogram == list(w.targets()) and
                  len(labels) == sum(w.targets()), f"{histogram} != {list(w.targets())}")

    f1 = {}
    for model, floor in zip(("gbdt", "rf"), w.f1_floors):
        f1[model] = float(csv_rows(out / f"eval_{model}" / "metrics.csv")[0][4])
        outcome.check(f"macro F1 {model}", f1[model] >= floor, f"{f1[model]} < floor {floor}")

    n_images = w.encode_beats
    index = csv_rows(out / "images" / "index.csv")
    n_files = sum(1 for p in (out / "images").iterdir() if p.name.startswith("beat_"))
    outcome.check("image files", len(index) == n_images and n_files == 4 * n_images,
                  f"{len(index)} index rows, {n_files} files for {n_images} beats")
    return {"digests": {a: sha256(out / a) for a in ARTIFACTS}, "f1": f1}


def check_rerun_digests(key: str, digests: dict, outcome: Outcome) -> None:
    """Digests of an earlier run of the same source, workload and seed must match."""
    path = WORK / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known:
        differ = sorted(a for a in digests if known[key].get(a) != digests[a])
        outcome.check("artifacts match an earlier run", not differ, f"differ: {differ}")
        return
    known[key] = digests
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)


def run_chains(w: Workload, seconds: float, run_dir: Path, run_one,
               outcome: Outcome, min_chains: int, after_chain=None) -> list:
    """Whole chains until the next one would overrun ``seconds`` (at least ``min_chains``).

    ``run_one(i, out)`` runs chain ``i`` into the new directory ``out`` and
    returns its record, or None on a failed stage. Each chain's outputs are
    checked, and every rerun must reproduce the first chain's artifacts byte
    for byte. ``after_chain(i)``, if given, runs after chain ``i`` is checked.
    """
    chains = []
    start = time.perf_counter()
    while True:
        out = run_dir / f"chain{len(chains)}"
        chain = run_one(len(chains), out)
        if chain is None:
            return chains
        try:
            chain.update(check_outputs(w, out, outcome))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            outcome.check("chain outputs readable", False, repr(exc))
            return chains
        chains.append(chain)
        if len(chains) > 1:
            outcome.check("rerun byte-identical", chain["digests"] == chains[0]["digests"],
                          f"chain {len(chains)} differs from chain 1")
        if after_chain is not None:
            after_chain(len(chains) - 1)
        elapsed = time.perf_counter() - start
        if len(chains) >= min_chains and elapsed * (len(chains) + 1) / len(chains) > seconds:
            return chains


def set_up(w: Workload, seed: int, inputs: Path) -> float:
    """Generate the record and write its CSVs into the new directory ``inputs``;
    returns the wall time."""
    from ecgbeats import record_io, synth
    inputs.mkdir(parents=True)
    os.sync()
    start = time.perf_counter()
    record = synth.generate(synth.SynthConfig(n_beats=w.n_beats, noise_std=w.noise_std,
                                              rr_jitter=w.rr_jitter, seed=seed))
    record_io.write_signal_csv(inputs / "signal.csv", record.leads[0])
    record_io.write_annotations_csv(inputs / "annotations.csv", record.rpeaks, record.labels)
    return time.perf_counter() - start


def repeat_spawn(spawn_one, repeats: int, outcome: Outcome, what: str) -> list:
    """Results of the calls that exited 0 out of ``repeats`` calls."""
    results = [spawn_one(i) for i in range(repeats)]
    return [r for r in results
            if outcome.check(f"{what} exit code", r.code == 0, r.log[-400:])]


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def untraced_run(w: Workload, seed: int, seconds: float, run_dir: Path,
                 outcome: Outcome, deadline: float):
    """Subprocess chains; returns (end-to-end metrics, chains, raw samples)."""
    cold_setup = set_up(w, seed, run_dir / "inputs")
    setups = []

    def set_up_again(i):
        for k in range(SETUPS_PER_CHAIN):
            setups.append(set_up(w, seed, run_dir / f"setup{i}-{k}"))

    run_stage = subprocess_stage(deadline)
    chains = run_chains(
        w, seconds, run_dir,
        lambda i, out: run_chain(w, seed, run_dir / "inputs", out, run_stage, outcome),
        outcome, min_chains=2, after_chain=set_up_again)
    metrics = {"setup_s": statistics.median(setups or [cold_setup])}
    if chains:
        pipeline = statistics.median(c["total_s"] for c in chains)
        metrics["pipeline_s"] = pipeline
        metrics["beats_per_s"] = 3 * w.n_beats / pipeline
        metrics["peak_rss_mb"] = max(c["peak_rss_mb"] for c in chains)
        for model in ("gbdt", "rf"):
            metrics[f"macro_f1.{model}"] = statistics.median(c["f1"][model] for c in chains)
    return metrics, chains, {"setup_s": setups, "cold_setup_s": cold_setup}


def layer_metric(span_name: str) -> str:
    """Metric that reports a span's summed self time."""
    layer, _, rest = span_name.partition(".")
    if layer == "stage":
        return "trace.unattributed_s"      # stage wall time no layer span covers
    if layer == "cli" and rest in CLI_COMMANDS:
        return f"{span_name}.self_s"
    return f"{span_name}_s"


def image_counts(out: Path) -> dict:
    files = [p for p in (out / "images").iterdir() if p.name.startswith("beat_")]
    return {"record_io.files_written": len(files),
            "record_io.bytes_written": sum(p.stat().st_size for p in files)}


def traced_run(w: Workload, seed: int, seconds: float, run_dir: Path, outcome: Outcome,
               deadline: float, chain_prefix: str):
    """In-process chains, untraced and traced in turn; returns (per-layer
    metrics, chains, raw samples, tracer)."""
    probe = ("import time; t = time.perf_counter(); import ecgbeats.cli; "
             "print(time.perf_counter() - t)")
    imports = [float(r.log.split()[-1]) for r in repeat_spawn(
        lambda i: spawn([sys.executable, "-c", probe], run_dir / f"import{i}.log", deadline),
        STARTUP_REPEATS, outcome, "import")]

    tracer = Tracer()
    tracer.chain = "setup"
    tracer.install()
    try:
        set_up(w, seed, run_dir / "setup0")
    finally:
        tracer.uninstall()
    tracer.take_counts()

    def run_one(i, out):
        traced = i % 2 == 1
        tracer.chain = f"{chain_prefix}/chain{i}"
        chain = run_chain(w, seed, run_dir / "setup0", out,
                          inprocess_stage(tracer if traced else None), outcome)
        if chain is not None:
            chain["traced"] = traced
            if traced:
                chain["counts"] = {**tracer.take_counts(), **image_counts(out)}
        return chain

    # a first chain, then at least one traced chain and its untraced partner
    chains = run_chains(w, seconds, run_dir, run_one, outcome, min_chains=3)
    traced = [c for c in chains if c["traced"]]
    metrics = {"synth.generate_s": tracer.self_times("setup")["synth.generate"]}
    if imports:
        metrics["cli.import_s"] = statistics.median(imports)
    # Chain 0 is untraced and pays the process's first-call costs; each traced
    # chain is compared with the untraced chain right after it, which shares
    # its slow or fast spell of the machine.
    pairs = [(a, b) for a, b in zip(chains[1:], chains[2:]) if a["traced"]]
    if pairs:
        per_chain = []
        for i, chain in enumerate(chains):
            if chain["traced"]:
                totals = {}
                for name, t in tracer.self_times(f"{chain_prefix}/chain{i}").items():
                    totals[layer_metric(name)] = totals.get(layer_metric(name), 0.0) + t
                per_chain.append(totals)
        for metric in per_chain[0]:
            metrics[metric] = statistics.median(c.get(metric, 0.0) for c in per_chain)
        counts = traced[0]["counts"]
        outcome.check("counters repeat across traced chains",
                      all(c["counts"] == counts for c in traced))
        metrics.update(counts)
        metrics["trace.spans"] = sum(1 for s in tracer.spans if s[5] == f"{chain_prefix}/chain1")
        metrics["trace.overhead_s"] = statistics.median(a["total_s"] - b["total_s"]
                                                        for a, b in pairs)
    return metrics, chains, {"cli.import_s": imports}, tracer


def load_spec(trace: int):
    """(metric name -> unit for this kind of run, workload name -> why) from
    BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    return units, {w["name"]: w["why"] for w in spec["workloads"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole chains for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs the same chain on a 40-beat/class record")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + TIME_BUDGET_S

    if not (SRC / "ecgbeats" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not an ecgbeats checkout (need src/ecgbeats and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    units, whys = load_spec(args.trace)

    w = WORKLOADS[args.workload]
    if args.scale == "tiny":
        w = w.tiny()
    base = WORK / args.workload
    tag = f"seed{args.seed}-trace{args.trace}" + ("-tiny" if args.scale == "tiny" else "")
    # Every set-up and chain writes into a new directory, and nothing is deleted
    # until the measuring is over: where the file system discards freed blocks
    # (ext4 mounted with -o discard on a virtual disk), files written in place
    # of just-deleted or truncated ones took up to twice as long.
    run_dir = base / f"run-{tag}-{time.time_ns()}"
    outcome = Outcome()
    try:
        run_dir.mkdir(parents=True)
        if args.trace:
            metrics, chains, samples, tracer = traced_run(
                w, args.seed, args.seconds, run_dir, outcome, deadline,
                f"{args.workload}/seed{args.seed}")
            tracer.write(base / f"spans-{tag}.jsonl")
        else:
            metrics, chains, samples = untraced_run(w, args.seed, args.seconds, run_dir,
                                                    outcome, deadline)
    finally:
        for stale in base.glob("run-*"):   # this run's, and any an aborted run left
            shutil.rmtree(stale, ignore_errors=True)
        os.sync()   # finish the deletes here, not in the next run's set-up
    if chains:
        # traced and untraced runs share a key: tracing must not change outputs
        check_rerun_digests(f"{args.workload}|seed{args.seed}|{w}|src={source_digest()}",
                            chains[0]["digests"], outcome)
    missing = sorted(set(units) - set(metrics))
    outcome.check("every metric measured", not missing, f"missing {missing}")

    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "seconds": args.seconds, "why": whys[args.workload],
        "inputs": dataclasses.asdict(w) | {"targets": w.targets(),
                                           "beats": 3 * w.n_beats},
        "machine": machine_facts(), "chains": chains, "samples": samples,
        "metrics": metrics, "failures": outcome.failures,
    }
    (base / f"result-{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    print("machine:", json.dumps(record["machine"]))
    for failure in outcome.failures:
        print(f"FAILED {failure}")
    print(f"{args.workload} seed {args.seed}: {len(chains)} chains, "
          f"{outcome.attempted} operations, {len(outcome.failures)} failed")
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
