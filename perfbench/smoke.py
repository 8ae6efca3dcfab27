#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload, end to end, tiny size.

    python3 perfbench/smoke.py

Runs ``run.py --scale tiny`` for each workload, untraced (CLI subprocesses)
and traced (in-process), and fails unless every run exits 0 with no failed
operation and prints exactly the metrics BENCHMARK.json lists, with their
units. Each CLI call pays about a second of imports, so the whole test takes
a minute or two. It is a script, not a pytest module, so the repository's
test suite does not collect it.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{workload} trace {trace}"
            print(f"{label}: exit {proc.returncode} in {time.perf_counter() - start:.1f} s")
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {proc.stdout[-2000:]}")
            if got != expected:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(expected.items()))}")
    for problem in problems:
        print("FAIL", problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
