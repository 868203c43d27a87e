"""Self-test of the benchmark itself (not of the library).

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:

1. every ``*.calls`` count of the traced run repeats exactly in two
   processes with different ``PYTHONHASHSEED``;
2. a second seed gives different inputs and still 0 failed ops;
3. a tiny op list runs end to end and prints every end-to-end metric, and the
   traced run prints every per-layer metric;

and that the benchmark exits non-zero without a result line when the
library sources are missing.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "2"


def bench(workload, seed, seconds=SECONDS, trace=0, hashseed="0", cwd=ROOT):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(condition, message):
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        sys.exit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    sys.path.insert(0, str(HERE))
    from gen import generate

    for w in (w["name"] for w in spec["workloads"]):
        a = result(bench(w, 1, trace=1, hashseed="1"))
        b = result(bench(w, 1, trace=1, hashseed="2"))
        check(set(a["metrics"]) == per_layer, f"{w}: traced run prints every per-layer metric")
        calls = sorted(k for k in a["metrics"] if k.endswith(".calls"))
        check(all(a["metrics"][k]["value"] == b["metrics"][k]["value"] for k in calls),
              f"{w}: {len(calls)} call counts repeat under another PYTHONHASHSEED")
        check(a["correct"] and b["correct"], f"{w}: traced runs are correct")

        check(generate(w, 1, 2)["ops"] != generate(w, 2, 2)["ops"], f"{w}: seed 2 gives other inputs")
        r = result(bench(w, 2))
        check(r["correct"] and r["failed"] == 0, f"{w}: seed 2 has 0 failed ops of {r['attempted']}")

        r = result(bench(w, 3, seconds="0.01"))
        check(set(r["metrics"]) == end_to_end and r["failed"] == 0,
              f"{w}: tiny op list ({r['attempted']} ops) prints every end-to-end metric")

    bare = ROOT / ".bench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("decide", 1, cwd=bare)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without the library sources the benchmark fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
