"""Steadiness check: run the benchmark on several seeds and report spreads.

    python3 perfbench/steady.py --workload decide --first-seed 1 --out perfbench/results/steady-decide-seeds1.json

Runs ``perfbench/run.py`` on 10 seeds (``--first-seed``, +1, ...) with
``run_seconds`` from BENCHMARK.json, one run at a time.  For each
end-to-end metric it reports the median of the runs and the spread: the
distance between the first and third quartile (``statistics.quantiles(values,
n=4)``) as a share of the median, next to the metric's bound.  Each run's
per-class op counts, median op times and speed line are kept, so a mix of
cost classes and the machine's speed state show up.  The summary goes to
stdout and, with ``--out``, into a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    classes = [line for line in lines[:-1] if line.startswith("class ")]
    speed = next((line for line in lines[:-1] if line.startswith("speed: ")), None)
    return {"seed": seed, "wall_s": wall, "result": result, "speed": speed, "classes": classes}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for i in range(RUNS):
        run = run_once(args.workload, args.first_seed + i, seconds)
        runs.append(run)
        r = run["result"]
        shown = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
        print(f"seed {run['seed']}: correct={r['correct']} failed={r['failed']}/{r['attempted']} "
              f"wall={run['wall_s']:.1f}s {shown}", flush=True)
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        summary[name] = {"median": statistics.median(values), "spread": spread(values),
                         "bound": bounds.get(name), "values": values}
        print(f"{name:16} median={summary[name]['median']:.5g} spread={summary[name]['spread']:.4f} "
              f"bound={bounds.get(name)}")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                                   "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
