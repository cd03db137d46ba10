#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,...] [--seconds S]

Runs `run.py` once per seed and workload with tracing off and prints, per
metric, the median and the interquartile range as a share of the median
(Python's `statistics.quantiles(values, n=4)`), next to the metric's bound
from BENCHMARK.json and a third of it, the target for a steady benchmark.
Exits non-zero if any run fails or reports `correct: false`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in args.seeds.split(","):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", seed, "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED\n{done.stdout}{done.stderr}")
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}:")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "ok" if spread <= bounds[name] / 3 else "WIDE"
            print(f"  {name:20s} median {med:12.5g}  spread {spread:7.4f}  "
                  f"bound {bounds[name]:.2f} (1/3: {bounds[name] / 3:.4f}) {flag}  "
                  + " ".join(f"{v:.4g}" for v in vals))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
