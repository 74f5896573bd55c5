#!/usr/bin/env python3
"""Allocation and memory gate on the repository benchmark (bench/).

Usage: python3 .github/alloc-gate.py BASELINE RESULTS_DIR

BASELINE is .github/alloc-baseline.json. RESULTS_DIR holds one file per
workload the baseline names, <workload>.json: the last line printed by

    taskset -c 0-<cpus-1> sh bench/run.sh --workload <workload> \\
        --seed <seed> --seconds <seconds> --trace 0

at the baseline's seed, seconds and CPU count. Each metric the baseline
records (lower is better) may rise by at most its bound in
BENCHMARK.json, looked up by metric name. The gate exits 1 if a run is
not correct (its checks, including web 0 against bench/golden.json,
failed), if any of its operations failed, or if any bound is breached.
"""
import json
import os
import sys

base_path, results = sys.argv[1], sys.argv[2]
base = json.load(open(base_path))
root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
spec = json.load(open(os.path.join(root, "BENCHMARK.json")))
bounds = {m["name"]: m for m in spec["end_to_end"]}

print(f"baseline {base_path}: seed {base['seed']}, {base['seconds']} s, {base['cpus']} CPUs")
problems = []
for workload, want in base["workloads"].items():
    with open(os.path.join(results, workload + ".json")) as f:
        got = json.loads(f.read().strip().splitlines()[-1])
    if not got["correct"]:
        problems.append(f"{workload}: run is not correct")
    if got["failed"] > 0:
        problems.append(f"{workload}: {got['failed']} of {got['attempted']} operations failed")
    for name, b in want.items():
        bound = bounds[name]["bound"]
        assert bounds[name]["better"] == "lower", name
        g, limit = got["metrics"][name]["value"], b * (1 + bound)
        print(f"{workload} {name}: baseline {b:.1f}, this run {g:.1f} "
              f"({100 * (g - b) / b:+.2f}%, bound {100 * bound:.0f}%)")
        if g > limit:
            problems.append(f"{workload}: {name} {g:.1f} is past {limit:.1f}")
if problems:
    sys.exit("alloc-gate failed:\n  " + "\n  ".join(problems))
print("alloc-gate passed")
