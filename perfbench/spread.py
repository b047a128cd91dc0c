#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, as the acceptance check computes it.

Runs the command from BENCHMARK.json once per seed for each workload and
prints, per end-to-end metric, the median and the interquartile range as a
share of the median (statistics.quantiles(values, n=4)) next to the
metric's bound. Run it from the repository root:

    python3 perfbench/spread.py --seeds 1 2 3 4 5 [--workloads thumbs-mixed]
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--trace", type=int, default=0)
    options = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = options.workloads or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        values = {}
        for seed in options.seeds:
            result = run(bench["command"], workload, seed, bench["run_seconds"], options.trace)
            assert result["correct"], result
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload} ({len(options.seeds)} seeds)")
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / abs(median) if median else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {name:<34} median {median:12.4f}  spread {spread:6.3f}"
                  f"  bound {bound}{flag}")
            print(f"    {[round(v, 4) for v in series]}")


if __name__ == "__main__":
    main()
