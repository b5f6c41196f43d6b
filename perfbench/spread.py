#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload traffic [--seeds 1-10]
        [--seconds S] [--trace 0]

For every metric: the median of the per-seed values and the distance
between their first and third quartiles (statistics.quantiles, n=4) as
a share of that median — the figure each end-to-end bound in
BENCHMARK.json must stay above. Run from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", help="default: run_seconds")
    parser.add_argument("--trace", default="0")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = opts.seconds or str(bench["run_seconds"])
    values = {}
    for seed in opts.seeds:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", opts.workload,
             "--seed", str(seed), "--seconds", seconds,
             "--trace", opts.trace],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=True).stdout.splitlines()[-1]
        result = json.loads(out)
        if not result["correct"]:
            print("seed %d: %d of %d operations failed"
                  % (seed, result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items()
            if k in bounds)), flush=True)
    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        if len(vals) >= 2:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
        else:
            spread = 0.0
        bound = bounds.get(name)
        note = "" if bound is None else "  bound %.3f%s" % (
            bound, "  OVER A THIRD" if spread > bound / 3 else "")
        print("%-34s median %-14.6g spread %.4f%s" % (name, med, spread, note))


if __name__ == "__main__":
    main()
