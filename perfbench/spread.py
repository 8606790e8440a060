#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Run from the repository root:

    python3 perfbench/spread.py [--runs 10] [--workloads a,b] [--seed0 1]
                                [--raw values.json]

For each workload it runs the command of BENCHMARK.json once per seed
(seed0, seed0+1, ...) with its run_seconds, then reports per metric
the median and the spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the
median. A spread above a third of the metric's bound is flagged;
setup_s is reported but not held to that rule.
"""

import argparse
import json
import statistics
import subprocess
import sys


def relative_spread(values):
    """(Q3 - Q1) / median of values, quartiles as statistics.quantiles
    gives them with n=4. A zero median gives 0 when all values are
    equal and infinity otherwise."""
    if len(values) < 2:
        raise ValueError("need at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                         text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--raw", default="",
                    help="also write every run's values here as JSON")
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    steady = True
    raw = {}
    for w in names:
        values = {}
        for i in range(args.runs):
            res = run_once(bench, w, args.seed0 + i)
            if not res["correct"] or res["failed"]:
                steady = False
                print("%s seed %d: correct=%s failed=%d" % (
                    w, args.seed0 + i, res["correct"], res["failed"]))
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            sys.stdout.flush()
        raw[w] = values
        for k, vals in values.items():
            s = relative_spread(vals)
            limit = bounds.get(k, 0) / 3
            flag = ""
            if k != "setup_s" and s > limit:
                flag = "  > bound/3"
                steady = False
            print("%-13s %-17s median %-12.6g spread %.4f (bound/3 %.4f)%s"
                  % (w, k, statistics.median(vals), s, limit, flag))
    if args.raw:
        with open(args.raw, "w") as f:
            json.dump(raw, f, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
