#!/usr/bin/env python3
"""How steady is the benchmark? Run one build as two sets of runs.

    python3 perfbench/steadiness.py --workloads ref-full,long-sampled-warm \
        --runs 10 --sets 2 [--trace 0] [--seconds 24]

Each set runs every workload --runs times with distinct seeds (set k
uses seeds k*1000+1 ...), through perfbench/run.py exactly as a driver
would. For every metric the tool prints each set's median and
interquartile range (as a share of the median, from
statistics.quantiles(values, n=4)) and the difference between the
set medians. With --trace 0 it also compares the spreads with the
bounds in BENCHMARK.json: a spread above a third of its bound, or a
set-to-set difference above the bound, is flagged -- for every
end-to-end metric, setup_s included. Raw values go to
.bench_build/steadiness.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else ""
    if r.returncode != 0 or not last.startswith("{"):
        sys.exit("run failed: " + " ".join(cmd))
    result = json.loads(last)
    if not result["correct"] or result["failed"]:
        sys.exit("incorrect result: " + " ".join(cmd))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    raw = {}
    for s in range(args.sets):
        for w in args.workloads.split(","):
            for i in range(args.runs):
                seed = s * 1000 + i + 1
                vals = run_once(w, seed, seconds, args.trace)
                for k, v in vals.items():
                    raw.setdefault(w, {}).setdefault(k, [[] for _ in
                                                         range(args.sets)])
                    raw[w][k][s].append(v)
                print("set %d %s seed %d: %s" % (
                    s, w, seed, " ".join("%s=%.4g" % kv
                                         for kv in sorted(vals.items()))),
                      flush=True)

    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "steadiness.json"),
              "w") as f:
        json.dump(raw, f, indent=1)

    bad = 0
    for w, metrics in raw.items():
        print("\n%s (%d runs per set)" % (w, args.runs))
        print("  %-28s %12s %8s %12s %8s %8s %6s" % (
            "metric", "median1", "iqr1", "median2", "iqr2", "diff",
            "bound"))
        for k, sets in metrics.items():
            cols = [spread(v) for v in sets]
            diff = 0.0
            if len(cols) > 1 and cols[0][0]:
                diff = (cols[1][0] - cols[0][0]) / abs(cols[0][0])
            bound = bounds.get(k)
            flag = ""
            if bound is not None and args.trace == 0:
                too_wide = any(iqr > bound / 3 for _, iqr in cols)
                if too_wide or abs(diff) > bound:
                    flag = "  <-- not steady"
                    bad += 1
            line = "  %-28s %12.6g %7.2f%%" % (k, cols[0][0],
                                               100 * cols[0][1])
            if len(cols) > 1:
                line += " %12.6g %7.2f%% %+7.2f%%" % (
                    cols[1][0], 100 * cols[1][1], 100 * diff)
            else:
                line += " %12s %8s %8s" % ("", "", "")
            line += " %6s" % ("" if bound is None else "%.2f" % bound)
            print(line + flag)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
