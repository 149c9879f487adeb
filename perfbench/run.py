#!/usr/bin/env python3
"""The repository's benchmark: whole Figure 6 sweeps, timed end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ref-full --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --regen-ref          # remake + diff the reference
    python3 perfbench/run.py --regen-ref --write  # ... and overwrite it

It builds the simulator from src/ into .bench_build/ (see
perfbench/CMakeLists.txt), runs the sweep driver for the workload, checks
the simulated results, and prints one JSON object as its last line:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Every run also leaves a result record with its provenance (host,
compiler, build flags, command line) under .bench_build/results/.

Workloads (perfbench/LAYERS.md says what each one stresses):
  ref-full           23 ref kernels x 5 columns, full cycle-accurate
  long-sampled-cold  long-tier subset, sampled, empty store per pass
  long-sampled-warm  the same cells, store primed by an untimed pass

The seed orders the kernel rows of every pass; the simulated cells and
their results do not depend on it.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
RESULTS = os.path.join(BUILD, "results")
DRIVER = os.path.join(CMAKE_DIR, "perfbench_driver")
FIG6_REF = os.path.join(ROOT, "bench", "baselines", "fig6_ref.json")
LONG_REF = os.path.join(BENCH_DIR, "data", "long_full_ref.json")

# One kernel per suite, plus reed and rtr: the two long cells whose
# sampling accuracy is known to be fragile.
LONG_SUBSET = ["gap", "adpcm.dec", "rtr", "reed", "blowfish"]

# Host seconds of one untraced pass on a 4-vCPU Xeon (g++ 12.2,
# Release), rounded so that --seconds 28 gives 11, 6 and 8 passes.
# --seconds is turned into a fixed pass count with these, so every run
# of a workload makes the same number of passes and its per-cell
# fastest times are always taken over the same number of samples. On
# a slow host a run takes longer; DRIVER_TIMEOUT_S bounds it.
PASS_SECONDS = {
    "ref-full": 2.55,
    "long-sampled-cold": 4.7,
    "long-sampled-warm": 3.5,
}
DRIVER_TIMEOUT_S = 170

MB = float(1 << 20)


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


# ------------------------------------------------------------------ build

def build():
    if not os.path.exists(os.path.join(ROOT, "src", "engine", "engine.hh")):
        fail("no simulator sources under %s/src" % ROOT, 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", CMAKE_DIR, "-j", jobs]]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))


def cmake_cache():
    cache = {}
    with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and not line.startswith(("#", "//")):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = value
    return cache


def provenance(argv, load_before, probe_rates):
    cache = cmake_cache()
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([cxx, "--version"], stdout=subprocess.PIPE,
                             text=True).stdout.splitlines()
    model = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(filter(None, [
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), ""),
        "-Wall -Wextra -std=c++20"]))
    return {
        "host": {"nproc": os.cpu_count(), "cpu_model": model,
                 "machine": platform.machine(),
                 "loadavg_before": load_before,
                 "loadavg_after": list(os.getloadavg()),
                 # Functional-emulator rate on the CPU chosen for each
                 # stretch of timed work: how fast the host ran.
                 "probe_mwork_per_s_median": (
                     statistics.median(probe_rates) if probe_rates
                     else None)},
        "compiler": version[0] if version else cxx,
        "build_type": build_type,
        "build_flags": flags,
        "command": argv,
    }


# ----------------------------------------------------------------- driver

def run_driver(workload, seed, passes, trace, tag):
    os.makedirs(RESULTS, exist_ok=True)
    out = os.path.join(RESULTS, tag + ".driver.json")
    spans = os.path.join(RESULTS, tag + ".spans.json")
    work = os.path.join(BUILD, "work", tag)
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--passes", str(passes), "--trace", str(trace),
           "--work-dir", work,
           "--out", out]
    if workload != "ref-full":
        cmd += ["--kernels", ",".join(LONG_SUBSET)]
    if trace:
        cmd += ["--spans", spans]
    try:
        r = subprocess.run(cmd, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work, ignore_errors=True)
        fail("driver did not finish within %d s" % DRIVER_TIMEOUT_S)
    shutil.rmtree(work, ignore_errors=True)
    if r.returncode != 0:
        fail("driver exited with code %d" % r.returncode)
    with open(out) as f:
        data = json.load(f)
    span_list = None
    if trace:
        with open(spans) as f:
            span_list = json.load(f)
    return data, span_list


# ----------------------------------------------------------------- checks

def cell_names(data):
    cols = data["columns"]
    return ["%s/%s" % (row["kernel"], col)
            for row in data["rows"] for col in cols]


def check(data, workload):
    """Every reason the run's simulated results are wrong (empty = ok)."""
    errors = []
    names = cell_names(data)
    passes = data["passes"]
    first = passes[0]["cells"]
    reference = data["prime"]["cells"] if data["prime"] else first
    what = "the untimed cold pass" if data["prime"] else "pass 0"
    for p, ps in enumerate(passes):
        for i, c in enumerate(ps["cells"]):
            if c["outcome"] != "ok":
                errors.append("pass %d %s: cell %s" %
                              (p, names[i], c["outcome"]))
            elif c["digest"] != reference[i]["digest"]:
                errors.append("pass %d%s %s: stats differ from %s" %
                              (p, " (traced)" if ps["traced"] else "",
                               names[i], what))
    for p, ps in enumerate(passes + ([data["prime"]] if data["prime"]
                                     else [])):
        if ps["store"]["corrupt"]:
            errors.append("pass %d: store reported %d corrupt records" %
                          (p, ps["store"]["corrupt"]))
    if workload == "ref-full":
        with open(FIG6_REF) as f:
            fig6 = {(c["kernel"], c["config"]): (c["cycles"], c["work"])
                    for c in json.load(f)["cells"]}
        for i, c in enumerate(first):
            kernel, col = names[i].split("/", 1)
            want = fig6.get((kernel, col))
            if want != (c["cycles"], c["work"]):
                errors.append("%s: cycles/work %d/%d, baseline %s" %
                              (names[i], c["cycles"], c["work"], want))
    return errors


# ---------------------------------------------------------------- metrics

def quantile(values, q):
    """Inclusive-method quantile (q in tenths): 1 = p10, 9 = p90."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def best_times(passes):
    """Per cell: its fastest host time over the given passes."""
    return [min(ps["cells"][i]["t"] for ps in passes)
            for i in range(len(passes[0]["cells"]))]


def sweep_seconds(passes, median=statistics.median):
    setups = [s for ps in passes for s in ps["setup_s"]]
    return median(setups) + sum(best_times(passes))


def accuracy(data):
    """IPC error of the sampled cells against the full-run reference."""
    cells = data["passes"][0]["cells"]
    names = cell_names(data)
    errs, misses = [], 0
    sampled = [i for i, c in enumerate(cells) if c["sampled"]]
    if sampled:
        with open(LONG_REF) as f:
            ref = {"%s/%s" % (c["kernel"], c["config"]):
                   c["work"] / c["cycles"] for c in json.load(f)["cells"]}
    for i in sampled:
        c = cells[i]
        kernel, col = names[i].split("/", 1)
        want = ref["%s@long/%s" % (kernel, col)]
        ipc = c["work"] / c["cycles"]
        errs.append(abs(ipc - want) / want * 100.0)
        if abs(ipc - want) > c["ci95_rel"] * ipc:
            misses += 1
    return {
        "ipc_err_p90_pct": (quantile(errs, 9), "%"),
        "ipc_err_max_pct": (max(errs) if errs else 0.0, "%"),
        "ci_miss_cells": (misses, "cells"),
    }


def failed_share(data):
    cells = [c for ps in data["passes"] for c in ps["cells"]]
    failed = sum(c["outcome"] != "ok" for c in cells)
    return failed, len(cells)


def end_to_end(data):
    passes = data["passes"]
    best = best_times(passes)
    rates = [c["work"] / t / 1e6
             for c, t in zip(passes[0]["cells"], best)
             if c["outcome"] == "ok" and t > 0]
    return {
        "setup_s": (statistics.median(
            [s for ps in passes for s in ps["setup_s"]]), "s"),
        "sweep_s": (sweep_seconds(passes), "s"),
        "cell_mwork_per_s_p50": (statistics.median(rates), "Mwork/s"),
        "cell_mwork_per_s_p10": (quantile(rates, 1), "Mwork/s"),
        "peak_rss_mb": (data["peak_rss_kb"] / 1024.0, "MB"),
    }


class SpanTree:
    """Spans of a traced run, indexed for subtree walks."""

    def __init__(self, spans):
        self.spans = spans
        self.children = [[] for _ in spans]
        for s in spans:
            if s["parent"] >= 0:
                self.children[s["parent"]].append(s["id"])

    def walk(self, root):
        stack = [root]
        while stack:
            i = stack.pop()
            yield self.spans[i]
            stack.extend(self.children[i])

    def self_time(self, s):
        dur = s["end"] - s["start"]
        return dur - sum(self.spans[c]["end"] - self.spans[c]["start"]
                         for c in self.children[s["id"]])


def selected_roots(tree, data):
    """The span subtrees the traced sweep_s is made of: each cell's
    fastest traced pass, and the traced set-up at the (low) median."""
    passes = data["passes"]
    traced = [p for p, ps in enumerate(passes) if ps["traced"]]
    roots = {}
    setups = []
    for s in tree.spans:
        if s["parent"] != -1:
            continue
        if s["name"] == "cell":
            roots[(s["pass"], s["cell"])] = s["id"]
        elif s["name"] == "setup":
            setups.append((s["end"] - s["start"], s["id"]))
    chosen = [statistics.median_low(setups)[1]]
    for i in range(len(passes[0]["cells"])):
        t, p = min((passes[p]["cells"][i]["t"], p) for p in traced)
        chosen.append(roots[(p, i)])
    return chosen


def layer_of(name):
    if name in ("cell", "setup"):
        return "perfbench"
    if name.startswith("engine.store."):
        return "engine.store"
    return name.split(".", 1)[0]


def per_layer(data, spans):
    passes = data["passes"]
    tree = SpanTree(spans)
    roots = selected_roots(tree, data)
    total, selft, attrs, count = {}, {}, {}, {}
    for r in roots:
        for s in tree.walk(r):
            n = s["name"]
            total[n] = total.get(n, 0.0) + s["end"] - s["start"]
            selft[n] = selft.get(n, 0.0) + tree.self_time(s)
            count[n] = count.get(n, 0) + 1
            for k in ("work", "cycles", "bytes", "templates"):
                if k in s:
                    attrs[(n, k)] = attrs.get((n, k), 0.0) + s[k]

    def t(name):
        return total.get(name, 0.0)

    def a(name, key):
        return attrs.get((name, key), 0.0)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    # Functional emulator alone, per executed binary: fastest traced pass.
    probes = {}
    for s in spans:
        if s["name"] == "emu.run":
            probes.setdefault(s["pass"], []).append(s)
    per_pass = list(probes.values())
    oracle_s = sum(min(p[k]["end"] - p[k]["start"] for p in per_pass)
                   for k in range(len(per_pass[0])))
    oracle_work = sum(s["work"] for s in per_pass[0])

    traced = [ps for ps in passes if ps["traced"]]
    untraced = [ps for ps in passes if not ps["traced"]]
    traced_sweep = sweep_seconds(traced, statistics.median_low)
    first = traced[0]
    store = first["store"]
    cells = first["cells"]
    total_work = detailed = ff = measured = 0
    for c in cells:
        if c["sampled"]:
            total_work += c["total_work"]
            detailed += c["detailed_work"]
            ff += c["ff_work"]
            measured += c["measured_work"]
        else:
            total_work += c["work"]
            detailed += c["work"]
            measured += c["work"]
    uarch_s = t("uarch.core_run") + t("uarch.core_run_sampled")
    uarch_work = a("uarch.core_run", "work") + \
        a("uarch.core_run_sampled", "work")
    uarch_cycles = a("uarch.core_run", "cycles") + \
        a("uarch.core_run_sampled", "cycles")
    artifact = first["artifact_hits"] + first["artifact_computes"]
    failed, attempted = failed_share(data)
    m = {
        "assembler.assemble_s": (t("assembler.assemble"), "s"),
        "cfg.profile_s": (t("cfg.profile"), "s"),
        "cfg.profile_mwork_per_s": (rate(
            sum(r["profile_work"] for r in data["rows"]) / 1e6,
            t("cfg.profile")), "Mwork/s"),
        "mg.prepare_s": (t("mg.prepare"), "s"),
        "mg.templates": (int(a("mg.prepare", "templates")), "count"),
        "emu.oracle_mwork_per_s": (rate(oracle_work / 1e6, oracle_s),
                                   "Mwork/s"),
        "engine.summary_s": (t("engine.summary"), "s"),
        "uarch.cell_s": (uarch_s, "s"),
        "uarch.mwork_per_s": (rate(uarch_work / 1e6, uarch_s), "Mwork/s"),
        "uarch.mcycles_per_s": (rate(uarch_cycles / 1e6, uarch_s),
                                "Mcycles/s"),
        "uarch.cycles": (int(uarch_cycles), "count"),
        "sim.sampled_cell_s": (t("sim.sampled_cell"), "s"),
        "sim.detailed_work_share": (detailed / total_work, "fraction"),
        "sim.ff_work_share": (ff / total_work, "fraction"),
        "sim.measured_per_detailed": (measured / detailed, "fraction"),
        "engine.store.load_s": (t("engine.store.load"), "s"),
        "engine.store.store_s": (t("engine.store.store"), "s"),
        "engine.store.read_mb_per_s": (rate(
            a("engine.store.load", "bytes") / MB, t("engine.store.load")),
            "MB/s"),
        "engine.store.write_mb_per_s": (rate(
            a("engine.store.store", "bytes") / MB, t("engine.store.store")),
            "MB/s"),
        "engine.store.hits": (store["hits"], "count"),
        "engine.store.misses": (store["misses"], "count"),
        "engine.store.writebacks": (store["writebacks"], "count"),
        "engine.store.hit_ratio": (rate(store["hits"], store["hits"] +
                                        store["misses"]), "fraction"),
        "engine.store.disk_mb": (store["disk_bytes"] / MB, "MB"),
        "engine.artifact_hit_ratio": (rate(first["artifact_hits"],
                                           artifact), "fraction"),
        "trace.overhead_ratio": (traced_sweep / sweep_seconds(untraced),
                                 "ratio"),
        "failed_cell_share": (failed / attempted, "fraction"),
    }
    m.update(accuracy(data))
    table = self_time_table(total, selft, count, traced_sweep)
    return m, table


def self_time_table(total, selft, count, traced_sweep):
    lines = ["self time of the traced sweep (each cell's fastest traced "
             "pass, median set-up):",
             "  %-28s %7s %10s %10s %7s" % ("span", "calls", "total_s",
                                            "self_s", "share")]
    for n in sorted(selft, key=lambda k: -selft[k]):
        lines.append("  %-28s %7d %10.4f %10.4f %6.1f%%" %
                     (n, count[n], total[n], selft[n],
                      100.0 * selft[n] / traced_sweep))
    layers = {}
    for n, v in selft.items():
        layers[layer_of(n)] = layers.get(layer_of(n), 0.0) + v
    lines.append("  by layer:")
    for layer in sorted(layers, key=lambda k: -layers[k]):
        lines.append("  %-28s %10.4f s %6.1f%%" %
                     (layer, layers[layer],
                      100.0 * layers[layer] / traced_sweep))
    lines.append("  %-28s %10.4f s (traced sweep_s %.4f s)" %
                 ("sum of self times", sum(selft.values()), traced_sweep))
    return "\n".join(lines)


# ------------------------------------------------------------------- main

def regen_reference(write):
    build()
    os.makedirs(RESULTS, exist_ok=True)
    fresh = os.path.join(RESULTS, "long_full_ref.json")
    r = subprocess.run([DRIVER, "--full-ref", fresh])
    if r.returncode != 0:
        fail("reference run failed")
    if write:
        os.makedirs(os.path.dirname(LONG_REF), exist_ok=True)
        shutil.copyfile(fresh, LONG_REF)
        print("wrote " + LONG_REF)
        return 0
    with open(fresh) as f:
        new = json.load(f)["cells"]
    with open(LONG_REF) as f:
        old = json.load(f)["cells"]
    diffs = [(a, b) for a, b in zip(old, new) if a != b]
    if len(old) != len(new):
        print("reference has %d cells, regenerated %d" %
              (len(old), len(new)))
        return 1
    for a, b in diffs:
        print("differs: %s -> %s" % (a, b))
    print("%d/%d reference cells identical" % (len(old) - len(diffs),
                                               len(old)))
    return 1 if diffs else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(PASS_SECONDS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regen-ref", action="store_true",
                    help="rebuild the long-tier full-run reference and "
                         "diff it against the committed one")
    ap.add_argument("--write", action="store_true",
                    help="with --regen-ref: overwrite the committed file")
    args = ap.parse_args()
    if args.regen_ref:
        return regen_reference(args.write)
    if not args.workload:
        ap.error("--workload is required")

    load_before = list(os.getloadavg())
    build()
    passes = max(2, round(args.seconds / PASS_SECONDS[args.workload]))
    if args.trace:
        # Half untraced, half traced, alternating.
        passes = 2 * max(2, passes // 2)
    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    started = time.time()
    data, spans = run_driver(args.workload, args.seed, passes, args.trace,
                             tag)
    errors = check(data, args.workload)
    failed, attempted = failed_share(data)
    table = None
    if args.trace:
        metrics, table = per_layer(data, spans)
    else:
        metrics = end_to_end(data)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(data["passes"]), "wall_s": time.time() - started,
        "kernels": [r["kernel"] for r in data["rows"]],
        "provenance": provenance(sys.argv, load_before,
                                 data["probe_mwork_per_s"]),
        "errors": errors,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(RESULTS, tag + ".result.json"), "w") as f:
        json.dump(record, f, indent=1)

    for e in errors:
        print("CHECK FAILED: " + e)
    if table:
        print(table)
    print("provenance: " + json.dumps(record["provenance"]))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
