#!/usr/bin/env python3
"""Steadiness check: runs each workload once per seed and prints, for every
end-to-end metric, its median, first and third quartile, and the spread
(Q3 - Q1) / median against the metric's bound in BENCHMARK.json. The bounds
in BENCHMARK.json were set from this command's output.

With --sets 2 the same seeds are run a second time and each metric's
second median is set against its first: how much worse it got, as a share
of the first, next to the bound. Two sets of runs of the same code must
agree within every bound.

With --traced it also runs one traced run per workload and seed (first set
only), and prints each per-layer metric's median, how much of the untraced
operation time the per-layer sums cover, and the tracing overhead (the drop
in ops_per_s from the untraced to the traced run).

Usage (from the root of the repository):

    python3 perfbench/steady.py --seeds 10 [--sets 2]
        [--workloads closure_query,...] [--seconds 30] [--traced]
        [--write perfbench/REFERENCE.md]

--write stores the printed report as a file; the reference figures in
perfbench/README.md come from such a report and are remade by rerunning it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    details = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0] == "detail":
            details[parts[1]] = float(parts[2])
    return result, details


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=0,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--write", default="")
    args = parser.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_better = {m["name"]: m["better"] == "lower"
                    for m in bench["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    report = [f"seconds per run: {seconds}; seeds: {seeds.start}.."
              f"{seeds.stop - 1}", ""]

    def emit(line=""):
        print(line, flush=True)
        report.append(line)

    for workload in workloads:
        sets, layers, traced_ops = [], {}, []
        untraced_details = []
        emit(f"## {workload}")
        for set_index in range(args.sets):
            values, failed_share = {}, set()
            for seed in seeds:
                result, details = run(workload, seed, seconds, 0)
                failed_share.add(f"{result['failed']}/{result['attempted']}"
                                 if result["failed"] else "0")
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                if set_index > 0:
                    continue
                untraced_details.append(details)
                if args.traced:
                    tresult, tdetails = run(workload, seed, seconds, 1)
                    traced_ops.append(tdetails.get("ops_per_s", 0.0))
                    for name, m in tresult["metrics"].items():
                        layers.setdefault(name, []).append(m["value"])
            sets.append(values)
            emit()
            if args.sets > 1:
                emit(f"set {set_index + 1}:")
                emit()
            emit("| metric | median | Q1 | Q3 | spread | bound | "
                 "spread/bound |")
            emit("|---|---|---|---|---|---|---|")
            for name, vals in values.items():
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("inf")
                bound = bounds.get(name, float("nan"))
                emit(f"| {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                     f"{spread:.3f} | {bound} | {spread / bound:.2f} |")
            emit()
            emit(f"failed operations: {sorted(failed_share)}")
        if args.sets > 1:
            emit()
            emit(f"| metric | median set 1 | median set {args.sets} | "
                 "worse by | bound |")
            emit("|---|---|---|---|---|")
            for name in sets[0]:
                first = statistics.median(sets[0][name])
                last = statistics.median(sets[-1][name])
                worse = (last - first if lower_better.get(name, True)
                         else first - last) / first
                emit(f"| {name} | {first:.4g} | {last:.4g} | {worse:+.3f} | "
                     f"{bounds.get(name, float('nan'))} |")
        if args.traced:
            emit()
            emit("| layer metric | median |")
            emit("|---|---|")
            for name, vals in layers.items():
                emit(f"| {name} | {statistics.median(vals):.4g} |")
            med = {n: statistics.median(v) for n, v in layers.items()}
            query_us = 1000 * statistics.median(
                d["query_mean_ms"] for d in untraced_details)
            update_us = 1000 * statistics.median(
                d["update_mean_ms"] for d in untraced_details)
            covered = (med["datalog.parse_us"] +
                       med["km.compile_us"] *
                       (1 - med["testbed.cache_hit_ratio"]) +
                       med["lfp.execute_us"])
            if workload == "concurrent_mixed":
                covered += med["net.roundtrip_overhead_us"]
            update_covered = med["storage.commit_us"]
            if workload == "kb_churn":
                update_covered += med["km.update_us"]
            untraced_ops = statistics.median(sets[0]["ops_per_s"])
            traced = statistics.median(traced_ops)
            emit()
            emit(f"coverage: query layers {covered:.0f} us of "
                 f"{query_us:.0f} us untraced mean "
                 f"({100 * covered / query_us:.0f}%); update layers "
                 f"{update_covered:.0f} us of {update_us:.0f} us "
                 f"({100 * update_covered / update_us:.0f}%)")
            emit(f"tracing overhead: ops_per_s {untraced_ops:.1f} untraced "
                 f"vs {traced:.1f} traced "
                 f"({100 * (untraced_ops - traced) / untraced_ops:+.1f}%)")
        emit()

    if args.write:
        with open(args.write, "w") as f:
            f.write("\n".join(report) + "\n")


if __name__ == "__main__":
    main()
