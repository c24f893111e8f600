#!/usr/bin/env python3
"""Steadiness report for the rpcc benchmark.

    python3 perfbench/steadiness.py [--workloads suite,fuzz] [--runs 10]
        [--seed0 900000001] [--sets 1] [--seconds S]

Runs every chosen workload --runs times (one seed per run, consecutive from
--seed0), untraced, and prints per end-to-end metric the median, quartiles
(statistics.quantiles(values, n=4)), min/max and the spread, the
interquartile distance as a share of the median, against the metric's bound
in BENCHMARK.json. A spread must stay below the bound (setup_s excepted);
the benchmark aims for a third of it. With --sets 2 it repeats the whole
thing and checks that no second-set median is worse than the first by more
than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-3000:])
        raise SystemExit("run failed: " + " ".join(cmd))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    probe = [l for l in proc.stderr.splitlines() if "probe_ms" in l]
    return result, (probe[-1].split("probe_ms ")[-1] if probe else "")


def worse(metric, first, second):
    """Share by which `second` is worse than `first`."""
    if first == 0:
        return 0.0
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=900000001)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--seconds", type=int, default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    seconds = args.seconds or bench["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])

    ok = True
    for w in workloads:
        medians = []
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for i in range(args.runs):
                seed = args.seed0 + s * args.runs + i
                result, probe = run_once(w, seed, seconds)
                if not result["correct"]:
                    ok = False
                    print("%s seed %d: correct=false (%d of %d ops failed)" %
                          (w, seed, result["failed"], result["attempted"]))
                for m in metrics:
                    values[m["name"]].append(
                        result["metrics"][m["name"]]["value"])
                print("%s set %d seed %d: %s  probe %s" % (
                    w, s + 1, seed,
                    " ".join("%s=%.6g" % (k, v[-1]) for k, v in
                             values.items() if k in ("ops_per_s",
                                                     "op_p50_ms",
                                                     "setup_s")),
                    probe), flush=True)
            print("\n%s, set %d: %d runs of %d s" % (w, s + 1, args.runs,
                                                     seconds))
            print("  %-12s %12s %12s %12s %12s %12s %8s %6s" % (
                "metric", "median", "q1", "q3", "min", "max", "spread",
                "bound"))
            set_medians = {}
            for m in metrics:
                v = values[m["name"]]
                med = statistics.median(v)
                q1, _, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med if med else 0.0
                set_medians[m["name"]] = med
                flag = ""
                if m["name"] != "setup_s" and spread > m["bound"]:
                    flag, ok = "  OVER BOUND", False
                elif m["name"] != "setup_s" and spread > m["bound"] / 3:
                    flag = "  over a third of bound"
                print("  %-12s %12.6g %12.6g %12.6g %12.6g %12.6g %7.2f%% "
                      "%5.0f%%%s" % (m["name"], med, q1, q3, min(v), max(v),
                                     100 * spread, 100 * m["bound"], flag))
            medians.append(set_medians)
        if args.sets == 2:
            print("\n%s: second set against first" % w)
            for m in metrics:
                d = worse(m, medians[0][m["name"]], medians[1][m["name"]])
                flag = ""
                if d > m["bound"]:
                    flag, ok = "  WORSE THAN BOUND", False
                print("  %-12s %+7.2f%% (bound %.0f%%)%s" % (
                    m["name"], -100 * d, 100 * m["bound"], flag))
        print()
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
