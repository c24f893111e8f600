#!/usr/bin/env python3
"""rpcc benchmark entry point.

    python3 perfbench/run.py --workload suite|fuzz|served_warm --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (the rpcc library from
src/ plus rpcc_perfbench from perfbench/src) as a Release build under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload for S seconds, checks every op's output, and prints run metadata
to stderr and, as the last line of stdout, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (and the per-layer table goes to stderr). See
perfbench/NOTES.md for what each workload and metric means. `fuzz` runs
by hand only: BENCHMARK.json leaves it out while it finds miscompiles.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("suite", "fuzz", "served_warm")
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds rpcc_perfbench; returns its path."""
    for need in ("src/CMakeLists.txt", "bench/programs"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("no rpcc sources here (%s is missing); run from the root of "
                "an rpcc checkout" % need)
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            die("build step failed: " + " ".join(cmd))
    exe = os.path.join(out, "rpcc_perfbench")
    if not os.path.exists(exe):
        die("build produced no rpcc_perfbench")
    return exe


def commit_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha1()
    for top in ("src", "bench/programs", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--commit", commit_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        die("rpcc_perfbench exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("rpcc_perfbench printed no result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("malformed result: " + lines[-1])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
