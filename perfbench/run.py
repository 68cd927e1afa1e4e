#!/usr/bin/env python3
"""Build and run the multi-tenant benchmark from the root of a checkout.

    python3 perfbench/run.py --workload tenant_churn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The monitor is built from source with dune (build output stays in
_build/ inside the checkout). The benchmark executable prints one line
per metric, with its unit, sample count, seed, nproc and source
revision, and checks its outputs; it exits 1 if a check fails. This
script then prints, as its last line, one JSON object holding the
metrics BENCHMARK.json names: its end_to_end metrics with --trace 0, its
per_layer metrics with --trace 1. `--workload all` runs the three
workloads in turn with --trace 0.

Claims measured on seed 1 must also hold on the holdout seed 7.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["tenant_churn", "skewed_share", "fleet_delegate"]
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        die("no dune-project at %s: run from a checkout of the repository" % ROOT)
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(r.stdout[-4000:])
        die("build failed")


def revision():
    # The checkout may not be a git repository; never look above it.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        r = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=30)
        return r.stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def run_one(workload, seed, seconds, trace, rev):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--rev", rev]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT), 1)
    result = None
    for line in r.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    sys.stdout.flush()
    if r.returncode != 0 or result is None or not result["correct"]:
        die("%s failed its checks (exit %d)" % (workload, r.returncode), 1)
    return result


def wanted(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def contract(results, names, prefix):
    metrics = {}
    for workload, res in results:
        for name, unit in names:
            m = res["metrics"].get(name)
            if m is None:
                die("%s did not report %s" % (workload, name), 1)
            if m["unit"] != unit:
                die("%s reported %s in %s, not %s" % (workload, name, m["unit"], unit), 1)
            key = workload + "." + name if prefix else name
            metrics[key] = {"value": m["value"], "unit": unit}
    return {
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    trace = 0 if args.workload == "all" else args.trace
    names = wanted(trace)
    rev = revision()
    results = [(w, run_one(w, args.seed, args.seconds, trace, rev)) for w in workloads]
    print(json.dumps(contract(results, names, args.workload == "all")))


if __name__ == "__main__":
    main()
