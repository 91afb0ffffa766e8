#!/usr/bin/env python3
"""Store benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench (and the repository's
libraries it links) into .bench_build/perfbench on first use, runs one
workload, checks the traced run's span file with trace_merge --validate,
and prints as its last line one JSON object: correct, attempted, failed,
and the metrics BENCHMARK.json names (end_to_end with --trace 0,
per_layer with --trace 1). Everything else the run measured, with its
knobs, goes to .bench_build/perfbench/out/result_<workload>_trace<t>.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(BUILD, "out")
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j3"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]

    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", OUT, "--git-sha", git_sha(),
           "--reference", os.path.join(HERE, "exact_counts.txt")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        die("perfbench exited with code %d" % r.returncode)
    for line in lines[:-1]:
        print(line)
    res = json.loads(lines[-1])

    correct, why = res["correct"], res["why"]
    if args.trace == "1":
        spans = res["notes"]["spans_file"]
        v = subprocess.run(
            [os.path.join(BUILD, "fastreg", "trace_merge"), "--validate",
             spans], capture_output=True, text=True)
        if v.returncode != 0:
            correct = False
            why = why or "span file rejected: " + v.stderr.strip()
        print("# spans validated: %s" % ("yes" if v.returncode == 0 else "NO"))

    # A layer the workload does not have (sockets in the simulator, a log
    # without persistence) reads 0; an end-to-end metric is never absent.
    have = res["per_layer" if args.trace == "1" else "end_to_end"]
    metrics, absent = {}, []
    for m in wanted:
        if m["name"] in have:
            metrics[m["name"]] = have[m["name"]]
        elif args.trace == "1":
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
            absent.append(m["name"])
        else:
            die("workload %s reported no %s" % (args.workload, m["name"]))

    record = dict(res, correct=correct, why=why, not_applicable=absent)
    path = os.path.join(OUT, "result_%s_trace%s.json" % (args.workload,
                                                         args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
