#!/usr/bin/env python3
"""Builds hetbench from source and runs one workload (or all of them).

    python3 bench/hetbench/run.py --workload NAME|all --seed N \
        [--seconds T] [--trace 0|1]

Run from anywhere inside a checkout. The engine and the benchmark are built
with CMake into $CARGO_TARGET_DIR/hetbench (default .bench_build/hetbench at
the checkout root); build output goes to stderr. Each workload runs in its own
process. Stdout gets the benchmark's full report line per workload (config,
correctness counts, every metric with its unit) and, last, one JSON object
with exactly the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. A traced run also writes a Chrome trace-event file per workload
into the build directory. The exit code is nonzero when the build fails, a
check fails or a metric is missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["ssb_pcie", "ssb_gpu_resident", "serve_open", "serve_reuse_churn"]


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "hetbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "hetbench")


def run_workload(binary, build_dir, workload, seed, seconds, trace):
    """Returns the benchmark's report object, or None when it printed none."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        cmd += ["--trace",
                os.path.join(build_dir, f"trace_{workload}_seed{seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print(f"{workload}: no report (exit {proc.returncode})", file=sys.stderr)
        return None
    report = json.loads(lines[-1])
    if proc.returncode != 0:
        report["correct"] = False
    print(lines[-1])
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "hetbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        report = run_workload(binary, build_dir, workload, args.seed,
                              args.seconds, args.trace)
        if report is None:
            return 1
        result["correct"] = result["correct"] and report["correct"]
        result["attempted"] += report["attempted"]
        result["failed"] += report["failed"]
        for m in wanted:
            if m["name"] not in report["metrics"]:
                print(f"{workload}: metric {m['name']} missing", file=sys.stderr)
                return 1
            key = m["name"] if len(workloads) == 1 else f"{workload}/{m['name']}"
            result["metrics"][key] = report["metrics"][m["name"]]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
