#!/usr/bin/env python3
"""Build and run the tyxe-cpp benchmark.

    python3 txbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The library and the benchmark are built
from source into $CARGO_TARGET_DIR (default .bench_build) on the first run;
later runs rebuild incrementally. Every workload runs in its own process with
TYXE_NUM_THREADS pinned. The last line of stdout is the benchmark's JSON
result; build output goes to stderr.

    python3 txbench/run.py --workload all --seed 1 --seconds 30 --trace 0

runs the three workloads one after another and prints every
metric/workload pair with its unit and sample count, plus ops/ops_failed;
it exits nonzero if any run fails a correctness check.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["fig1_regression", "mlp_serve", "resnet_svi"]
# Every workload runs at one pool thread; the binary refuses any other count
# (see README.md for why not two).
THREADS = 1


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("txbench: no tyxe-cpp sources next to the benchmark (src/ missing)")
    os.makedirs(build_dir, exist_ok=True)
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", "4",
         "--target", "txbench", "txbench_selftest"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("txbench: build failed: " + " ".join(cmd))
    selftest = subprocess.run([os.path.join(build_dir, "txbench_selftest")])
    if selftest.returncode != 0:
        sys.exit("txbench: arithmetic self-tests failed")


def run_one(build_dir, workload, seed, seconds, trace, capture):
    env = dict(os.environ, TYXE_NUM_THREADS=str(THREADS))
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "txbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", os.path.join(spans_dir, f"{workload}-seed{seed}.jsonl")]
    if capture:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
        return done.returncode, done.stdout
    return subprocess.run(cmd, env=env).returncode, ""


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(build_dir)
    if args.workload != "all":
        code, _ = run_one(build_dir, args.workload, args.seed, args.seconds,
                          args.trace, capture=False)
        return code

    worst = 0
    lines = []
    for workload in WORKLOADS:
        code, out = run_one(build_dir, workload, args.seed, args.seconds,
                            args.trace, capture=True)
        worst = max(worst, code)
        for line in out.splitlines():
            if line.startswith(("metric ", "pair ", "ops ", "host ", "ledger ")):
                lines.append(f"{workload:16s} {line}")
    print("\n".join(lines))
    return worst


if __name__ == "__main__":
    sys.exit(main())
