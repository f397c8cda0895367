#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <apps-native|tune-sim|serve-native> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Rust package of its own (perfbench/Cargo.toml) that
builds against the repository's crates by path. It is built into
$CARGO_TARGET_DIR, or .bench_build at the repository root when that is not
set. The last line of standard output is the run's JSON result; with
--trace 1 the run's spans are also written as JSON lines under
<target dir>/perfbench-spans/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["apps-native", "tune-sim", "serve-native"]
# A run measures for --seconds, plus its set-up repetitions, checks and the
# operation in flight at the deadline; this margin bounds a run that hangs.
RUN_MARGIN_S = 140


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        spans = os.path.join(
            target, "perfbench-spans", f"{args.workload}-seed{args.seed}.jsonl"
        )
        cmd += ["--spans", spans]
    timeout = args.seconds + RUN_MARGIN_S
    try:
        run = subprocess.run(cmd, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
