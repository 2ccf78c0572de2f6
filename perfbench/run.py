#!/usr/bin/env python3
"""Build and run the CuCC host wall-clock benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <serve|bulk|chain|elastic> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package in this directory in release mode, into
$CARGO_TARGET_DIR (default: .bench_build), then runs one workload in a
process of its own, so its peak resident memory is the workload's. The
last line of standard output is the result JSON. Spans of a traced run
and checkpoint files go to perfbench/out/. Exits non-zero, without a
result line, when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Every workload ends well inside this; a run that does not is stopped.
RUN_TIMEOUT_S = 175


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["serve", "bulk", "chain", "elastic"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    exe = os.path.join(target, "release", "cucc-perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(HERE, "out")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
