#!/usr/bin/env python3
"""Builds and runs the kgoa layered benchmark.

Run from the root of a kgoa checkout:

    python3 perfbench/run.py --workload explore-distinct --seed 1 \
        --seconds 25 --trace 0

The first call configures and builds perfbench/ (the kgoa library from
src/ plus the benchmark program) into $CARGO_TARGET_DIR, default
.bench_build; later calls only re-check the build. The program's output
is passed through: its last line is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 1 the span trace is
written to <build dir>/traces/<workload>-<seed>.jsonl. See
perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("explore-distinct", "explore-nondistinct-block", "explore-writes")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "src" / "kgoa.h").is_file():
        fail(f"no kgoa sources under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", jobs,
         "--target", "kgoa_perfbench"],
    ):
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return build_dir / "kgoa_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        trace_file = traces / f"{args.workload}-{args.seed}.jsonl"
        cmd.append(f"--trace_out={trace_file}")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        fail(f"benchmark exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("benchmark printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")


if __name__ == "__main__":
    main()
