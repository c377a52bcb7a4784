#!/usr/bin/env python3
"""World-cost benchmark: builds world_bench from source and runs one workload.

Run from the repository root:

    python3 worldbench/run.py --workload pm-n200-wan --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build), relative to the
repository root unless absolute; the first run configures and compiles, later
runs only check that the build is current. Build output goes to stderr. The
benchmark's own stdout follows, and its last line is the result JSON
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer split with --trace 1. Exit 0 when every world passed
its checks; any other exit means a check, the build or the run failed (with
no source tree next to worldbench/, nothing is built and no result printed).
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pm-n200-wan", "pm-n50-ed25519", "cm-n100-wj-wal")


def build_dir():
    p = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return p if p.is_absolute() else ROOT / p


def build():
    """Configures once, then brings world_bench up to date; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: no repository sources next to worldbench/ (src/CMakeLists.txt)")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target", "world_bench"],
                   stdout=sys.stderr, check=True)
    return out / "world_bench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shortened worlds, for the self-test")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        # A world that overruns its deadline is a failure of its own; the
        # timeout only guards against a hang.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=min(170, 3 * args.seconds + 60))
    except subprocess.TimeoutExpired:
        sys.exit("run.py: world_bench timed out")
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stderr.write(proc.stdout)
        sys.exit(f"run.py: world_bench exited {proc.returncode} without a result")
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
