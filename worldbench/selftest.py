#!/usr/bin/env python3
"""Self-test of the world-cost benchmark; finishes in well under a minute.

    python3 worldbench/selftest.py

Runs every workload at a tiny length, untraced and traced, through run.py,
and checks that each run passes its own correctness checks, that every
untraced and traced world of a workload shows one scheduler fingerprint, and
that each run prints exactly the metrics BENCHMARK.json names, each with the
unit named there, with no end-to-end metric and no time reading 0.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A time that reads 0 on every run cannot be told from a constant.
TIME_UNITS = {"s", "ms", "us", "s/s"}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            tag = f"{workload} trace={trace}"
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: correctness check failed")
            zero = sorted(k for k, v in result["metrics"].items()
                          if v["value"] == 0 and (trace == 0 or v["unit"] in TIME_UNITS))
            if zero:
                problems.append(f"{tag}: zero times or end-to-end metrics {zero}")
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                units = sorted(k for k in got if k in wanted[trace] and got[k] != wanted[trace][k])
                problems.append(f"{tag}: missing={missing} extra={extra} unit mismatch={units}")
            fps = {kind: {l.split()[1] for l in lines if l.startswith(kind + " ")}
                   for kind in ("world", "twin")}
            if len(fps["world"]) != 1 or (trace and fps["twin"] != fps["world"]):
                problems.append(f"{tag}: fingerprints untraced={fps['world']} traced={fps['twin']}")
            print(f"{tag}: worlds={result['attempted']} untraced {sorted(fps['world'])}"
                  f" traced {sorted(fps['twin'])}")
    for p in problems:
        print("FAIL", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
