#!/usr/bin/env python3
"""Build the perfbench binary from source, run one workload, check the result.

Usage (from the repository root):

    python3 perfbench/run.py --workload hylo-resnet32-p8 --seed 1 \
        --seconds 30 --trace 0

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end_to_end metrics BENCHMARK.json
lists, --trace 1 the per_layer ones. The build lives in .bench_build/perfbench
and a traced run also writes a Chrome trace under .bench_build/perfbench/traces.
Exits non-zero, without a result line, when the library sources are missing or
the build fails; exits non-zero after the result line when a check failed.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_quietly(cmd):
    """Run a build step; show its output only when it fails."""
    proc = subprocess.run([str(c) for c in cmd], cwd=ROOT, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail(f"build step failed: {' '.join(str(c) for c in cmd)}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"hylo library sources not found under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_quietly(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quietly(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                 "-j", jobs])
    return BUILD_DIR / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(f"{key} is not a non-negative integer")
    if result["attempted"] < 1:
        raise ValueError("attempted is below 1")
    if not result["correct"]:
        return result
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        raise ValueError(f"metrics differ from BENCHMARK.json: missing "
                         f"{sorted(set(want) - set(got))}, extra "
                         f"{sorted(set(got) - set(want))}")
    for name, unit in want.items():
        value = got[name]["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"{name} is not a finite number")
        if got[name]["unit"] != unit:
            raise ValueError(f"{name} has unit {got[name]['unit']}, "
                             f"BENCHMARK.json says {unit}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD_DIR / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"perfbench printed no result (exit code {proc.returncode})", 1)
    try:
        result = check_result(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError) as e:
        fail(f"malformed result line: {e}", 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
