#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 gfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 gfbench/run.py --self-test [--workload <name>]

Run from the repository root. The first run configures and builds the
library plus the gfbench program (Release) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs rebuild incrementally. The
program's stdout is passed through: its last line is the result JSON.

--self-test runs each workload (or the one named) for one second with a
planted wrong answer and fails unless every run reports the failure.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["analyze-cold", "serve-warm", "step-charlm", "step-wordlm"]
KNOBS = ["GF_SIMD", "GF_FUSE", "GF_MEMORY_PLAN", "GF_REFERENCE_KERNELS"]

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("gfbench: library sources (src/) not found next to gfbench/")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "gfbench"
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "gfbench",
                    "-j", jobs], check=True, **quiet)
    return build_dir / "gfbench"


def bench_env():
    env = dict(os.environ)
    for knob in KNOBS:
        env.pop(knob, None)
    return env


def self_test(binary, workloads):
    failures = 0
    for workload in workloads:
        proc = subprocess.run(
            [str(binary), "--workload", workload, "--seed", "1", "--seconds", "1",
             "--trace", "0", "--plant-fault"],
            cwd=ROOT, env=bench_env(), capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        caught = (proc.returncode == 1 and result.get("correct") is False
                  and result.get("failed", 0) >= 1)
        print(f"self-test {workload}: exit {proc.returncode}, "
              f"failed {result.get('failed')} of {result.get('attempted')} -> "
              f"{'caught' if caught else 'MISSED'}")
        failures += not caught
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"gfbench: build failed ({e})")

    if args.self_test:
        return self_test(binary, [args.workload] if args.workload else WORKLOADS)

    cmd = [str(binary), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT, env=bench_env()).returncode


if __name__ == "__main__":
    sys.exit(main())
