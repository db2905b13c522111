#!/usr/bin/env python3
"""Builds re_bench from this checkout and runs one benchmark workload.

usage: python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
simulator libraries plus re_bench in Release mode under .bench_build/;
later runs rebuild incrementally. The build log goes to stderr; stdout is
re_bench's report, whose last line is one JSON object with the results.
The exit code is re_bench's (non-zero when a correctness gate fails).
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
BUILD_DIR = ROOT / ".bench_build" / "re_bench"

# The whole invocation must finish within 180 s (900 s when it builds).
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources at {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(os.cpu_count() or 1, 4))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return BUILD_DIR / "re_bench"


def git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "none"
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() or "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        fail(f"build failed: {error}")

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        command += ["--trace",
                    str(BUILD_DIR.parent / f"trace-{args.workload}.json")]
    # The simulator honours a few RE_* variables (thread counts, escape
    # hatches); the benchmark measures the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RE_")}
    print(f"# git: {git_sha()}", flush=True)
    try:
        result = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"re_bench exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
