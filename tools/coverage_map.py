#!/usr/bin/env python3
"""Line-coverage map of src/: what the binaries run vs what only tests run.

usage: python3 tools/coverage_map.py [--root DIR] [--build-dir DIR]
                                     [--jobs N] [--counts-out FILE]

Builds the tree at --root (default: this checkout) with `--coverage -O1
-fprofile-update=atomic` under --build-dir (default:
<root>/build-coverage): the main CMake project
in <build-dir>/main and re_bench from benchmark/ in <build-dir>/re_bench.
Then it runs a fixed traffic list of production entry points (the paper
drivers at scale 0.1, every example, re_check's fuzz and planted-fault
gates, re_bench's four workloads), snapshots the line
counts, runs ctest and snapshots again. Every executable line of a file
under src/ then falls into one of three sets:

  reached       run by the traffic list
  test-only     run only once ctest has run
  unreached     run by nothing

The script prints the test-only and unreached line counts and the
functions only tests reach. --counts-out writes the two counts plus the
compiler line, the format of tools/coverage_counts.txt. Line counts
depend on the compiler, so compare runs of one compiler only.

Exit status: 0 on success, 1 if a traffic command or ctest fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# The per-round probe runs on the thread pool; gcov's counters are not
# atomic by default, so concurrent hits could be lost and a line read as
# unreached on one run and reached on the next.
FLAGS = "--coverage -O1 -fprofile-update=atomic"


PLAIN_EXAMPLES = [
    "quickstart", "niks_case_study", "peer_provider", "custom_topology",
    "default_route_study", "anycast_catchment", "rov_study",
]

RE_BENCH_WORKLOADS = ["survey", "fullrib_sweep", "churn", "trials_parallel"]


def log(message):
    print(f"coverage_map: {message}", file=sys.stderr, flush=True)


def run(command, cwd, env=None, expect=0):
    log(" ".join(str(c) for c in command))
    result = subprocess.run([str(c) for c in command], cwd=cwd, env=env,
                            stdout=subprocess.DEVNULL)
    if result.returncode != expect:
        log(f"exit {result.returncode} (expected {expect}): {command[0]}")
        sys.exit(1)


def configure_and_build(source, build, jobs):
    if not (build / "CMakeCache.txt").is_file():
        command = ["cmake", "-S", source, "-B", build,
                   "-DCMAKE_BUILD_TYPE=Coverage",
                   f"-DCMAKE_CXX_FLAGS={FLAGS}",
                   "-DCMAKE_EXE_LINKER_FLAGS=--coverage"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        run(command, cwd=source)
    run(["cmake", "--build", build, "-j", str(jobs)], cwd=source)


def paper_drivers(root):
    """Every executable bench/ builds (one per bench/*.cpp) but bench_micro.

    A tree may build one main per table or figure, which reads RE_SCALE
    and ignores argv, or the single re_paper, which takes --scale and
    reads no RE_SCALE; traffic() passes both, so one script measures
    either tree.
    """
    return sorted(path.stem for path in (root / "bench").glob("*.cpp")
                  if path.stem != "bench_micro")


def traffic(root, main, re_bench, work, env):
    """The production entry points whose reach defines 'reached'."""
    scaled = dict(env, RE_SCALE="0.1")
    for name in paper_drivers(root):
        run([main / "bench" / name, "--scale", "0.1"], cwd=work, env=scaled)

    examples = main / "examples"
    for name in PLAIN_EXAMPLES:
        run([examples / name], cwd=work, env=env)
    run([examples / "replay_results", "--demo"], cwd=work, env=env)

    survey = examples / "re_survey"
    run([survey], cwd=work, env=env)
    run([survey, "--scale", "0.05", "--checkpoint", "ckpt",
         "--abort-after-round", "4"], cwd=work, env=env)
    run([survey, "--scale", "0.05", "--checkpoint", "ckpt", "--resume"],
        cwd=work, env=env)
    run([survey, "--scale", "0.05", "--trace", "survey-trace.json"],
        cwd=work, env=dict(env, RE_THREADS="2"))

    check = examples / "re_check"
    run([check, "--seeds", "0..15", "--ops", "40"], cwd=work, env=env)
    run([check, "--seeds", "0..15", "--shrink", "--mutant", "med-flip",
         "--trace-out", "fault.trace"], cwd=work, env=env, expect=1)
    run([check, "--mutant", "med-flip", "--replay", "fault.trace.min"],
        cwd=work, env=env, expect=1)
    run([check, "--replay", "fault.trace.min"], cwd=work, env=env)

    for workload in RE_BENCH_WORKLOADS:
        run([re_bench / "re_bench", "--workload", workload, "--seed", "1",
             "--seconds", "2"], cwd=work, env=env)


def snapshot(build, src, jobs):
    """Merged per-line and per-function execution counts for src/ files.

    Walks every .gcno under `build` (objects that never ran still report
    their lines, with count 0) and merges the counts of all translation
    units that compiled a given src/ line, headers included.
    """
    notes = sorted(build.rglob("*.gcno"))
    lines = {}      # (file, line) -> executed?
    functions = {}  # (file, start line, name) -> execution count

    def gcov(chunk):
        result = subprocess.run(["gcov", "--json-format", "--stdout",
                                 *map(str, chunk)],
                                cwd=build, capture_output=True, text=True)
        return result.stdout

    chunks = [notes[i:i + 16] for i in range(0, len(notes), 16)]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        outputs = list(pool.map(gcov, chunks))
    for output in outputs:
        for record in output.splitlines():
            if not record.strip():
                continue
            doc = json.loads(record)
            cwd = Path(doc.get("current_working_directory", build))
            for entry in doc["files"]:
                path = Path(os.path.normpath(cwd / entry["file"]))
                if src not in path.parents:
                    continue
                name = str(path.relative_to(src.parent))
                for line in entry["lines"]:
                    key = (name, line["line_number"])
                    lines[key] = lines.get(key, False) or line["count"] > 0
                for fn in entry["functions"]:
                    key = (name, fn["start_line"], fn["demangled_name"])
                    functions[key] = (functions.get(key, 0)
                                      + fn["execution_count"])
    return lines, functions


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_root = Path(__file__).resolve().parent.parent
    parser.add_argument("--root", type=Path, default=default_root)
    parser.add_argument("--build-dir", type=Path)
    parser.add_argument("--jobs", type=int,
                        default=min(os.cpu_count() or 1, 4))
    parser.add_argument("--counts-out", type=Path)
    args = parser.parse_args()

    root = args.root.resolve()
    build = (args.build_dir or root / "build-coverage").resolve()
    main_build, bench_build = build / "main", build / "re_bench"
    configure_and_build(root, main_build, args.jobs)
    configure_and_build(root / "benchmark", bench_build, args.jobs)

    for stale in build.rglob("*.gcda"):
        stale.unlink()
    work = build / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    # The traffic measures the defaults: no inherited RE_* knob applies.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RE_")}
    traffic(root, main_build, bench_build, work, env)
    src = root / "src"
    reached, reached_fns = snapshot(build, src, args.jobs)

    run(["ctest", "--test-dir", main_build, "-j", str(args.jobs),
         "--timeout", "600"], cwd=root, env=env)
    after, after_fns = snapshot(build, src, args.jobs)

    test_only = sorted(k for k, hit in after.items()
                       if hit and not reached.get(k, False))
    unreached = sorted(k for k, hit in after.items() if not hit)
    only_fns = sorted(k for k, count in after_fns.items()
                      if count > 0 and reached_fns.get(k, 0) == 0)

    compiler = subprocess.run(["g++", "--version"], capture_output=True,
                              text=True).stdout.splitlines()[0]
    print(f"# {compiler}, {FLAGS}")
    print(f"executable_lines {len(after)}")
    print(f"reached_lines {len(after) - len(test_only) - len(unreached)}")
    print("")
    print("# functions only tests reach (file:line name)")
    for name, line, fn in only_fns:
        print(f"{name}:{line} {fn}")
    print("")
    print(f"test_only_lines {len(test_only)}")
    print(f"unreached_lines {len(unreached)}")

    if args.counts_out:
        args.counts_out.write_text(
            f"{compiler}\n"
            f"test_only_lines {len(test_only)}\n"
            f"unreached_lines {len(unreached)}\n")


if __name__ == "__main__":
    main()
