#!/usr/bin/env python3
"""Build and run primsel's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
primsel library and the benchmark program (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; later runs only check that the build is current. Build output
goes to stderr. The program's own stdout is passed through, so its last
line -- one JSON object with the keys correct, attempted, failed and
metrics -- is the last line printed here. The traced run (--trace 1)
writes its spans next to the build as trace-<workload>-<seed>.jsonl.

Exits non-zero, without a result line, when the library sources are not
there or the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("zoo-analytic", "zoo-profiled", "serve-mix")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(source_dir, build_dir):
    steps = [
        ["cmake", "-S", source_dir, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j",
         str(max(1, min(4, os.cpu_count() or 1)))],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in [1, 3600]")

    root = os.getcwd()
    source_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("primsel sources (src/) not found; run from the repository root")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    build(source_dir, build_dir)

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--trace-out", os.path.join(
            build_dir, f"trace-{args.workload}-{args.seed}.jsonl")]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if done.returncode:
        fail(f"benchmark exited with code {done.returncode}")


if __name__ == "__main__":
    main()
