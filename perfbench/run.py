#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
benchmark (a CMake project of its own, compiling ../src) under
.bench_build/ (or $CARGO_TARGET_DIR when that is set); later calls only
re-check the build. Every call generates the workload input from the
seed afresh in one process (into files of its own under
.bench_build/inputs/, removed at exit, so an input made by an older
build is never reused), then a second process loads it and measures, so
the resident-set reading taken before set-up excludes the generator. The last
line of standard output is the result as one JSON object. Any failure --
build, generation or a correctness check -- exits non-zero without it.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("steady_mix", "churn_storm")
RUN_TIMEOUT_S = 170


def build_dir(root):
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out_dir):
    """Configures and builds the driver; returns its path, or exits 2."""
    cmake_dir = os.path.join(out_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "--target",
                      "infilter_perfbench", "-j", str(min(4, os.cpu_count() or 1))])
        for step in steps:
            code = subprocess.call(step, stdout=log, stderr=subprocess.STDOUT)
            if code != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
                sys.exit(2)
    return os.path.join(cmake_dir, "infilter_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    out_dir = build_dir(root)
    binary = build(out_dir)

    inputs = os.path.join(out_dir, "inputs")
    os.makedirs(inputs, exist_ok=True)
    input_path = os.path.join(inputs, "%s-%d.%d.bin" % (args.workload, args.seed, os.getpid()))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        code = subprocess.call([binary, "gen"] + common + ["--out", input_path],
                               timeout=RUN_TIMEOUT_S)
        if code != 0:
            sys.stderr.write("perfbench: input generation failed (%d)\n" % code)
            sys.exit(2)
        command = [binary, "run"] + common + [
            "--input", input_path, "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
        if args.trace:
            command += ["--trace-out",
                        os.path.join(out_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
        proc = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    finally:
        for name in os.listdir(inputs):
            if name.startswith(os.path.basename(input_path) + "."):
                os.remove(os.path.join(inputs, name))
    output = proc.stdout.decode()
    if proc.returncode != 0:
        # A failed run prints no result line.
        lines = [line for line in output.splitlines() if not line.startswith("{")]
        sys.stdout.write("\n".join(lines) + ("\n" if lines else ""))
        sys.stderr.write("perfbench: run failed (%d)\n" % proc.returncode)
        sys.exit(proc.returncode if proc.returncode > 0 else 2)
    sys.stdout.write(output)


if __name__ == "__main__":
    main()
