#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Builds the library and the benchmark driver
from source into .bench_build/ (Release), then runs one workload through the
library's public API. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}. Scratch output, per-run result
files (with the host fingerprint) and Chrome traces go to .bench_build/run/.
See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
OUT_DIR = os.path.join(ROOT, ".bench_build", "run")
BINARY = os.path.join(BUILD_DIR, "kagen_perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for required in ("perfbench/CMakeLists.txt", "CMakeLists.txt", "src/kagen.hpp"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("%s not found; run from the repository root" % required)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "kagen_perfbench", "-j", "4"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="only prove that the output checks catch a corrupted byte")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if args.seconds is None and not args.self_test:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            args.seconds = json.load(fh)["run_seconds"]
    if args.seed < 0 or (args.seconds is not None and args.seconds < 1):
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=OUT_DIR)  # library scratch files stay in the checkout
    if args.self_test:
        cmd = [BINARY, "--self-test", "--out", OUT_DIR]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT_DIR]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, env=env)
    try:
        code = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
