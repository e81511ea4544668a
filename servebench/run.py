#!/usr/bin/env python3
"""Builds the serving benchmark from this checkout's sources and runs it.

    python3 servebench/run.py --workload ea_lockstep --seed 1 --seconds 40 --trace 0

Run from the root of the checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under servebench/, durable files and span traces to a
per-run directory beside it. serve_bench's last output line is the JSON
result; the build log goes to standard error.
"""
import argparse
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    source = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "servebench")
    os.makedirs(build, exist_ok=True)
    log = sys.stderr
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", source, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=log, stderr=log)
        if configure.returncode != 0:
            shutil.rmtree(build, ignore_errors=True)
            return 1
    built = subprocess.run(["cmake", "--build", build, "-j", "2"],
                           stdout=log, stderr=log)
    if built.returncode != 0:
        return 1

    workdir = os.path.join(build, "run-%d" % os.getpid())
    try:
        run = subprocess.run(
            [os.path.join(build, "serve_bench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", args.trace, "--workdir", workdir],
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("serve_bench timed out after %d s" % RUN_TIMEOUT_S, file=log)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
