#!/usr/bin/env python3
"""Builds the OrpheusDB benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <sci_read|cur_commit|mixed_rw> \
        --seed <n> --seconds <s> --trace <0|1>

The engine (../src) and the benchmark are built with CMake into
.bench_build/perfbench; later runs rebuild only what changed. Each run
works in a fresh directory under .bench_build and removes it at the end.
The benchmark's arithmetic self-test runs first. The last line of
stdout is the result, one JSON object; build output goes to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sci_read", "cur_commit", "mixed_rw"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no engine sources at " + os.path.join(ROOT, "src"))
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if subprocess.run([BINARY, "--selftest"], stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: self-test failed")

    workdir = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    traces = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(workdir)
    os.makedirs(traces, exist_ok=True)
    spans = os.path.join(traces, "%s-seed%d.jsonl" % (args.workload, args.seed))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.trace:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = proc.stdout.rstrip("\n")
    sys.stdout.write(out + "\n")
    last = out.splitlines()[-1] if out else ""
    try:
        result = json.loads(last)
    except ValueError:
        sys.exit("perfbench: no result line")
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(1)


if __name__ == "__main__":
    main()
