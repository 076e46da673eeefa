#!/usr/bin/env python3
"""Benchmark entry point: builds the program and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cold-synth --seed 1 --seconds 20 --trace 0

It configures and builds perfbench/CMakeLists.txt (the fraghls CLI, its
library and the benchmark binary) into .bench_build/perfbench -- a no-op when
up to date -- then runs that binary, which prints human-readable lines and, as
its last line, one JSON object with the workload's metrics. Exits non-zero
when the build fails, any output check fails, or the run overruns its time
limit. Scratch files (CLI spec files, Chrome traces) go to .bench_work/.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("cold-synth", "serve-hot", "serve-churn")
# Runs stay under three minutes; a run that hangs is killed after this.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(1)
    return BUILD


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    build_dir = build()
    os.makedirs(WORK, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--fraghls", os.path.join(build_dir, "fraghls"), "--work", WORK]
    # Own process group: on a timeout the benchmark and every fraghls process
    # it started (daemon, CLI children) are killed together.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
