#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload xalanc-t3 --seed 1 --seconds 25 --trace 0

The simulator (src/) and the benchmark binary are compiled into
.bench_build/perfbench on first use (later runs rebuild only what changed).
The binary's output is passed through unchanged: its last stdout line is the
JSON result. Traced runs (--trace 1) also write their spans to .bench_out/.
The exit code is nonzero when the build fails, a check fails or the run
exceeds its time limit.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


_children = []


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout or termination kills
    the whole group (make and compiler children included) and waits."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    _children.append(proc)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s exceeded %d s" % (os.path.basename(cmd[0]), timeout))
    finally:
        kill_children()


def kill_children():
    while _children:
        proc = _children.pop()
        if proc.poll() is None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()


def on_signal(signum, _frame):
    kill_children()
    sys.exit(128 + signum)


def build():
    if shutil.which("cmake") is None:
        sys.exit("perfbench: cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the JSON result.
        left = max(1, int(deadline - time.monotonic()))
        if run_group(cmd, left, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    sys.stdout.flush()
    sys.exit(run_group([binary, "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace),
                        "--out-dir", OUT_DIR], RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
