#!/usr/bin/env python3
"""Builds pawbench from source and runs one workload against a real pawd.

Run from the repository root:

    python3 pawbench/run.py --workload tenants_zipf --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/pawbench (default .bench_build/pawbench),
scratch stores and pawd logs to .bench_work/. The last line of stdout is the
result object {"correct", "attempted", "failed", "metrics"}; the exit code is
non-zero when the build fails, a run fails, or an answer is wrong.
The build is always Release.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def sh(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def git_revision():
    """Commit plus '-dirty' when the tree has changes; 'unknown' outside git."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode != 0:
            return "unknown"
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                               capture_output=True, text=True, timeout=10)
        return rev.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "pawbench")
    jobs = str(os.cpu_count() or 1)
    if not (sh(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
            and sh(["cmake", "--build", build, "-j", jobs])):
        print("pawbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build, "pawbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pawctl", os.path.join(build, "pawctl"),
           "--workdir", os.path.join(ROOT, ".bench_work"),
           "--git", git_revision()]
    # Own process group, so the pawd children go with it whatever happens.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("pawbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
