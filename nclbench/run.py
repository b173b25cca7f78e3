#!/usr/bin/env python3
"""Build and run the NCL end-to-end benchmark.

Run from the repository root:

    python3 nclbench/run.py --workload serve_open --seed 1 --seconds 25 --trace 0

Configures nclbench/CMakeLists.txt (which builds the repository's libraries
from src/) into the build directory -- $CARGO_TARGET_DIR if set, else
.bench_build -- builds the `nclbench` binary, and runs it. Build output goes
to standard error, so the last line of standard output is the binary's result
object. Exits non-zero when the build fails, the binary fails (including a
correctness-gate mismatch) or its result line is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_open", "fleet_mixed", "bulk_link")
# A run must end within 180 s; stop the binary before that.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_quiet(command):
    """Run a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode == 0
    except OSError as error:
        print(f"run.py: {command[0]}: {error}", file=sys.stderr)
        return False


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]):
            return False
    jobs = str(os.cpu_count() or 1)
    return run_quiet(["cmake", "--build", build_dir, "--target", "nclbench", "-j", jobs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1

    # Unix sockets of the fleet live here; a relative path keeps them under
    # the 108-byte socket path limit wherever the checkout is.
    workdir = os.path.join(build_dir, "run")
    os.makedirs(workdir, exist_ok=True)
    command = [os.path.join(build_dir, "nclbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--workdir", os.path.relpath(workdir)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the binary.
        print(f"run.py: nclbench timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1

    lines = proc.stdout.splitlines()
    body, last = lines[:-1], (lines[-1] if lines else "")
    sys.stdout.write("".join(line + "\n" for line in body))
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print(last, file=sys.stderr)
        print(f"run.py: nclbench exited {proc.returncode} without a result", file=sys.stderr)
        return proc.returncode or 1
    print(last)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
