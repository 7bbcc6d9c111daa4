#!/usr/bin/env python3
"""Build and run the asilkit end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test

Run from the root of a checkout.  The first call configures and builds
the library and the benchmark (Release) under .bench_build/e2ebench; later
calls only bring that build up to date.  Build output goes to stderr, so
the last line of standard output is the benchmark's JSON result.  See
e2ebench/README.md for the workloads and metrics.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORK = os.path.join(ROOT, ".bench_build", "e2ebench-work")


def fail(message):
    print("e2ebench/run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no asilkit sources next to the benchmark (expected src/CMakeLists.txt)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def git_sha():
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def main():
    args = sys.argv[1:]
    build()
    sys.stdout.flush()
    sys.stderr.flush()
    if args == ["--self-test"]:
        binary = os.path.join(BUILD, "e2ebench_selftest")
        os.execv(binary, [binary])
    os.makedirs(WORK, exist_ok=True)
    binary = os.path.join(BUILD, "e2ebench")
    # exec, not a child: the benchmark is the only process left running.
    os.execv(binary, [binary] + args + ["--work-dir", WORK, "--git-sha", git_sha()])


if __name__ == "__main__":
    main()
