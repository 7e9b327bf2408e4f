#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds perfbench/ (the eblocks
library from src/ plus the harness in perfbench/harness/) in Release mode
under $CARGO_TARGET_DIR, or .bench_build/ when that is unset, then runs
the harness.  The harness's last line of standard output is the JSON
result; build output goes to standard error.  Traced runs (--trace 1)
write their spans under <build>/perfbench/traces/.  The exit status is
non-zero, with no result printed, when the build fails -- for example
outside a full checkout -- or when any output was wrong.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("oneshot-table1", "exact-search", "serve-cached")
HARNESS_TIMEOUT_S = 170


def commit_of(root):
    """The checkout's commit, read from <root>/.git; 'unknown' without one."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build(root):
    """Configures (once) and builds the harness; returns its path or None."""
    source = os.path.join(root, "perfbench")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as error:
            print(f"run.py: {error}", file=sys.stderr)
            return None
        if result.returncode != 0:
            print("run.py: build failed: " + " ".join(step), file=sys.stderr)
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hook (perfbench/selftest.py): damage one output, which the
    # checks must then report.
    parser.add_argument("--corrupt", type=int, choices=(0, 1), default=0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    root = os.getcwd()
    binary = build(root)
    if binary is None:
        return 2
    trace_dir = os.path.join(os.path.dirname(binary), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [binary,
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--trace-dir", trace_dir,
               "--commit", commit_of(root),
               "--corrupt", str(args.corrupt)]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=HARNESS_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: harness exceeded {HARNESS_TIMEOUT_S} s", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
