#!/usr/bin/env python3
"""Build and run the txdpor benchmark.

Usage (from the root of a checkout):

    python3 txbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of roster-ser, tpcc-par, stream-w256, stream-w16. The first
call configures and builds txbench/ (the library from src/ plus the
benchmark binary) under $CARGO_TARGET_DIR/txbench, default
.bench_build/txbench; later calls only re-check the build. Build output
goes to stderr; the binary's report goes to stdout, whose last line is the
JSON result. The exit status is the binary's: 0 when every answer checked
out, 1 on a wrong answer or timeout, 2 on bad arguments, 3 when the build
fails or the sources are missing.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "txbench")


def build():
    """Configures (once) and builds txbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "Engine.h")):
        sys.stderr.write("txbench: no txdpor sources in %s/src\n" % ROOT)
        sys.exit(3)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "txbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.stderr.write("txbench: build step failed: %s\n" % " ".join(cmd))
            sys.exit(3)
    return os.path.join(out, "txbench")


def main(argv):
    binary = build()
    sys.stdout.flush()
    try:
        proc = subprocess.run([binary] + argv, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("txbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
