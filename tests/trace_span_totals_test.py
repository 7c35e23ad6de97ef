#!/usr/bin/env python3
"""Fixture test of tools/trace_span_totals.py.

Usage: tests/trace_span_totals_test.py

tests/span_totals/nested_trace.json holds two threads of hand-placed
spans (thread 1 nests expand > commit_fanout > swap_child > reads_latest,
and a second expand whose child valid_writes starts with it; thread 2 has
one expand overlapping thread 1). The expected totals, self-times and
shares of the 150 us wall clock are worked out by hand below.
Exit status: 0 = pass, 1 = a check failed.
"""

import importlib.util
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(HERE, "..", "tools", "trace_span_totals.py")
FIXTURE = os.path.join(HERE, "span_totals", "nested_trace.json")

spec = importlib.util.spec_from_file_location("trace_span_totals", TOOL)
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)

failures = []


def check(what, got, want):
    if got != want:
        failures.append(f"{what}: got {got!r}, want {want!r}")


def by_name(totals):
    return {name: (count, us) for (cat, name), (count, us) in totals.items()}


totals, wall = tool.load_totals(FIXTURE)
check("wall", wall, 150)
check("totals", by_name(totals), {
    "expand": (3, 180), "commit_fanout": (1, 50), "swap_child": (1, 30),
    "reads_latest": (1, 10), "valid_writes": (1, 10)})

self_totals, _ = tool.load_totals(FIXTURE, self_time=True)
check("self", by_name(self_totals), {
    "expand": (3, 120), "commit_fanout": (1, 20), "swap_child": (1, 20),
    "reads_latest": (1, 10), "valid_writes": (1, 10)})
# Per thread, self-times add up to the time spent inside spans.
check("self sum", sum(us for _, us in self_totals.values()), 140 + 40)

out = subprocess.run([sys.executable, TOOL, FIXTURE, "--self", "--markdown"],
                     capture_output=True, text=True)
check("exit status", out.returncode, 0)
check("expand row", "| explore | expand | 3 | 120us | 80.0% |" in out.stdout,
      True)
check("header", "% of wall(nested_trace.json)" in out.stdout, True)

for f in failures:
    print(f"trace_span_totals_test: FAIL: {f}", file=sys.stderr)
if not failures:
    print("trace_span_totals_test: OK")
sys.exit(1 if failures else 0)
