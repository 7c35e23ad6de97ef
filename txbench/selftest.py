#!/usr/bin/env python3
"""Self-test of the txdpor benchmark at tiny sizes.

Usage (from the root of a checkout):

    python3 txbench/selftest.py

Builds txbench like run.py, then, for every workload in BENCHMARK.json:

  * --trace 0 prints every end_to_end metric exactly once, with a unit,
    both as a "metric NAME VALUE UNIT" line and in the final JSON line,
    plus failed_ratio = 0;
  * --trace 1 does the same for every per_layer metric, drops no trace
    record, and its layer accounting holds: no share.* is negative, and
    unattributed_s (the traced verdict time left over after the shares)
    is neither negative, which a double-counted share would make it, nor
    above MAX_UNATTRIBUTED of the traced verdict time, which a lost layer
    timer would make it;
  * --corrupt-pin (one pinned answer off by one) drives failed_ratio
    above 0, reports correct = false and exits non-zero.

Also checks that a bad argument exits non-zero without a result line.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Mirrors MaxUnattributed in txbench.cpp; EPS mirrors its clock allowance.
MAX_UNATTRIBUTED = 0.5
EPS = 0.01


def invoke(binary, args):
    return subprocess.run([binary] + args, capture_output=True, text=True,
                          cwd=run.ROOT, timeout=run.RUN_TIMEOUT_S)


def metric_lines(stdout):
    lines = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            lines.setdefault(parts[1], []).append((float(parts[2]), parts[3]))
    return lines


def check_report(proc, names, label, errors, expect_ok=True):
    """Checks one run's report; returns (result JSON, metric lines)."""
    def fail(msg):
        errors.append("%s: %s" % (label, msg))

    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("no output")
        return None, {}
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON: %r" % lines[-1][:200])
        return None, {}
    if set(result) != RESULT_KEYS:
        fail("result keys %s" % sorted(result))
    printed = metric_lines(proc.stdout)
    if set(result.get("metrics", {})) != set(names):
        fail("JSON metrics differ from BENCHMARK.json: extra %s missing %s" % (
            sorted(set(result.get("metrics", {})) - set(names)),
            sorted(set(names) - set(result.get("metrics", {})))))
    for name in list(names) + ["failed_ratio"]:
        seen = printed.get(name, [])
        if len(seen) != 1:
            fail("metric %s printed %d times" % (name, len(seen)))
        elif not seen[0][1]:
            fail("metric %s has no unit" % name)
    for name, body in result.get("metrics", {}).items():
        if not isinstance(body.get("value"), (int, float)) or not body.get("unit"):
            fail("metric %s lacks a numeric value or a unit" % name)
    ratio = printed.get("failed_ratio", [(None, "")])[0][0]
    if expect_ok:
        if proc.returncode != 0 or result.get("correct") is not True:
            fail("exit %d, correct=%s" % (proc.returncode, result.get("correct")))
        if result.get("failed") != 0 or ratio != 0:
            fail("failed=%s failed_ratio=%s" % (result.get("failed"), ratio))
    return result, printed


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    binary = run.build()
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        base = ["--workload", workload, "--seed", "1", "--seconds", "1", "--tiny"]

        check_report(invoke(binary, base + ["--trace", "0"]), e2e,
                     workload + " trace 0", errors)

        label = workload + " trace 1"
        result, _ = check_report(invoke(binary, base + ["--trace", "1"]),
                                 layer, label, errors)
        if result:
            m = {k: v["value"] for k, v in result["metrics"].items()}
            if m.get("trace.dropped_records") != 0:
                errors.append(label + ": trace records dropped")
            traced = m.get("trace.traced_verdict_s", 0)
            left = m.get("unattributed_s", 0)
            negative = sorted(k for k, v in m.items()
                              if k.startswith("share.") and v < -EPS * traced)
            if negative or not (traced > 0 and -EPS * traced <= left <=
                                MAX_UNATTRIBUTED * traced):
                errors.append("%s: negative shares %s, unattributed %r of "
                              "traced verdict %r" % (label, negative, left,
                                                     traced))

        label = workload + " corrupt pin"
        proc = invoke(binary, base + ["--trace", "0", "--corrupt-pin"])
        result, printed = check_report(proc, e2e, label, errors,
                                       expect_ok=False)
        ratio = printed.get("failed_ratio", [(0, "")])[0][0]
        if proc.returncode == 0 or not ratio > 0 or not result or \
                result.get("correct") is not False:
            errors.append("%s: not caught (exit %d, failed_ratio %s)" % (
                label, proc.returncode, ratio))
        print("checked", workload, flush=True)

    proc = invoke(binary, ["--workload", "no-such-workload", "--seed", "1",
                           "--seconds", "1", "--trace", "0"])
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append("bad workload: exit %d, stdout %r" % (
            proc.returncode, proc.stdout[:200]))

    for e in errors:
        print("FAIL", e)
    print("selftest:", "ok" if not errors else "%d failures" % len(errors))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
