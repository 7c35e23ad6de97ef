#!/usr/bin/env python3
"""Regression gate on the dedup overhead in BENCH_dedup.json.

`--dedup` builds its fingerprint table only for programs with two or more
structurally identical sessions; everywhere else no probe could ever hit
(explore-ce never reaches an item twice), so the run must take the
dedup-off path. Two checks keep that honest:

* every courseware/tpcc cell (every session its own structural class)
  that did not time out must report dedup_checks == 0 -- a probe there is
  pure overhead, and a deterministic count catches it on any host;
* the median symmetry/off wall-clock ratio over the qualifying cells of
  the whole grid must stay at or below --max-ratio (default 2.0, the
  PR-8 from-scratch-fingerprint baseline), which bounds what the
  fingerprint table costs on the identical-sessions cells, where it is
  built. Cells are noisy at sub-millisecond scale, so only cells whose dedup-off wall
  time clears --min-off-ms qualify, and the median means a single
  descheduled run cannot fail CI.

Exit status: 0 = gate passed, 1 = bad input, 2 = gate failed.
"""

import argparse
import json
import statistics
import sys


ASYMMETRIC_APPS = ("courseware", "tpcc")


def qualifying_ratios(doc, min_off_ms):
    """Yields (cell_name, ratio) for every grid point with an off cell and
    a symmetry cell, neither timed out and the off cell above the noise
    floor."""
    by_point = {}
    for cell in doc.get("cells", []):
        point = (cell["workload"], cell["sessions"], cell["txns_per_session"])
        by_point.setdefault(point, {})[cell["mode"]] = cell
    for point in sorted(by_point):
        cells = by_point[point]
        off, probed = cells.get("off"), cells.get("symmetry")
        if off is None or probed is None:
            continue
        if off.get("timed_out") or probed.get("timed_out"):
            continue
        if off["ms"] < min_off_ms:
            continue
        name = "%s %dx%d" % point
        yield name, probed["ms"] / off["ms"]


def probed_asymmetric_cells(doc):
    """Yields the names of asymmetric-app cells that did not time out yet
    probed a dedup table."""
    for cell in doc.get("cells", []):
        if cell["workload"] not in ASYMMETRIC_APPS:
            continue
        if cell.get("timed_out") or cell.get("dedup_checks", 0) == 0:
            continue
        yield "%s %dx%d %s (%d checks)" % (
            cell["workload"], cell["sessions"], cell["txns_per_session"],
            cell["mode"], cell["dedup_checks"])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json", help="BENCH_dedup.json to gate")
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=2.0,
        help="fail when the median symmetry/off wall-clock ratio over "
        "qualifying cells exceeds this (default 2.0, the PR-8 "
        "from-scratch-fingerprint baseline)",
    )
    parser.add_argument(
        "--min-off-ms",
        type=float,
        default=20.0,
        help="ignore cells whose dedup-off wall time is below this noise "
        "floor in ms (default 20)",
    )
    args = parser.parse_args()

    try:
        with open(args.bench_json) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print("error: cannot read %s: %s" % (args.bench_json, e),
              file=sys.stderr)
        return 1
    if doc.get("bench") != "dedup":
        print("error: %s is not a BENCH_dedup.json dump" % args.bench_json,
              file=sys.stderr)
        return 1

    failed = False
    for name in probed_asymmetric_cells(doc):
        print("FAIL: %s: no two sessions are identical, so no table "
              "may be built" % name)
        failed = True

    ratios = list(qualifying_ratios(doc, args.min_off_ms))
    if not ratios:
        # A very tight bench budget can leave every big cell timed out;
        # report rather than vacuously pass.
        print("warning: no qualifying cells (raise TXDPOR_BENCH_BUDGET_MS "
              "or lower --min-off-ms); ratio gate skipped")
    else:
        for name, ratio in ratios:
            print("%-20s symmetry/off ratio %.2f" % (name, ratio))
        median = statistics.median(r for _, r in ratios)
        verdict = "within" if median <= args.max_ratio else "EXCEEDS"
        print("median ratio %.2f %s the %.2f gate (%d cells)"
              % (median, verdict, args.max_ratio, len(ratios)))
        failed |= median > args.max_ratio
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
