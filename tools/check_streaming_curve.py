#!/usr/bin/env python3
"""Regression gate on the streaming checker's window curve.

Reads BENCH_streaming.json (bench/bench_streaming) and fails when the
events/s at window budget 1024 falls below 1/8 of the events/s at
budget 16 *of the same run*. Comparing two cells of
one run cancels the host's speed, so the gate holds on any CI machine.
The ratio tracks how much per-transaction closure upkeep grows with the
window: an append whose cost scales with the window squared shows up as
the large-window cell collapsing, long before a production trace
notices.

Exit status: 0 = gate passed, 1 = bad input, 2 = gate failed.
"""

import argparse
import json
import sys


# The gated rule: events/s at window LARGE must reach MIN_FRACTION of
# events/s at window SMALL.
SMALL = 16
LARGE = 1024
MIN_FRACTION = 1.0 / 8


def events_per_sec(doc, budget):
    """events/s of the cell at window budget `budget`, or None."""
    for cell in doc.get("cells", []):
        if cell.get("window_budget") == budget:
            return cell.get("events_per_sec")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json", help="BENCH_streaming.json to gate")
    args = parser.parse_args()

    try:
        with open(args.bench_json) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print("check_streaming_curve: cannot read %s: %s" %
              (args.bench_json, e), file=sys.stderr)
        return 1

    small = events_per_sec(doc, SMALL)
    large = events_per_sec(doc, LARGE)
    if not small or large is None:
        print("check_streaming_curve: %s lacks a window %d or %d cell with "
              "events_per_sec" % (args.bench_json, SMALL, LARGE),
              file=sys.stderr)
        return 1

    fraction = large / small
    verdict = "ok" if fraction >= MIN_FRACTION else "FAIL"
    print("window %d: %.0f events/s, window %d: %.0f events/s, "
          "ratio 1/%.1f (gate 1/%.1f): %s" %
          (SMALL, small, LARGE, large,
           1.0 / fraction if fraction > 0 else float("inf"),
           1.0 / MIN_FRACTION, verdict))
    return 0 if verdict == "ok" else 2


if __name__ == "__main__":
    sys.exit(main())
