#!/usr/bin/env python3
"""Validate a txdpor Chrome trace-event dump (tools/check_trace.py FILE).

CI runs this against the trace of a parallel tpcc exploration; it checks
what a human would eyeball in chrome://tracing before trusting the file:

  * the document is the JSON Object Format: {"traceEvents": [...], ...};
  * every event carries the fields its phase requires, with sane types;
  * complete events have non-negative ts/dur;
  * thread_name metadata covers every tid that emitted spans;
  * (with --expect-parallel) spans came from >= MIN_CATEGORIES categories
    and >= 2 distinct worker threads, so a regression that silently stops
    recording a subsystem fails the job rather than shipping empty lanes;
  * (with --expect-span NAME, repeatable) at least one complete span of
    that name was recorded, e.g. `filter` for an explore-ce* run.

Exit status: 0 = valid, 1 = validation failure, 2 = usage/IO error.
"""

import argparse
import json
import sys

KNOWN_CATEGORIES = {"explore", "swap", "check", "replay", "parallel", "fuzz"}
MIN_CATEGORIES = 4


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument(
        "--expect-parallel",
        action="store_true",
        help=f"require spans from >= {MIN_CATEGORIES} categories and "
        ">= 2 worker threads",
    )
    parser.add_argument(
        "--expect-span",
        action="append",
        default=[],
        metavar="NAME",
        help="require at least one complete span named NAME (repeatable)",
    )
    args = parser.parse_args()

    try:
        with open(args.trace, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_trace: cannot load {args.trace}: {e}", file=sys.stderr)
        return 2

    if not isinstance(doc, dict):
        return fail("top level is not an object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return fail("traceEvents missing or not an array")

    span_categories = set()
    span_names = set()
    span_tids = set()
    named_tids = {}
    worker_tids = set()

    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            return fail(f"{where} is not an object")
        ph = ev.get("ph")
        if ph not in ("X", "i", "C", "M"):
            return fail(f"{where}: unknown phase {ph!r}")
        if not isinstance(ev.get("tid"), int):
            return fail(f"{where}: missing integer tid")
        if ev.get("pid") != 1:
            return fail(f"{where}: expected pid 1")
        if ph == "M":
            if ev.get("name") != "thread_name":
                return fail(f"{where}: unexpected metadata {ev.get('name')!r}")
            name = ev.get("args", {}).get("name")
            if not name:
                return fail(f"{where}: thread_name without a name")
            named_tids[ev["tid"]] = name
            if name.startswith("worker-"):
                worker_tids.add(ev["tid"])
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            return fail(f"{where}: missing event name")
        cat = ev.get("cat")
        if cat not in KNOWN_CATEGORIES:
            return fail(f"{where}: unknown category {cat!r}")
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            return fail(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                return fail(f"{where}: bad dur {dur!r}")
            span_categories.add(cat)
            span_names.add(ev["name"])
            span_tids.add(ev["tid"])
        elif ph == "i":
            if ev.get("s") != "t":
                return fail(f"{where}: instant without thread scope")
        elif ph == "C":
            value = ev.get("args", {}).get("value")
            if not isinstance(value, (int, float)):
                return fail(f"{where}: counter without numeric value")

    other = doc.get("otherData")
    if not isinstance(other, dict) or other.get("tool") != "txdpor":
        return fail("otherData.tool != 'txdpor'")
    if not isinstance(other.get("dropped_records"), int):
        return fail("otherData.dropped_records missing")

    if args.expect_parallel:
        if len(span_categories) < MIN_CATEGORIES:
            return fail(
                f"spans from only {sorted(span_categories)} "
                f"(need >= {MIN_CATEGORIES} categories)"
            )
        active_workers = span_tids & worker_tids
        if len(active_workers) < 2:
            return fail(
                f"spans from {len(active_workers)} worker threads (need >= 2)"
            )

    missing = [n for n in args.expect_span if n not in span_names]
    if missing:
        return fail(f"no spans named {', '.join(missing)}")

    n_spans = sum(1 for e in events if e.get("ph") == "X")
    print(
        f"check_trace: OK: {len(events)} events ({n_spans} spans, "
        f"{len(span_categories)} categories, "
        f"{len(named_tids)} named threads, "
        f"{other['dropped_records']} dropped)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
