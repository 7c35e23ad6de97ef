#!/usr/bin/env python3
"""Sum span durations per (category, name) in a txdpor Chrome trace dump.

Usage: tools/trace_span_totals.py FILE [FILE ...] [--names a,b] [--self]
                                  [--markdown]

The before/after evidence for hot-path work: given one or more --trace
dumps, prints per-span-name totals (count, total time, share of the
trace's wall clock) so a claim like "bulk_rebuild time dropped" is a
table diff rather than a flamechart eyeball. With two or more files the
table gets one column group per file plus a delta column against the
first (the baseline).

Only complete events (ph == "X") participate; instants and counter
samples carry no duration. By default durations are the self-reported
`dur` of each span, as chrome://tracing's "Wall Duration" column reports
them. With --self, each span's directly nested children on the same
thread are subtracted first ("Self Time"), so the per-name totals of one
thread add up to the time it spent inside spans. The "% of wall" column
divides a total by the trace's wall clock, from its first span start to
its last span end; with several threads the shares can sum above 100%.

Exit status: 0 = ok, 2 = usage/IO error.
"""

import argparse
import json
import sys
from collections import defaultdict


def load_totals(path, self_time=False):
    """Returns ({(cat, name): [count, total_us]}, wall_us) for ph=="X"
    events, or None on a load error. With self_time, each span's total
    excludes its directly nested children on the same thread."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"trace_span_totals: cannot load {path}: {e}", file=sys.stderr)
        return None
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list):
        print(f"trace_span_totals: {path}: no traceEvents array",
              file=sys.stderr)
        return None
    spans_by_tid = defaultdict(list)
    for ev in events:
        if not isinstance(ev, dict) or ev.get("ph") != "X":
            continue
        ts, dur = ev.get("ts", 0), ev.get("dur", 0)
        if not isinstance(ts, (int, float)) or not isinstance(
                dur, (int, float)) or dur < 0:
            continue
        key = (ev.get("cat", "?"), ev.get("name", "?"))
        spans_by_tid[ev.get("tid")].append([ts, dur, key, 0.0])

    totals = defaultdict(lambda: [0, 0.0])
    first, last = None, None
    for spans in spans_by_tid.values():
        # Parents sort before the children that start with them.
        spans.sort(key=lambda s: (s[0], -s[1]))
        open_spans = []
        for span in spans:
            ts, dur = span[0], span[1]
            first = ts if first is None else min(first, ts)
            last = ts + dur if last is None else max(last, ts + dur)
            while open_spans and sum(open_spans[-1][:2]) < ts + dur:
                open_spans.pop()
            if open_spans:
                open_spans[-1][3] += dur  # Time in direct children.
            open_spans.append(span)
        for ts, dur, key, children in spans:
            totals[key][0] += 1
            totals[key][1] += max(dur - children, 0.0) if self_time else dur
    wall = (last - first) if first is not None else 0.0
    return totals, wall


def fmt_us(us):
    if us >= 1e6:
        return f"{us / 1e6:.3f}s"
    if us >= 1e3:
        return f"{us / 1e3:.1f}ms"
    return f"{us:.0f}us"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("traces", nargs="+",
                        help="Chrome trace-event JSON file(s); the first "
                        "is the baseline for delta columns")
    parser.add_argument("--names",
                        help="comma-separated span names to restrict to "
                        "(default: all)")
    parser.add_argument("--self", dest="self_time", action="store_true",
                        help="subtract nested child spans (per thread) "
                        "from each span's duration")
    parser.add_argument("--markdown", action="store_true",
                        help="emit a GitHub-flavored markdown table")
    args = parser.parse_args()

    wanted = set(args.names.split(",")) if args.names else None
    per_file = []
    walls = []
    for path in args.traces:
        loaded = load_totals(path, args.self_time)
        if loaded is None:
            return 2
        per_file.append(loaded[0])
        walls.append(loaded[1])

    keys = sorted({k for t in per_file for k in t
                   if wanted is None or k[1] in wanted})
    if not keys:
        print("trace_span_totals: no matching spans", file=sys.stderr)
        return 0

    kind = "self" if args.self_time else "total"
    header = ["category", "span"]
    for path in args.traces:
        stem = path.rsplit("/", 1)[-1]
        header += [f"count({stem})", f"{kind}({stem})",
                   f"% of wall({stem})"]
    if len(per_file) > 1:
        header.append("Δtotal vs first")

    rows = []
    for key in keys:
        row = [key[0], key[1]]
        for totals, wall in zip(per_file, walls):
            count, us = totals.get(key, [0, 0.0])
            share = f"{us / wall * 100:.1f}%" if wall > 0 else "-"
            row += [str(count), fmt_us(us), share]
        if len(per_file) > 1:
            base = per_file[0].get(key, [0, 0.0])[1]
            last = per_file[-1].get(key, [0, 0.0])[1]
            if base > 0:
                row.append(f"{(last - base) / base * 100:+.1f}%")
            else:
                row.append("new" if last > 0 else "-")
        rows.append(row)

    if args.markdown:
        print("| " + " | ".join(header) + " |")
        print("|" + "|".join("---" for _ in header) + "|")
        for row in rows:
            print("| " + " | ".join(row) + " |")
    else:
        widths = [max(len(header[i]), max(len(r[i]) for r in rows))
                  for i in range(len(header))]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
