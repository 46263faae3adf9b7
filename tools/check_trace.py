#!/usr/bin/env python3
"""Validates a flight-recorder Chrome-trace export (CI gate).

Checks that the file is valid JSON in the Chrome trace-event format
Perfetto loads: a traceEvents list whose entries carry name/ph/pid/tid
(and ts for non-metadata events), with per-thread timestamps monotonic
after the exporter's sort. Optionally asserts that specific event names
are present (--require latch_wait,wal_fsync,partition_phase).

Usage: check_trace.py TRACE.json [--require name1,name2,...]
"""

import argparse
import json
import sys
from collections import Counter


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome-trace JSON file to validate")
    parser.add_argument(
        "--require",
        default="",
        help="comma-separated event names that must appear at least once",
    )
    args = parser.parse_args()

    try:
        with open(args.trace, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"FAIL: {args.trace}: not readable JSON: {exc}")
        return 1

    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        print("FAIL: traceEvents missing or empty")
        return 1

    names = Counter()
    last_ts = {}
    for i, ev in enumerate(events):
        for field in ("name", "ph", "pid", "tid"):
            if field not in ev:
                print(f"FAIL: event {i} missing {field!r}: {ev}")
                return 1
        if ev["ph"] == "M":  # metadata (thread names): no timestamp
            continue
        if "ts" not in ev:
            print(f"FAIL: event {i} ({ev['name']}) missing ts")
            return 1
        if ev["ph"] == "X" and "dur" not in ev:
            print(f"FAIL: complete event {i} ({ev['name']}) missing dur")
            return 1
        names[ev["name"]] += 1
        key = (ev["pid"], ev["tid"])
        if ev["ts"] < last_ts.get(key, float("-inf")):
            print(
                f"FAIL: event {i} ({ev['name']}) ts {ev['ts']} goes backwards "
                f"on thread {key}"
            )
            return 1
        last_ts[key] = ev["ts"]

    missing = [
        n for n in args.require.split(",") if n and names.get(n, 0) == 0
    ]
    if missing:
        print(f"FAIL: required event types absent: {', '.join(missing)}")
        print(f"      present: {dict(names)}")
        return 1

    dropped = doc.get("otherData", {}).get("dropped_events", 0)
    total = sum(names.values())
    print(
        f"OK: {total} events across {len(last_ts)} threads, "
        f"{len(names)} event types, dropped={dropped}"
    )
    for name, count in names.most_common():
        print(f"  {name:<18} {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
