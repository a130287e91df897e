#!/usr/bin/env python3
"""Aggregate BENCH_*.json snapshots into a trend table.

Every perf job in CI writes one small flat-JSON document (kernel_smoke,
fig_scale, fig_dataplane, the shard sweep). Each has a "benchmark" key
naming the producer; the rest is scalar metrics. Downloading those
artifacts across commits leaves a directory of snapshots — this tool
turns them into something a human can read at a glance:

  * snapshots are grouped by "benchmark" and ordered (oldest first) by
    --order=mtime (default) or the order given on the command line;
  * per group, every numeric key becomes one table row with the value per
    snapshot plus the relative change from first to last.

The gates themselves live in the producers (kernel_smoke exits non-zero
on a failed gate); this tool only reports.

Exit status: 0 clean, 1 on unreadable input.
Usage: tools/bench_trend.py [--order=mtime|argv] FILE [FILE ...]
"""

import json
import os
import sys


def load(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError("top level is not an object")
    return doc


def numeric_keys(docs):
    """Union of keys holding numbers in any snapshot, first-seen order."""
    keys = []
    for doc in docs:
        for key, value in doc.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if key not in keys:
                    keys.append(key)
    return keys


def fmt(value):
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}"


def print_group(name, entries):
    """entries: ordered [(label, doc)]."""
    docs = [doc for _, doc in entries]
    labels = [label for label, _ in entries]
    print(f"\n== {name} ({len(docs)} snapshot{'s' if len(docs) != 1 else ''}) ==")
    width = max(len(k) for k in numeric_keys(docs)) if numeric_keys(docs) else 0
    header = " " * width + "  " + "  ".join(f"{l:>14}" for l in labels)
    if len(docs) > 1:
        header += "  " + f"{'change':>8}"
    print(header)
    for key in numeric_keys(docs):
        values = [doc.get(key) for doc in docs]
        row = f"{key:<{width}}  " + "  ".join(f"{fmt(v):>14}" for v in values)
        if len(docs) > 1:
            first = next((v for v in values if v is not None), None)
            last = next((v for v in reversed(values) if v is not None), None)
            if first and last and first != 0:
                row += f"  {100.0 * (last - first) / first:>+7.1f}%"
            else:
                row += f"  {'-':>8}"
        print(row)


def main(argv):
    paths = [a for a in argv[1:] if not a.startswith("--")]
    order = "mtime"
    unknown = False
    for a in argv[1:]:
        if a.startswith("--order="):
            order = a.split("=", 1)[1]
        elif a.startswith("--"):
            unknown = True
    if unknown or not paths or order not in ("mtime", "argv"):
        print(__doc__.strip(), file=sys.stderr)
        return 2

    if order == "mtime":
        paths = sorted(paths, key=lambda p: os.path.getmtime(p))
    groups = {}  # benchmark name -> ordered [(label, doc)]
    for path in paths:
        try:
            doc = load(path)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            print(f"bench_trend: {path}: {e}", file=sys.stderr)
            return 1
        name = doc.get("benchmark") or os.path.splitext(os.path.basename(path))[0]
        label = os.path.splitext(os.path.basename(path))[0]
        groups.setdefault(name, []).append((label, doc))

    for name in groups:
        print_group(name, groups[name])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
