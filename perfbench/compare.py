#!/usr/bin/env python3
"""Compare two saved benchmark runs metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

Both files come from ``run.py --save``. Runs of different workloads or
trace modes, or on different statevector kernel backends, are refused: a
backend change alone moves every timing.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    for key in ("backend", "workload", "trace"):
        if base["meta"][key] != new["meta"][key]:
            print(f"compare: refusing, {key} differs: {base['meta'][key]!r} vs "
                  f"{new['meta'][key]!r}", file=sys.stderr)
            return 2
    print(f"{'metric':36s} {'base':>14s} {'new':>14s} {'change':>8s} unit")
    for name, m in base["result"]["metrics"].items():
        old = m["value"]
        cur = new["result"]["metrics"].get(name, {}).get("value")
        change = f"{(cur - old) / old:+.1%}" if cur is not None and old else "-"
        print(f"{name:36s} {old:14.6g} {cur if cur is not None else float('nan'):14.6g} "
              f"{change:>8s} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
