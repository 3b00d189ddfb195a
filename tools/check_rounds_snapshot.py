#!/usr/bin/env python3
"""CI stale-snapshot check for construction round counts (DESIGN.md §3).

Compares the `rounds` column of a fresh BENCH_construction.json against the
committed bench/results/BENCH_construction.json, row by row on the same
(n, k, threads). Round counts are deterministic across pools and platforms,
so any difference means the committed snapshot was not regenerated after a
change to the round accounting (or the accounting drifted by accident).

Usage: check_rounds_snapshot.py <fresh BENCH_construction.json>
                                <committed BENCH_construction.json>
"""

import json
import sys


def rows_by_key(path: str) -> dict:
    with open(path) as f:
        bench = json.load(f)
    return {(r["n"], r["k"], r["threads"]): r["rounds"]
            for r in bench.get("rows", []) if r.get("row") == "construction"}


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    fresh = rows_by_key(sys.argv[1])
    committed = rows_by_key(sys.argv[2])
    if not fresh:
        print(f"FAIL: no construction rows in {sys.argv[1]}", file=sys.stderr)
        return 1

    bad = 0
    for key in sorted(fresh):
        n, k, threads = key
        want = committed.get(key)
        got = fresh[key]
        if want is None:
            print(f"FAIL: n={n} k={k} threads={threads}: rounds {got}, "
                  "no committed row")
            bad += 1
        elif got != want:
            print(f"FAIL: n={n} k={k} threads={threads}: rounds {got}, "
                  f"committed {want}")
            bad += 1
        else:
            print(f"OK: n={n} k={k} threads={threads}: rounds {got}")
    if bad:
        print("The committed construction snapshot is stale: regenerate "
              "bench/results/BENCH_construction.json with bench_construction "
              "in the same change that moves the round counts.",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
