#!/usr/bin/env python3
"""CI throughput floor check (DESIGN.md §10, §11).

Compares fresh BENCH_*.json reports against the committed floors in
bench/results/perf_floor.json, so hot-path performance regressions fail
CI exactly like correctness regressions.

The floor file holds a list of checks:

    {"checks": [
        {"file":   "BENCH_serving.json",     # which report to look in
         "row":    "serve",                  # row type to select
         "match":  {"n": 2048, "threads": 1},  # fields rows must equal
         "metric": "decisions_per_sec",      # value compared to the floor
         "floor":  3800000,                  # minimum acceptable best row
         "note":   "why this floor"},
        ...]}

Every check must find at least one matching row in its report, and the
best (max) value of the metric across matching rows must reach the floor.
Floors are deliberately loose (~2x below a healthy run) to absorb runner
jitter; a failure therefore means the path got *severely* slower.

Usage: check_perf_floor.py <perf_floor.json> <BENCH_*.json> [more...]
"""

import json
import os
import sys


def run_check(check, reports):
    name = check["file"]
    if name not in reports:
        print(
            f"FAIL: {name} not among the provided reports "
            f"({', '.join(sorted(reports))}) — was its bench smoke run?",
            file=sys.stderr,
        )
        return False

    want = dict(check.get("match", {}))
    want["row"] = check["row"]
    rows = [
        r
        for r in reports[name].get("rows", [])
        if all(r.get(k) == v for k, v in want.items())
    ]
    if not rows:
        print(
            f"FAIL: no row matching {want} in {name} — was the smoke run "
            "executed with the expected size flags?",
            file=sys.stderr,
        )
        return False

    metric = check["metric"]
    floor = float(check["floor"])
    best = max(float(r[metric]) for r in rows)
    ok = best >= floor
    label = ", ".join(f"{k}={v}" for k, v in sorted(want.items()))

    def fmt(x):  # rates as integers, fractions with their digits
        return f"{x:,.0f}" if abs(x) >= 100 else f"{x:.4f}"

    print(
        f"{'OK' if ok else 'FAIL'}: {name} {metric} {fmt(best)} vs floor "
        f"{fmt(floor)} ({label})"
    )
    if not ok:
        print(
            f"{metric} fell below the committed floor. If a slowdown is "
            "intentional, lower bench/results/perf_floor.json in the same "
            "PR and document why.",
            file=sys.stderr,
        )
    return ok


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        floors = json.load(f)

    reports = {}
    for path in sys.argv[2:]:
        with open(path) as f:
            reports[os.path.basename(path)] = json.load(f)

    checks = floors["checks"]
    failed = [c for c in checks if not run_check(c, reports)]
    print(f"{len(checks) - len(failed)}/{len(checks)} floor checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
