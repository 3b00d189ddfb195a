#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, untraced and traced, at
tiny sizes (run.py --smoke). Checks that each run passes its correctness
gates and reports exactly the metrics BENCHMARK.json lists, with their
units and finite values.

    python3 perfbench/test_smoke.py      # from the repository root
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for wl in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", wl, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--smoke"]
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, timeout=900)
            name = "%s trace=%d" % (wl, trace)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                failures.append("%s: exit %d" % (name, r.returncode))
                continue
            res = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = res["metrics"]
            problems = []
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("keys %s" % sorted(res))
            if not res["correct"] or res["failed"] != 0:
                problems.append("not correct")
            if res["attempted"] < 1:
                problems.append("nothing attempted")
            if set(got) != set(want):
                problems.append("metrics differ: %s" %
                                sorted(set(got) ^ set(want)))
            for m, v in got.items():
                if want.get(m) != v["unit"] or not math.isfinite(v["value"]):
                    problems.append("%s=%r" % (m, v))
            print("%-22s %s" % (name, "ok" if not problems else problems),
                  flush=True)
            if problems:
                failures.append(name)
    if failures:
        print("FAILED: %s" % failures)
        return 1
    print("all smoke runs passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
