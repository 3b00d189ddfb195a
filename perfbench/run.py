#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload construct|wire_read|live_churn \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. The script builds the library and the
perfbench binary from source into .bench_build/ (CMake, Release), builds
the serving image in a separate process for the serving workloads, runs
the workload and prints, as the last stdout line,

    {"correct": ..., "attempted": ..., "failed": ...,
     "metrics": {name: {"value": v, "unit": u}, ...}}

with every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). A run-info line (hardware, build, source
digest, gates) precedes it. Exits non-zero when a build or a correctness
gate fails. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SERVE_N = 1 << 14
SMOKE_SERVE_N = 1 << 10
K = 3
RUN_DEADLINE_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    d = os.path.normpath(os.path.join(ROOT, d))
    if os.path.commonpath([d, ROOT]) != ROOT:
        d = os.path.join(ROOT, ".bench_build")
    return os.path.join(d, "perfbench")


def build(bdir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    os.makedirs(bdir, exist_ok=True)
    logpath = os.path.join(bdir, "build.log")
    with open(logpath, "a") as logf:
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", str(nproc()),
                      "--target", "perfbench"])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                               timeout=850)
            if r.returncode != 0:
                with open(logpath) as f:
                    log("".join(f.readlines()[-30:]))
                raise SystemExit("perfbench: build failed (%s)" % logpath)
    return os.path.join(bdir, "perfbench")


def run_json(cmd, deadline):
    """Runs the binary; returns its last stdout line parsed, or exits."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: timed out: %s" % " ".join(cmd))
    lines = [ln for ln in r.stdout.splitlines() if ln.strip()]
    if not lines:
        raise SystemExit("perfbench: no result from %s (exit %d)"
                         % (" ".join(cmd), r.returncode))
    res = json.loads(lines[-1])
    if r.returncode != 0 and res.get("correct", False):
        raise SystemExit("perfbench: exit %d from %s" % (r.returncode, cmd))
    return res


def source_id():
    if os.path.exists(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return "git:" + r.stdout.strip()
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(files):
                p = os.path.join(dirpath, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["construct", "wire_read", "live_churn"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs: exercises every path in seconds")
    args = ap.parse_args()
    # On SIGTERM, unwind so subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_DEADLINE_S

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    bdir = build_dir()
    binary = build(bdir)
    deadline = max(deadline, time.monotonic() + 120)  # a cold build is extra
    workdir = os.path.join(bdir, "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        results = []
        image = os.path.join(workdir, "image.frozen")
        if args.workload != "construct":
            n = SMOKE_SERVE_N if args.smoke else SERVE_N
            results.append(run_json(
                [binary, "image", "--n", str(n), "--k", str(K),
                 "--threads", str(nproc()), "--repeats",
                 "1" if args.smoke else "3", "--out", image], deadline))
        cmd = [binary, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", workdir,
               "--image", image]
        if args.smoke:
            cmd.append("--smoke")
        results.append(run_json(cmd, deadline))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, gates, info = {}, [], {}
    for r in results:
        metrics.update(r["metrics"])
        gates += r.get("gates", [])
        info.update(r.get("info", {}))
    correct = all(r["correct"] for r in results)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit("perfbench: metrics not reported: %s" % missing)

    info.update({"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace,
                 "smoke": args.smoke, "nproc": nproc(),
                 "cpu_model": cpu_model(), "source": source_id(),
                 "gates": gates})
    print("run-info " + json.dumps(info, sort_keys=True))
    out = {
        "correct": correct,
        "attempted": sum(int(r["attempted"]) for r in results),
        "failed": sum(int(r["failed"]) for r in results),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(out), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
