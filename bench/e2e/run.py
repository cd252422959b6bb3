#!/usr/bin/env python3
"""Builds the end-to-end benchmark and runs one workload.

    python3 bench/e2e/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1] [--save DIR] [--readers N]

The timed phase always lasts BENCHMARK.json's run_seconds, so that every
run compares with every other; --seconds, if given, must equal it.

Run from the root of a checkout. The binary is built from source with CMake
into $CARGO_TARGET_DIR/e2e (default .bench_build/e2e), then runs the
workload in its own process with every REJECTO_* variable removed from its
environment. Its `name value unit` lines are passed through; the last line
printed is one JSON object:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

holding the end_to_end metrics of BENCHMARK.json (--trace 0) or its
per_layer metrics (--trace 1). A failed correctness gate, a failed build or
a missing metric exits non-zero without that line. --save copies the run
record (and, when traced, the spans) into DIR. --readers changes
admit_live's reader threads (default 2) for one-off scaling measurements.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("REJECTO_")}


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "e2e")


def build(bdir):
    env = clean_env()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", bdir, "--target", "e2e_bench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0


def git_sha():
    # Only this checkout's own repository: git would otherwise search the
    # directories above it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", default=None)
    ap.add_argument("--readers", type=int, default=2)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    seconds = bench["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        log(f"--seconds must be run_seconds ({seconds}), not {args.seconds}")
        return 2
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    bdir = build_dir()
    if not build(bdir):
        log("build failed")
        return 1

    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    rdir = os.path.join(os.path.dirname(bdir), "e2e-runs", tag)
    os.makedirs(rdir, exist_ok=True)
    record = os.path.join(rdir, "run.json")
    spans = os.path.join(rdir, "spans.json")
    tmp = os.path.join(rdir, "tmp")
    cmd = [os.path.join(bdir, "e2e_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace), "--out", record, "--trace-out", spans,
           "--tmp", tmp, "--git-sha", git_sha(),
           "--readers", str(args.readers)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=clean_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} timed out after {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        log(f"{args.workload} exited with {proc.returncode}")
        return 1

    with open(record) as f:
        run = json.load(f)
    metrics = {}
    for m in wanted:
        got = run["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} [{m['unit']}] missing from the run")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if args.save:
        os.makedirs(args.save, exist_ok=True)
        name = f"{args.workload}_s{args.seed}" + ("_trace" if args.trace else "")
        if args.readers != 2:
            name += f"_r{args.readers}"
        shutil.copy(record, os.path.join(args.save, name + ".json"))
        if args.trace:
            shutil.copy(spans, os.path.join(args.save, name + ".spans.json"))
    result = {"correct": True, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
