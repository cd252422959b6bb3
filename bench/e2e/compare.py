#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark runs.

    python3 bench/e2e/compare.py BASE_DIR NEW_DIR

Each directory holds run records (`<workload>_s<seed>.json`, as
`run.py --save` or `run.sh --out` write them); traced records are ignored,
and every run must have the same run length. For every end-to-end metric
of BENCHMARK.json on every workload, and every detail metric in DETAIL on
its workload, it prints each side's median, quartiles and run count, the
change of NEW's median from BASE's, and a verdict, using the metric's
direction and bound:

  regressed   NEW's median is worse than BASE's by more than the bound.
  improved    NEW wins at least 9 of every 10 pairs (runs paired by seed,
              ties count for neither) and the medians differ by more than
              BASE's own spread (the distance between its quartiles); or
              every NEW run is better than every BASE run.
  unresolved  BASE's spread, as a share of its median, is wider than the
              bound, so "unchanged" cannot be claimed.
  unchanged   none of the above.

It also compares each workload's fail_frac, failed / attempted over all its
runs. The exit code is 1 when any pairing regressed or fail_frac rose by
more than FAIL_BOUND, else 0.
"""
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# How far fail_frac may rise, in absolute terms, before compare.py fails.
FAIL_BOUND = 0.001
# Workload-specific metrics of the run records (kind "detail") compared like
# the end-to-end ones. BENCHMARK.json's metrics must exist on every workload,
# so these admit_live numbers, which have no counterpart among them, carry
# their direction and bound here.
DETAIL = {
    "admit_live": [
        {"name": "fresh_p50_s", "better": "lower", "bound": 0.10},
        {"name": "fresh_p99_s", "better": "lower", "bound": 0.15},
        {"name": "fake_block_frac", "better": "higher", "bound": 0.01},
        {"name": "legit_admit_frac", "better": "higher", "bound": 0.005},
    ],
}


def load(directory, seconds):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".spans.json"):
            continue
        with open(path) as f:
            rec = json.load(f)
        if rec.get("bench") != "e2e" or rec["provenance"]["trace"]:
            continue
        runs.setdefault(rec["workload"], []).append(rec)
        seconds.add(rec["provenance"]["seconds"])
    for recs in runs.values():
        recs.sort(key=lambda r: r["provenance"]["seed"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base, new):
    """Pairs runs by seed where both sides ran it, else by seed order."""
    by_seed = {r["provenance"]["seed"]: r for r in base}
    matched = [(by_seed[r["provenance"]["seed"]], r) for r in new
               if r["provenance"]["seed"] in by_seed]
    return matched if matched else list(zip(base, new))


def verdict(metric, base_runs, new_runs):
    name = metric["name"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    base = [r["metrics"][name]["value"] for r in base_runs]
    new = [r["metrics"][name]["value"] for r in new_runs]
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    # Positive = NEW is worse, as a share of BASE's median.
    worse = sign * (nmed - bmed) / abs(bmed)
    spread = (bq3 - bq1) / abs(bmed)
    ps = [(b["metrics"][name]["value"], n["metrics"][name]["value"])
          for b, n in pairs(base_runs, new_runs)]
    wins = sum(1 for b, n in ps if sign * (n - b) < 0)
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if worse > metric["bound"]:
        v = "regressed"
    elif all_better or (worse < 0 and wins >= 0.9 * len(ps)
                        and abs(nmed - bmed) > bq3 - bq1):
        v = "improved"
    elif spread > metric["bound"]:
        v = "unresolved"
    else:
        v = "unchanged"
    row = (f"{name:18s} {bmed:12.6g} [{bq1:.6g}, {bq3:.6g}] n={len(base):<3d}"
           f" {nmed:12.6g} [{nq1:.6g}, {nq3:.6g}] n={len(new):<3d}"
           f" {100 * (nmed - bmed) / abs(bmed):+7.2f}%  {v}")
    return v, row


def fail_frac(runs):
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = set()
    base, new = load(sys.argv[1], seconds), load(sys.argv[2], seconds)
    if len(seconds) > 1:
        print(f"runs of different lengths: {sorted(seconds)} s")
        return 2
    bad = False
    for w in (w["name"] for w in bench["workloads"]):
        if w not in base or w not in new:
            print(f"{w}: missing from {'BASE' if w not in base else 'NEW'}")
            continue
        print(f"== {w}: metric, BASE median [q1, q3] n, "
              "NEW median [q1, q3] n, change, verdict")
        for metric in bench["end_to_end"] + DETAIL.get(w, []):
            v, row = verdict(metric, base[w], new[w])
            print("   " + row)
            bad |= v == "regressed"
        bf, nf = fail_frac(base[w]), fail_frac(new[w])
        rose = nf - bf > FAIL_BOUND
        print(f"   {'fail_frac':18s} {bf:12.6g} -> {nf:.6g}  "
              f"{'ROSE' if rose else 'ok'}")
        bad |= rose
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
