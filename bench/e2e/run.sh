#!/usr/bin/env bash
# Runs the end-to-end benchmark through run.py, which runs each workload in
# its own process with every REJECTO_* variable removed.
#
#   bash bench/e2e/run.sh [--workload NAME|all] [--seed N] [--runs R]
#                         [--trace] [--out DIR]
#
# Run r of a workload uses seed N + r (N defaults to 42; R to 10, the runs
# per side compare.py pairs by seed). --trace runs each workload once
# (unless --runs is given) with spans recorded, and prints the per-layer
# metrics, each layer's self time and the tracing overhead.
# Run records are saved under DIR (default
# .bench_build/e2e-results/<time>); compare two such directories with
# compare.py.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"

workload=all
seed=42
runs=""
trace=0
out="$root/.bench_build/e2e-results/$(date +%Y%m%d-%H%M%S)"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --runs) runs="$2"; shift 2 ;;
    --trace) trace=1; shift ;;
    --out) out="$2"; shift 2 ;;
    *) echo "run.sh: unknown option $1" >&2; exit 2 ;;
  esac
done
runs="${runs:-$([[ $trace == 1 ]] && echo 1 || echo 10)}"

if [[ $workload == all ]]; then
  workloads=$(python3 -c '
import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))
' "$root/BENCHMARK.json")
else
  workloads="$workload"
fi

cd "$root"
status=0
for w in $workloads; do
  for ((r = 0; r < runs; r++)); do
    s=$((seed + r))
    echo "== $w seed $s trace $trace"
    python3 "$here/run.py" --workload "$w" --seed "$s" --trace "$trace" \
      --save "$out" || status=1
  done
done
echo "run records: $out"
exit "$status"
