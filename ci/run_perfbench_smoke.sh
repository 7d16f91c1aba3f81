#!/bin/sh
# Pipeline-benchmark smoke test: build perfbench/ and run every workload
# briefly (2 s, untraced), plus one traced log_percpu run. Each run's last
# stdout line is its JSON result; the stage fails unless every result says
# "correct": true with zero failed operations. No figure is gated here —
# the numbers belong to the benchmark itself (BENCHMARK.json).
# Usage: ci/run_perfbench_smoke.sh [build-dir-prefix]
# The benchmark builds into <prefix>-perfbench (default: build-perfbench).
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
prefix="${1:-$repo/build}"
CARGO_TARGET_DIR="$prefix-perfbench"
export CARGO_TARGET_DIR

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

run() {
  workload="$1"
  trace="$2"
  out="$workdir/$workload-trace$trace.out"
  python3 "$repo/perfbench/run.py" --workload "$workload" --seed 1 \
      --seconds 2 --trace "$trace" > "$out"
  tail -n 1 "$out" | python3 -c '
import json, sys
name = sys.argv[1]
result = json.loads(sys.stdin.read())
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit("perfbench smoke: %s: correct=%s failed=%s"
             % (name, result.get("correct"), result.get("failed")))
print("perfbench smoke: %s correct, 0 failed of %d"
      % (name, result.get("attempted", 0)))
' "$workload --trace $trace"
}

for workload in log_percpu collect ingest replay; do
  run "$workload" 0
done
run log_percpu 1

echo "perfbench smoke: all runs correct"
