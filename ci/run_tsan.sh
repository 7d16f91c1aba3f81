#!/bin/sh
# Builds with ThreadSanitizer and runs the concurrency-labelled tests —
# the parallel trace decode and the LiveAnalyzer's snapshot-vs-ingest
# locking must be data-race-free, not just deterministic by luck. Usage: ci/run_tsan.sh [build-dir]
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-tsan}"

cmake -B "$build" -S "$repo" -DKTRACE_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build" -j "$(nproc)" --target \
      analysis_parallel_decode_test core_concurrent_test util_test \
      core_monitor_test analysis_completeness_test core_consumer_test \
      core_consumer_shard_test core_batching_sink_test \
      core_shm_crash_test core_shm_session_test \
      daemon_test daemon_crash_test trace_format_v3_test \
      replay_test daemon_storage_test analysis_streaming_test
cd "$build"
ctest -L concurrent --output-on-failure
