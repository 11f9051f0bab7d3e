#!/usr/bin/env bash
# bench.sh — run the headline query benchmarks and write the results as
# machine-readable JSON to BENCH_results.json, so the performance
# trajectory across PRs is a diffable artifact instead of folklore.
#
# Usage: scripts/bench.sh [benchtime]   (default 2s; 1x for a smoke run)
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${1:-2s}"
out=BENCH_results.json
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run=NONE \
  -bench 'BenchmarkSingleSearch$|BenchmarkParallelSearch$|BenchmarkParallelSearchContended$|BenchmarkPerCallOptions$|BenchmarkE2aContextualSearch$|BenchmarkE2bPersonalize$|BenchmarkE2cTimeContext$|BenchmarkE2dLineage$|BenchmarkIngest$|BenchmarkIngestHTTP$|BenchmarkIngestParallelReaders$|BenchmarkApplyAcrossReseal$|BenchmarkColdOpen$|BenchmarkScrubOverhead$' \
  -benchmem -benchtime "$benchtime" . | tee "$tmp"

# Scheduler sweep: the concurrent-search benchmark again at pinned
# GOMAXPROCS, so scaling (and the serial floor) is part of the artifact.
# Their rows keep an @cpuN suffix below.
go test -run=NONE \
  -bench 'BenchmarkParallelSearch$' \
  -cpu 1,4 -benchmem -benchtime "$benchtime" . | tee -a "$tmp"

# Multi-tenant sweep: 10k small tenant stores behind a 128-store cap,
# zipf-skewed mixed traffic, plus the cross-shard contended pair.
# Override the scale via SHARD_SWEEP_TENANTS / SHARD_SWEEP_CAP (CI runs
# it at 100 tenants).
SHARD_SWEEP_TENANTS="${SHARD_SWEEP_TENANTS:-10000}" \
SHARD_SWEEP_CAP="${SHARD_SWEEP_CAP:-128}" \
go test -run=NONE \
  -bench 'BenchmarkTenantSweep$|BenchmarkParallelSearchSharded$|BenchmarkParallelSearchContendedSharded$' \
  -benchmem -benchtime "$benchtime" . | tee -a "$tmp"

# Replication sweep: steady-state follower lag under paced leader
# ingest over loopback HTTP WAL-shipping (the p50/p99 lag metrics are
# the point; ns/op is pacing-dominated by construction).
go test -run=NONE \
  -bench 'BenchmarkReplicationLag$' \
  -benchmem -benchtime "$benchtime" . | tee -a "$tmp"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v benchtime="$benchtime" \
    -v nproc="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)" \
    -v gomaxprocs="${GOMAXPROCS:-$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)}" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
  name = $1; sub(/^Benchmark/, "", name)
  procs = "1" # go omits the -N suffix entirely at GOMAXPROCS=1
  if (match(name, /-[0-9]+$/)) { procs = substr(name, RSTART + 1); name = substr(name, 1, RSTART - 1) }
  # First sighting of a benchmark keeps the bare name (the default-
  # GOMAXPROCS run); repeats from the -cpu sweep are suffixed so the
  # JSON object never holds duplicate keys.
  key = name
  if (key in seen) key = name "@cpu" procs
  seen[key] = 1
  ns = ""; bytes = ""; allocs = ""; extra = ""
  for (i = 2; i <= NF; i++) {
    if ($(i+1) == "ns/op") ns = $i
    if ($(i+1) == "B/op") bytes = $i
    if ($(i+1) == "allocs/op") allocs = $i
    if ($(i+1) == "p99_apply_ns") extra = extra sprintf(", \"p99_apply_ns\": %s", $i)
    if ($(i+1) == "max_apply_ns") extra = extra sprintf(", \"max_apply_ns\": %s", $i)
    if ($(i+1) == "ingested_events/sec") extra = extra sprintf(", \"ingested_events_per_sec\": %s", $i)
    if ($(i+1) == "p99_post_ns") extra = extra sprintf(", \"p99_post_ns\": %s", $i)
    if ($(i+1) == "p50_query_ns") extra = extra sprintf(", \"p50_query_ns\": %s", $i)
    if ($(i+1) == "p99_query_ns") extra = extra sprintf(", \"p99_query_ns\": %s", $i)
    if ($(i+1) == "sweeps") extra = extra sprintf(", \"scrub_sweeps\": %s", $i)
    if ($(i+1) == "reopens") extra = extra sprintf(", \"reopens\": %s", $i)
    if ($(i+1) == "mapped_bytes") extra = extra sprintf(", \"mapped_bytes\": %s", $i)
    if ($(i+1) == "open_tenants") extra = extra sprintf(", \"open_tenants\": %s", $i)
    if ($(i+1) == "p50_lag_ns") extra = extra sprintf(", \"p50_lag_ns\": %s", $i)
    if ($(i+1) == "p99_lag_ns") extra = extra sprintf(", \"p99_lag_ns\": %s", $i)
    if ($(i+1) == "bytes_replicated") extra = extra sprintf(", \"bytes_replicated\": %s", $i)
  }
  if (ns != "") {
    rows[++n] = sprintf("    \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s%s}",
                        key, ns, bytes == "" ? "null" : bytes, allocs == "" ? "null" : allocs, extra)
  }
}
END {
  printf "{\n  \"date\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"cpu\": \"%s\",\n", date, benchtime, cpu
  printf "  \"nproc\": %s,\n  \"gomaxprocs\": %s,\n  \"mmap_default\": true,\n  \"benchmarks\": {\n", nproc, gomaxprocs
  for (i = 1; i <= n; i++) printf "%s%s\n", rows[i], i < n ? "," : ""
  printf "  }\n}\n"
}' "$tmp" > "$out"

echo "wrote $out"
