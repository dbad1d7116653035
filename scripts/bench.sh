#!/bin/sh
# Runs the pipeline hot-path benchmarks and emits BENCH_pipeline.json:
# one record per benchmark with name, ns/op, B/op, and allocs/op. Also
# regenerates BENCH_latency.json via `gates-experiments -exp latency`.
#
# When an output file already exists, each record also carries the
# previous run's numbers (prev_ns_per_op / prev_allocs_per_op in
# BENCH_pipeline.json, prevNsPerItem / prevP99S in BENCH_latency.json), so
# the committed artifacts show the before/after trajectory of the last
# regeneration instead of silently overwriting it.
#
# Usage: scripts/bench.sh [output.json]
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_pipeline.json}"
raw="$(mktemp)"
prev="$(mktemp)"
trap 'rm -f "$raw" "$prev"' EXIT

# Harvest the previous numbers (name, ns/op, allocs/op) from an existing
# artifact. The record format is one object per line; the quoted field
# names cannot collide with their prev_ variants.
if [ -f "$out" ]; then
	sed -n 's/.*"name": "\([^"]*\)".*"ns_per_op": \([0-9.]*\).*"allocs_per_op": \([0-9]*\).*/\1 \2 \3/p' \
		"$out" > "$prev"
fi

go test -run '^$' \
  -bench 'BenchmarkPipelineThroughput|BenchmarkBatchSizeSweep|BenchmarkLinkTransfer' \
  -benchmem -benchtime 1s . | tee "$raw"

awk -v prevfile="$prev" '
BEGIN {
    while ((getline line < prevfile) > 0) {
        split(line, f, " ")
        prevns[f[1]] = f[2]
        prevallocs[f[1]] = f[3]
    }
    close(prevfile)
    print "["
    first = 1
}
/^Benchmark/ {
    name = $1
    nsop = ""; bop = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     nsop = $(i - 1)
        if ($i == "B/op")      bop = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (nsop == "") next
    if (!first) printf ",\n"
    first = 0
    printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", \
        name, nsop, (bop == "" ? "null" : bop), (allocs == "" ? "null" : allocs)
    if (name in prevns)
        printf ", \"prev_ns_per_op\": %s, \"prev_allocs_per_op\": %s", prevns[name], prevallocs[name]
    printf "}"
}
END { print "\n]" }
' "$raw" > "$out"

echo "wrote $out"

# Regenerate BENCH_latency.json; the experiment merges the existing
# artifact's numbers into prevNsPerItem/prevP99S before overwriting.
go run ./cmd/gates-experiments -exp latency
