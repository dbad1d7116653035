#!/bin/sh
# The full CI lane: vet, static analysis (when staticcheck is installed),
# build, plain tests, the race-detector lane, a coverage run emitting
# coverage.out, a short benchmark smoke, and the observability-overhead
# guards (batch-16 micro pair, then the default path and the batched path on
# the bench harness).
# Run from anywhere; it cds to the repo root.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== staticcheck =="
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"
fi

echo "== go build =="
go build ./...
test -z "$(gofmt -l .)" || { echo "gofmt -l lists:"; gofmt -l .; exit 1; }

echo "== go test =="
go test ./...

echo "== go test -race =="
go test -race ./...
# The ring's park/wake protocol, the anchored real clock and obs.Op — whose
# cadence is its owner goroutine's plain words, with only the published count
# atomic — are the places where an interleaving, not an input, is what breaks:
# hammer them.
go test -race -count=20 ./internal/queue ./internal/clock ./internal/obs
# The pause epoch (pop ctx, wake channel) is read with one atomic load and
# written under pauseMu: hammer the tests that race a pause, a resume or a
# cancel against a running stage, and the exact-stats ones that read it.
go test -race -count=20 -run 'Pause|Resume|Cancel|RunLag|StatsExact' ./internal/pipeline

echo "== bench module =="
# bench/ is a Go module of its own (it replaces this one with ..), so the
# ./... patterns above never compile it: an API removal here can break the
# benchmark unseen. Vet it and run its tests (under 10 s).
(cd bench && go vet ./... && go test ./...)

echo "== transport stream lane =="
# The TCP wire is GATES wire format v1 (DESIGN.md §6), hand-encoded: the race
# lane over the package, the payload types and the node binary's in-process
# two-node test; both parsers of peer bytes fuzzed for 10 s each; an
# allocation guard on the codec (encoding into the connection's buffer
# allocates nothing; decoding only what the message keeps — for the []int
# frame the slice and its interface box, for a count-samps summary the struct
# and its entries); a check that gob stays out; and two separately started
# gates-node processes that must agree on the format for a struct-valued
# payload.
go test -race ./internal/transport ./internal/wire ./internal/builtin ./cmd/gates-node
go test -run '^$' -fuzz FuzzStreamDecode -fuzztime 10s ./internal/transport
go test -run '^$' -fuzz FuzzWireValues -fuzztime 10s ./internal/transport
# The same fuzz step for the stage input buffer: both ring kinds against the
# slice FIFO reference model, one op at a time (internal/queue/fuzz_test.go).
go test -run '^$' -fuzz FuzzRingModel -fuzztime 10s ./internal/queue
# (Not "! grep": errexit ignores a negated command.)
if grep -rn '"encoding/gob"' --include='*.go' --exclude-dir=.bench_build .; then
	echo "guard: encoding/gob is imported again; the wire has one codec"; exit 1
fi
stream_raw="$(go test -run '^$' -bench 'BenchmarkStream(Encode|Decode)/(ints|summary)$' \
  -benchmem -benchtime 200ms ./internal/transport)"
echo "$stream_raw"
echo "$stream_raw" | awk '
/^BenchmarkStream(Encode|Decode)/ {
    limit = ($1 ~ /Encode/) ? 0 : 2
    for (i = 2; i <= NF; i++) if ($i == "allocs/op") {
        n++
        if ($(i - 1) + 0 > limit) { printf "guard: %s reports %s allocs/op, limit %d\n", $1, $(i - 1), limit; bad = 1 }
    }
}
END {
    if (n != 4) { print "guard: wire codec benchmarks missing"; exit 1 }
    if (bad) exit 1
    print "guard: wire codec within its allocation budget (encode 0, decode 2)"
}'
stream_tmp="$(mktemp -d)"
go build -o "$stream_tmp/gates-node" ./cmd/gates-node
# two_nodes <downstream stage> <upstream stage> <source> <scale>: what the
# upstream egress took in must be what the downstream stage took in. The
# comp-steer pair sends nil-valued packets, the count-samps pair
# *countsamps.Summary structs.
two_nodes() {
	"$stream_tmp/gates-node" -listen 127.0.0.1:19776 -stage "$1" -scale "$4" \
	  >"$stream_tmp/down.log" &
	stream_pid=$!
	for _i in 1 2 3 4 5 6 7 8 9 10; do
		grep -q '^listening on' "$stream_tmp/down.log" && break
		sleep 0.2
	done
	"$stream_tmp/gates-node" -stage "$2" -source "$3" \
	  -forward 127.0.0.1:19776 -scale "$4" >"$stream_tmp/up.log" \
	  || { kill "$stream_pid" 2>/dev/null; echo "stream lane: upstream node failed"; exit 1; }
	wait "$stream_pid"
	sent="$(sed -n 's/^egress\/0: in=\([0-9]*\) items.*/\1/p' "$stream_tmp/up.log")"
	got="$(sed -n 's/^host\/0: in=\([0-9]*\) items.*/\1/p' "$stream_tmp/down.log")"
	pkts="$(sed -n 's/^ingress\/0: .* out=\([0-9]*\) pkts.*/\1/p' "$stream_tmp/down.log")"
	[ -n "$sent" ] && [ "$sent" = "$got" ] && [ "${pkts:-0}" -gt 0 ] \
	  || { echo "stream lane: $2 sent '$sent' items, $1 took in '$got' in '$pkts' packets"; exit 1; }
	echo "two gates-node processes: $2 -> $1, $sent items in $pkts packets across wire format v1 ok"
}
two_nodes compsteer/analyzer compsteer/sampler compsteer/sim 200
two_nodes countsamps/merge countsamps/summarize workload/zipf 2000
rm -rf "$stream_tmp"

echo "== migration smoke =="
# Live re-deployment lane: the deterministic manual-clock zero-loss
# migration tests under the race detector, then the bandwidth-collapse
# experiment end to end in quick mode.
go test -race -run 'Migration|Migrate|PlanApply|PauseResume|Relink' \
  ./internal/service ./internal/pipeline
go run ./cmd/gates-experiments -exp migration -quick -scale 4000

echo "== endpoint smoke =="
# Observability-plane lane: a real gates-node must answer its probe and
# metrics endpoints, and a real gates-launcher must serve the merged
# /cluster view, over actual HTTP. Fixed high ports keep the lane
# shell-only; the Go tests cover the same surface on ephemeral ports.
if command -v curl >/dev/null 2>&1; then
	smoke_tmp="$(mktemp -d)"
	trap 'rm -rf "$smoke_tmp"' EXIT
	go build -o "$smoke_tmp/gates-node" ./cmd/gates-node
	go build -o "$smoke_tmp/gates-launcher" ./cmd/gates-launcher
	node_obs=127.0.0.1:19771
	launch_obs=127.0.0.1:19772

	"$smoke_tmp/gates-node" -listen 127.0.0.1:19770 -stage compsteer/analyzer \
	  -obs-listen "$node_obs" &
	node_pid=$!
	curl -sf --retry 20 --retry-connrefused --retry-delay 1 \
	  "http://$node_obs/healthz" >/dev/null
	curl -sf --retry 5 --retry-delay 1 "http://$node_obs/readyz" >/dev/null
	curl -sf "http://$node_obs/metrics" | grep -q '^gates_'
	curl -sf "http://$node_obs/events" | grep -q '"events"'
	curl -sf "http://$node_obs/bottlenecks" | grep -q '"summary"'
	# /events replaced four per-store endpoints; they must stay gone.
	for retired in adaptations migrations decisions flightrecorder; do
		code="$(curl -s -o /dev/null -w '%{http_code}' "http://$node_obs/$retired")"
		[ "$code" = "404" ] || { echo "endpoint smoke: /$retired got HTTP $code, want 404"; exit 1; }
	done
	kill "$node_pid" 2>/dev/null || true
	wait "$node_pid" 2>/dev/null || true
	echo "gates-node endpoints ok"

	# SIGQUIT with -flight-dump snapshots the journal and leaves the node
	# serving; without it SIGQUIT is the Go runtime's (stack dump and exit,
	# TestNotifyFlightDumpSIGQUIT in internal/cliconf).
	"$smoke_tmp/gates-node" -listen 127.0.0.1:19775 -stage compsteer/analyzer \
	  -obs-listen "$node_obs" -flight-dump "$smoke_tmp/j.json" 2>/dev/null &
	node_pid=$!
	curl -sf --retry 20 --retry-connrefused --retry-delay 1 \
	  "http://$node_obs/healthz" >/dev/null
	kill -QUIT "$node_pid"
	for _i in 1 2 3 4 5 6 7 8 9 10; do
		[ -s "$smoke_tmp/j.json" ] && break
		sleep 0.2
	done
	if command -v python3 >/dev/null 2>&1; then
		python3 -m json.tool "$smoke_tmp/j.json" >/dev/null \
		  || { echo "endpoint smoke: SIGQUIT dump is not JSON"; exit 1; }
	fi
	grep -q '"kind": "dump"' "$smoke_tmp/j.json" \
	  || { echo "endpoint smoke: SIGQUIT dump has no dump event"; exit 1; }
	curl -sf "http://$node_obs/healthz" >/dev/null \
	  || { echo "endpoint smoke: gates-node stopped serving after SIGQUIT"; exit 1; }
	kill "$node_pid" 2>/dev/null || true
	wait "$node_pid" 2>/dev/null || true
	echo "gates-node SIGQUIT journal dump ok"

	smoke_xml='<application name="smoke">
	  <stage id="sim" code="compsteer/sim" source="true"/>
	  <stage id="sampler" code="compsteer/sampler"/>
	  <stage id="analysis" code="compsteer/analyzer"/>
	  <connection from="sim" to="sampler"/>
	  <connection from="sampler" to="analysis"/>
	</application>'
	# ~350 virtual seconds at 40x gives several wall seconds to poll /cluster
	# and take three 1 s CPU profiles while the run is live.
	"$smoke_tmp/gates-launcher" -config "$smoke_xml" -scale 40 \
	  -obs-listen "$launch_obs" -slo-p99 1h >/dev/null &
	launch_pid=$!
	curl -sf --retry 20 --retry-connrefused --retry-delay 1 \
	  "http://$launch_obs/healthz" >/dev/null
	cluster_doc="$(curl -sf "http://$launch_obs/cluster")"
	echo "$cluster_doc" | grep -q '"slo"'
	if echo "$cluster_doc" | grep -Eq '"(trends|timeseries)"'; then
		echo "endpoint smoke: /cluster carries trends or timeseries"; exit 1
	fi
	ts_code="$(curl -s -o /dev/null -w '%{http_code}' "http://$launch_obs/timeseries")"
	[ "$ts_code" = "404" ] || { echo "endpoint smoke: /timeseries got HTTP $ts_code, want 404"; exit 1; }
	curl -sf "http://$launch_obs/events" | grep -q '"events"'
	curl -sf "http://$launch_obs/bottlenecks" | grep -q '"summary"'
	# Every stage and control loop runs under a pprof "stage" label, which is
	# what attributes CPU per stage in a profile (go tool pprof -tagfocus).
	curl -sf "http://$launch_obs/debug/pprof/goroutine?debug=1" | grep -q '"stage":' \
	  || { echo "endpoint smoke: no pprof stage labels on goroutines"; exit 1; }
	# Nothing inside the process holds the CPU profiler, so back-to-back
	# operator profiles all succeed.
	for _i in 1 2 3; do
		curl -sf -o /dev/null "http://$launch_obs/debug/pprof/profile?seconds=1" \
		  || { echo "endpoint smoke: CPU profile $_i refused"; exit 1; }
	done
	wait "$launch_pid"
	echo "gates-launcher /cluster + pprof stage labels + 3 CPU profiles ok"
else
	echo "curl not installed; skipping endpoint smoke"
fi

echo "== policy lane =="
# Policy control-plane lane. Over real HTTP: GET the active document,
# hot-reload a tightened one via POST, reject an invalid one (400, active
# version rolls back to the survivor), and read the journal's policy events;
# then a launcher run driven by a policy file must journal placement and SLO
# decisions citing it. Finally the hot-reload experiment proves a mid-run
# reload visibly changes placement, with the journal naming the version that
# fired.
if command -v curl >/dev/null 2>&1; then
	pol_obs=127.0.0.1:19773
	"$smoke_tmp/gates-node" -listen 127.0.0.1:19774 -stage compsteer/analyzer \
	  -obs-listen "$pol_obs" &
	pol_pid=$!
	curl -sf --retry 20 --retry-connrefused --retry-delay 1 \
	  "http://$pol_obs/healthz" >/dev/null
	curl -sf "http://$pol_obs/policy" | grep -q '"version": "default"'
	curl -sf -X POST -d '{"version":"ci-v2","rebalance":{"threshold":3}}' \
	  "http://$pol_obs/policy" | grep -q '"version": "ci-v2"'
	bad_code="$(curl -s -o /dev/null -w '%{http_code}' -X POST \
	  -d '{"rebalance":{"threshold":-1}}' "http://$pol_obs/policy")"
	[ "$bad_code" = "400" ] || { echo "policy guard: invalid reload got HTTP $bad_code, want 400"; exit 1; }
	curl -sf "http://$pol_obs/policy" | grep -q '"version": "ci-v2"'
	curl -sf "http://$pol_obs/events?kind=policy" | grep -q '"policy_version": "ci-v2"'
	kill "$pol_pid" 2>/dev/null || true
	wait "$pol_pid" 2>/dev/null || true
	echo "gates-node /policy hot-reload + rollback + /events?kind=policy ok"

	cat > "$smoke_tmp/policy.json" <<-'EOF'
	{"version": "ci-file", "placement": {"topology_aware": true}, "slo": {"target_p99": "1h"}}
	EOF
	"$smoke_tmp/gates-launcher" -config "$smoke_xml" -scale 100 \
	  -obs-listen "$pol_obs" -policy "$smoke_tmp/policy.json" >/dev/null &
	pol_launch_pid=$!
	curl -sf --retry 20 --retry-connrefused --retry-delay 1 \
	  "http://$pol_obs/healthz" >/dev/null
	curl -sf "http://$pol_obs/policy" | grep -q '"version": "ci-file"'
	# The endpoint binds before Launch plans, so give placement decisions a
	# moment to land.
	for _i in 1 2 3 4 5 6 7 8 9 10; do
		curl -sf "http://$pol_obs/events?kind=placement" | grep -q '"policy_version": "ci-file"' && break
		sleep 0.2
	done
	curl -sf "http://$pol_obs/events?kind=placement" | grep -q '"policy_version": "ci-file"'
	curl -sf "http://$pol_obs/cluster" >/dev/null  # a collect evaluates the SLO under ci-file
	curl -sf "http://$pol_obs/events?kind=slo" | grep -q '"policy_version": "ci-file"'
	curl -sf "http://$pol_obs/events?kind=policy" | grep -q '"policy_version": "ci-file"'
	wait "$pol_launch_pid"
	echo "gates-launcher policy-driven journal events ok"
else
	echo "curl not installed; skipping policy endpoint smoke"
fi
go run ./cmd/gates-experiments -exp policy -quick -scale 4000 | tee /dev/stderr \
  | grep -q 'policy-hotreload: placement changed src-1 -> helper under v2'

echo "== bottleneck attribution smoke =="
# A pipeline with one deliberately slow stage; the backpressure attribution
# engine must name it.
go run ./cmd/gates-experiments -exp constriction -quick | tee /dev/stderr \
  | grep -q 'bottleneck: constrict'

echo "== chaos lane =="
# Fault-tolerance lane: the deterministic manual-clock kill/recover tests
# and the concurrent fault-injection hammer under the race detector, then
# the kill-at-t experiment end to end — the node hosting a summarizer dies
# mid-stream and the recovery controller must detect, re-place, restore the
# checkpointed sketch, and replay the black-holed interval. The verdict
# line asserts exactly one recovery, a state restore, no ring-retention
# gap, full sink sequence coverage, and accuracy within 0.1 of the
# fault-free run.
go test -race \
  -run 'TestChaos|TestHealthMonitor|TestFault|TestReplay|TestDropDup|TestEmitLoss|TestEmitReorder|TestNetworkKill|TestNetworkPartition' \
  ./internal/service ./internal/pipeline ./internal/netsim
chaos_out="$(go run ./cmd/gates-experiments -exp chaos -quick | tee /dev/stderr)"
echo "$chaos_out" | grep -q 'chaos-verdict: recoveries=1 restored=true gap=false coverage=1.000'
echo "$chaos_out" | grep -q 'accuracy_ok=true'

echo "== coverage =="
go test -coverprofile=coverage.out -covermode=atomic ./...
go tool cover -func=coverage.out | tail -1

echo "== short benchmarks =="
go test -run '^$' -bench 'BenchmarkPipelineThroughput$|BenchmarkBatchSizeSweep' \
  -benchtime 100ms .

echo "== zero-alloc guard =="
# The pooled hot path must stay allocation-free: the steady state of
# BenchmarkPipelineThroughput and every BenchmarkBatchSizeSweep size runs
# entirely on recycled packets and ring slots, so any allocs/op above zero
# means a pooling regression (a new per-packet allocation or a packet
# escaping its recycle point). Benchtime is long enough that per-run setup
# (engine construction inside the timed region) amortizes to zero.
alloc_raw="$(go test -run '^$' -bench 'BenchmarkPipelineThroughput$|BenchmarkBatchSizeSweep' \
  -benchmem -benchtime 500ms .)"
echo "$alloc_raw"
echo "$alloc_raw" | awk '
/^Benchmark/ {
    for (i = 2; i <= NF; i++) if ($i == "allocs/op") {
        n++
        if ($(i - 1) + 0 > 0) { printf "guard: %s reports %s allocs/op\n", $1, $(i - 1); bad = 1 }
    }
}
END {
    if (n == 0) { print "guard: no allocs/op columns found"; exit 1 }
    if (bad) { print "guard: hot path must be allocation-free"; exit 1 }
    printf "guard: %d hot-path benchmarks at 0 allocs/op\n", n
}'

echo "== observability overhead guard =="
# The observed hot path must stay close to the untraced one:
# BenchmarkPipelineThroughputObserved runs the identical batch=16 pipeline
# with the full observability bundle attached (metrics callbacks
# registered, tracer at its default 1-in-64 sampling, per-packet e2e/hop
# latency histograms recording through the batch-flushed scratches).
# Observability's absolute cost was ~16 ns/packet — almost all of it the
# per-packet latency bucketing, see DESIGN.md §9; the sub-octave bucketing
# LUT (8 cells per binary octave, so the trailing scan is at most one
# step on the latency layout) cut it to ~12 ns, which is why the bound
# below is 1.35 rather than the 1.50 it started at. Any real stage work
# dilutes the relative cost further; a regression that breaks the bound is
# a real one (a leaked always-on span, bucketing gone per-item instead of
# batch-flushed). The estimate pairs the i-th run of each series and takes
# the minimum *paired* ratio: box load drifts on a seconds scale, so
# independent minima can pick a quiet-window base against a loaded-window
# observed run and inflate the ratio; a paired quiet window cancels out.
# -cpu 1 like the harness: on a second P the stage goroutines' cross-core
# hand-off swings both series by more than the tax being bounded.
# Re-measured at PR 24, three sets of five pairs a side, alternating: the best
# pair read 1.16, 1.04 and 1.12 (1.39, 1.04 and 1.30 at its parent), with
# single runs of either series anywhere in 58-94 and 46-67 ns — a spread that
# supports neither best-pair + 0.05 nor any tighter number, so 1.35 stays.
guard_raw="$(go test -run '^$' \
  -bench 'BenchmarkBatchSizeSweep/batch=16$|BenchmarkPipelineThroughputObserved' \
  -benchtime 500ms -count 5 -cpu 1 .)"
echo "$guard_raw"
echo "$guard_raw" | awk '
/^BenchmarkBatchSizeSweep/             { base[nbase++] = $3 }
/^BenchmarkPipelineThroughputObserved/ { obs[nobs++] = $3 }
END {
    if (nbase == 0 || nobs == 0) { print "guard: benchmarks missing"; exit 1 }
    for (i = 0; i < nbase && i < nobs; i++) {
        r = obs[i] / base[i]
        if (!n || r < ratio) { ratio = r; base_at = base[i]; obs_at = obs[i] }
        n++
    }
    printf "guard: untraced %.1f ns/op, observed %.1f ns/op, ratio %.3f (best of %d paired runs)\n", base_at, obs_at, ratio, n
    if (ratio > 1.35) { print "guard: observability overhead above 35% bound"; exit 1 }
}'

echo "== default-path overhead guard =="
# The guard above pairs the batch-16 micro-benchmarks; what gates-node,
# gates-launcher and every experiment run is the per-packet path at BatchSize
# 1. So run the benchmark harness's traced inproc-defaults workload for 5 s
# and hold its own readings: a hop at most 135 ns, of which observability —
# hop_ns x (1 - 1/obs.tax_ratio), the nanoseconds obs-on costs over obs-off —
# at most 30, and the pooled path still at its ~0.08 allocations per packet.
# The tax is bounded in nanoseconds, not as the bare ratio: a change that
# makes the unobserved hop cheaper raises the ratio without costing anything
# (DESIGN.md §6). Twelve traced 15 s readings at PR 24: hop 114-130 ten
# times and 140, 147; tax 21-28 eight times and 48, 6, -7, -19 (its parent the
# same two hours: hop 129-155 and 175, 179; tax 34-66 and 12, 76). hop_ns and
# each side of the ratio come from one 1 s trial, and on a shared box a slow
# episode outlasts that (bench/README.md, "The quiet side") — when it lands
# on the obs-off trial the tax reads near or below zero. A neighbour only ever
# makes a run slower, so the lane takes the first of up to three measurements
# that is inside the bounds (four in a row here: 170/32 out, then 113/17,
# 117/22, 119/24).
default_path_guard() {
	# (errexit is off inside a function called on the left of ||.)
	bash bench/run.sh --workload inproc-defaults --seed 7 --seconds 5 --trace 1 >/dev/null || return 1
	awk '
	/"obs.tax_ratio"/           { want = "tax"; next }
	/"pipeline.hop_ns"/         { want = "hop"; next }
	/"pipeline.allocs_per_pkt"/ { want = "allocs"; next }
	want != "" && /"value"/     { gsub(/[^0-9.eE+-]/, "", $2); v[want] = $2 + 0; seen[want] = 1; want = "" }
	END {
	    if (!seen["tax"] || !seen["hop"] || !seen["allocs"] || v["tax"] <= 0) { print "guard: layer readings missing"; exit 1 }
	    tax_ns = v["hop"] * (1 - 1 / v["tax"])
	    printf "guard: inproc-defaults pipeline.hop_ns %.1f (bound 135), of it observability %.1f ns (obs.tax_ratio %.3f; bound 30), pipeline.allocs_per_pkt %.3f (bound 0.1)\n", v["hop"], tax_ns, v["tax"], v["allocs"]
	    if (v["hop"] > 135) { print "guard: default hop above 135 ns"; bad = 1 }
	    if (tax_ns > 30) { print "guard: default-path observability tax above 30 ns per hop"; bad = 1 }
	    if (v["allocs"] > 0.1) { print "guard: default path allocates per packet"; bad = 1 }
	    exit bad
	}' bench/out/layers-inproc-defaults.json
}
default_path_guard || default_path_guard || default_path_guard

echo "== batch-path guard =="
# The same for the batched hop, which inproc-chain, tcp-sat and every
# SetDefaultBatchSize user run: traced inproc-chain (src → relay → relay →
# sink at batch 16, no obs, no link) for 5 s, first of up to three readings
# inside the bounds. A hop at most 38 ns — the largest of six readings on PR
# 25's final build plus 10 %: 31.9, 32.9, 32.2, 33.5, 34.5, 34.3 — and no
# allocation per packet. "None" is < 0.001: those six read 1.5-2.0e-6, the
# runtime's own dozen or so allocations in a trial of ~10 M packets, not one
# per packet (the parent reads the same). What a batched hop pays per batch is
# one s.mu publish, one pop and one push, each reading its ctx without a lock
# (DESIGN.md §6, §10).
batch_path_guard() {
	bash bench/run.sh --workload inproc-chain --seed 7 --seconds 5 --trace 1 >/dev/null || return 1
	awk '
	/"pipeline.hop_ns"/         { want = "hop"; next }
	/"pipeline.allocs_per_pkt"/ { want = "allocs"; next }
	want != "" && /"value"/     { gsub(/[^0-9.eE+-]/, "", $2); v[want] = $2 + 0; seen[want] = 1; want = "" }
	END {
	    if (!seen["hop"] || !seen["allocs"]) { print "guard: layer readings missing"; exit 1 }
	    printf "guard: inproc-chain pipeline.hop_ns %.1f (bound 38), pipeline.allocs_per_pkt %.2g (bound 0.001)\n", v["hop"], v["allocs"]
	    if (v["hop"] > 38) { print "guard: batched hop above 38 ns"; bad = 1 }
	    if (v["allocs"] >= 0.001) { print "guard: batched path allocates per packet"; bad = 1 }
	    exit bad
	}' bench/out/layers-inproc-chain.json
}
batch_path_guard || batch_path_guard || batch_path_guard

echo "CI lane green"
