# Tier-1 verification plus the race lane and benchmark artifacts.

GO ?= go

.PHONY: all vet build test race ci bench bench-json experiments clean

all: ci

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full CI lane: vet + staticcheck (if installed) + build + test + race
# + coverage.out + short benches + the observability-overhead guard.
ci:
	sh scripts/ci.sh

# Interactive benchmark run of the hot paths.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkPipelineThroughput|BenchmarkBatchSizeSweep' -benchmem .

# Regenerates the committed BENCH_pipeline.json artifact.
bench-json:
	sh scripts/bench.sh

# Regenerates every paper figure (quick mode).
experiments:
	$(GO) run ./cmd/gates-experiments -exp all -quick

clean:
	$(GO) clean ./...
