# Tier-1 verification plus the race lane; bench/ holds the benchmark.

GO ?= go

.PHONY: all vet build test race ci experiments clean

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

# Regenerates every paper figure (quick mode).
experiments:
	$(GO) run ./cmd/gates-experiments -exp all -quick

clean:
	$(GO) clean ./...
