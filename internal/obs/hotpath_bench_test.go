package obs

import (
	"testing"

	"github.com/gates-middleware/gates/internal/clock"
)

// The two obs calls an observed stage makes per consumed packet, measured
// without the pipeline around them. Run with -cpu 1 like the harness:
//
//	go test -run '^$' -bench 'OpStartUnsampled|ScratchObserveNS' -cpu 1 ./internal/obs

// BenchmarkOpStartUnsampled is a span site between samples: the period is
// longer than b.N can reach, so after the first span every iteration is
// unsampled. It runs what a per-packet site runs — Due inline, Begin and the
// Span in a function only the sampled iteration calls.
func BenchmarkOpStartUnsampled(b *testing.B) {
	op := NewTracer(clock.NewManual(), 1<<40, 1).Op("bench")
	if op.Due() {
		benchSampled(op)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if op.Due() {
			benchSampled(op)
		}
	}
}

//go:noinline
func benchSampled(op *Op) {
	sp := op.Begin()
	sp.End()
}

// BenchmarkScratchObserveNS buckets into the latency layout: same-bucket is
// the steady run (every duration lands where the previous one did), alternating
// moves between two buckets a decade apart on every call, so each one pays the
// full lookup.
func BenchmarkScratchObserveNS(b *testing.B) {
	for _, bc := range []struct {
		name string
		ns   [2]int64
	}{
		{"same-bucket", [2]int64{25000, 25100}},
		{"alternating", [2]int64{25000, 250000}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			scr := newHistogram(LatencyBuckets).Scratch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scr.ObserveNS(bc.ns[i&1])
				if i&1023 == 1023 {
					scr.Flush() // as a stage does per run; keeps the uint32 counts far from wrapping
				}
			}
		})
	}
}
