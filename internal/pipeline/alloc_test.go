package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/obs"
)

// blankSource emits n pooled packets that carry no value, so whatever the
// run allocates per packet is the engine's.
type blankSource struct{ n int }

func (s *blankSource) Run(_ *Context, out *Emitter) error {
	for i := 0; i < s.n; i++ {
		p := out.GetPacket()
		p.WireSize = 64
		if err := out.Emit(p); err != nil {
			return err
		}
	}
	return nil
}

// runMallocs runs src → sink for n packets at the given batch size, on a
// manual clock and unobserved, and returns the heap objects allocated from
// engine construction to Run's return.
func runMallocs(t *testing.T, batch, n int) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := New(clock.NewManual())
	e.SetDefaultBatchSize(batch)
	src, err := e.AddSourceStage("src", 0, &blankSource{n: n}, StageConfig{DisableAdaptation: true})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := e.AddProcessorStage("sink", 0, &testProc{}, StageConfig{
		DisableAdaptation: true, QueueCapacity: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Connect(src, sink, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestHotPathAllocationFree holds the pooled hot path to its promise: in the
// steady state a packet costs no heap allocation, per packet (batch 1) or
// batched. Building and starting an engine allocates, so the test takes the
// marginal count between a short and a long run. What is left is the
// runtime's own allocations, about 1e-6 a packet, so "none" is < 0.001.
func TestHotPathAllocationFree(t *testing.T) {
	const short, long = 10_000, 410_000
	for _, batch := range []int{1, 4, 16, 64} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			// A long warm-up run fills the packet pool as deep as a long run
			// reaches: a run that outlasts the warm-up may hold more packets
			// in flight, and its pool misses are not a per-packet cost.
			runMallocs(t, batch, long)
			base := runMallocs(t, batch, short)
			total := runMallocs(t, batch, long)
			perPkt := (float64(total) - float64(base)) / (long - short)
			t.Logf("%.2g heap allocations per packet", perPkt)
			if perPkt >= 0.001 {
				t.Fatalf("%.4f heap allocations per packet at batch %d (%d over %d packets, %d over %d), want < 0.001",
					perPkt, batch, total, long, base, short)
			}
		})
	}
}

// TestStallOnsetIsFree: an observed stage journals each stall onset from a
// Detail string its destination built once, at registration, so an onset
// allocates nothing.
func TestStallOnsetIsFree(t *testing.T) {
	clk := clock.NewManual()
	o := obs.New(clk, obs.Config{})
	e := New(clk)
	src, err := e.AddSourceStage("src", 0, &blankSource{}, StageConfig{DisableAdaptation: true})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := e.AddProcessorStage("sink", 0, &testProc{}, StageConfig{DisableAdaptation: true})
	if err != nil {
		t.Fatal(err)
	}
	src.o = o
	allocs := testing.AllocsPerRun(100, func() {
		src.emitStalled = false
		src.noteEmitStall(sink)
	})
	if allocs != 0 {
		t.Fatalf("stall onset: %v allocs, want 0", allocs)
	}
	evs := o.Journal.Events(obs.EventFilter{Kind: obs.EventStallOnset})
	if len(evs) == 0 || evs[len(evs)-1].Detail != "emit blocked: input buffer of sink full" {
		t.Fatalf("stall onset events %+v", evs)
	}
}
