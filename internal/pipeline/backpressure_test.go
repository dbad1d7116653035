package pipeline

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/obs"
)

// slowProc burns real wall time per packet so upstream emits park on this
// stage's bounded input buffer — the constriction the backpressure
// telemetry must attribute.
type slowProc struct{ sleep time.Duration }

func (slowProc) Init(*Context) error { return nil }
func (p slowProc) Process(_ *Context, pkt *Packet, out *Emitter) error {
	time.Sleep(p.sleep)
	return out.Emit(pkt)
}
func (slowProc) Finish(*Context, *Emitter) error { return nil }

// runConstricted drives src → slow → sink with a tiny buffer in front of
// the slow stage and returns the bundle plus the stages.
func runConstricted(t *testing.T) (*obs.Observability, *Stage, *Stage) {
	t.Helper()
	clk := clock.NewManual()
	ob := obs.New(clk, obs.Config{SampleEvery: -1})
	e := New(clk)
	e.SetObservability(ob)
	e.SetDefaultBatchSize(8)

	vals := make([]int, 600)
	src, err := e.AddSourceStage("src", 0, &testSource{values: vals}, StageConfig{DisableAdaptation: true})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := e.AddProcessorStage("slow", 0, slowProc{sleep: 100 * time.Microsecond}, StageConfig{
		DisableAdaptation: true, QueueCapacity: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := e.AddProcessorStage("sink", 0, &collector{}, StageConfig{
		DisableAdaptation: true, QueueCapacity: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Connect(src, slow, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Connect(slow, sink, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return ob, src, slow
}

func TestEmitStallTelemetry(t *testing.T) {
	ob, src, slow := runConstricted(t)

	// The slow stage's input queue charged the parked producer...
	qs := slow.QueueStats()
	if qs.BlockedPushes == 0 || qs.PushStallNS == 0 {
		t.Fatalf("no inbound stall on the slow stage: %+v", qs)
	}
	// ...and the producer charged the same pressure to its emit side.
	if src.Stats().EmitStall == 0 {
		t.Fatal("source recorded no emit stall")
	}

	// The registry exposes both series plus the topology edges.
	snap := ob.Registry.Snapshot()
	series := make(map[string]bool)
	edges := make(map[string]bool)
	for _, p := range snap {
		series[p.Name] = true
		if p.Name == obs.MetricEdge {
			edges[p.Labels["from"]+">"+p.Labels["to"]] = true
		}
	}
	for _, name := range []string{
		obs.MetricQueuePushStall, obs.MetricQueuePopStall, obs.MetricEmitStall,
		obs.MetricQueueCapacity,
		"gates_pool_gets_total", "gates_pool_misses_total", "gates_pool_free",
	} {
		if !series[name] {
			t.Fatalf("series %s missing from snapshot", name)
		}
	}
	if !edges["src>slow"] || !edges["slow>sink"] {
		t.Fatalf("topology edges missing: %v", edges)
	}

	// The attribution engine, fed that snapshot, names the slow stage.
	rep := ob.Attr().ObserveRegistry(ob.Registry)
	if rep.Bottleneck != "slow/0" {
		t.Fatalf("bottleneck = %q, want slow/0 (verdicts %+v)", rep.Bottleneck, rep.Verdicts)
	}

	// The journal saw the stall onset and the lifecycle edges, each edge
	// once: init → running → stopped for each of the three stages.
	kinds := make(map[obs.EventKind]int)
	for _, ev := range ob.Journal.Events(obs.EventFilter{}) {
		kinds[ev.Kind]++
	}
	if kinds[obs.EventStallOnset] == 0 {
		t.Fatalf("no stall-onset event; kinds: %v", kinds)
	}
	if kinds[obs.EventLifecycle] != 6 {
		t.Fatalf("%d lifecycle events for three stages' two transitions each; kinds: %v", kinds[obs.EventLifecycle], kinds)
	}
	// Edge-triggered: onsets, not one event per blocked flush. 600 packets
	// through an 8-deep buffer block hundreds of times; onset events must
	// stay well below that.
	if kinds[obs.EventStallOnset] > 100 {
		t.Fatalf("%d stall-onset events — latch not suppressing repeats", kinds[obs.EventStallOnset])
	}
}

// TestEmitStallFreeFlowRecordsNothing pins the flowing side of the moved
// blocked-emit check: 10⁴ packets through an observed per-packet stage whose
// downstream buffer never fills — the pushes runLag forces down the blocking
// path included — leave EmitStall at zero and record no stall onset.
func TestEmitStallFreeFlowRecordsNothing(t *testing.T) {
	clk := clock.NewManual()
	ob := obs.New(clk, obs.Config{})
	e := New(clk)
	e.SetObservability(ob)
	const n = 10000
	src, err := e.AddSourceStage("src", 0, &testSource{values: make([]int, n)}, StageConfig{DisableAdaptation: true})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := e.AddProcessorStage("sink", 0, &collector{}, StageConfig{
		DisableAdaptation: true, QueueCapacity: 2 * n,
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
	if st := src.Stats(); st.PacketsOut != n || st.EmitStall != 0 {
		t.Fatalf("free-flowing source: %d packets out, EmitStall %v; want %d, 0", st.PacketsOut, st.EmitStall, n)
	}
	if evs := ob.Journal.Events(obs.EventFilter{Kind: obs.EventStallOnset}); len(evs) != 0 {
		t.Fatalf("free-flowing run recorded a stall onset: %+v", evs)
	}
}

// scriptedSource emits as many packets as each number sent on emit says,
// acknowledging each batch on done, until emit is closed.
type scriptedSource struct {
	emit chan int
	done chan struct{}
}

func (s *scriptedSource) Run(ctx *Context, out *Emitter) error {
	for n := range s.emit {
		for i := 0; i < n; i++ {
			if err := out.EmitValue(i, 8); err != nil {
				return err
			}
		}
		s.done <- struct{}{}
	}
	return nil
}

// TestEmitStallLatchRearms walks a per-packet source through stall, relief,
// stall against a 4-deep buffer. Observed, that is EmitStall above zero and
// exactly two stall onsets: the latch holds through the pushes of one stall
// and re-arms on the first push that finds room — here a fast-path one.
// Unobserved, the same full ring leaves EmitStall at zero: emit never looks.
func TestEmitStallLatchRearms(t *testing.T) {
	for _, observed := range []bool{true, false} {
		t.Run(fmt.Sprintf("observed=%v", observed), func(t *testing.T) {
			clk := clock.NewManual()
			e := New(clk)
			var ob *obs.Observability
			if observed {
				ob = obs.New(clk, obs.Config{})
				e.SetObservability(ob)
			}
			script := &scriptedSource{emit: make(chan int), done: make(chan struct{})}
			// The sink consumes one packet per token on gate, every packet once
			// gate is closed, and counts what it has consumed.
			gate := make(chan struct{})
			var consumed atomic.Int64
			sinkProc := &testProc{process: func(*Context, *Packet, *Emitter) error {
				<-gate
				consumed.Add(1)
				return nil
			}}
			src, err := e.AddSourceStage("src", 0, script, StageConfig{DisableAdaptation: true})
			if err != nil {
				t.Fatal(err)
			}
			sink, err := e.AddProcessorStage("sink", 0, sinkProc, StageConfig{
				DisableAdaptation: true, QueueCapacity: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Connect(src, sink, nil); err != nil {
				t.Fatal(err)
			}
			runErr := make(chan error, 1)
			go func() { runErr <- e.Run(context.Background()) }()

			blockedPushes := func() uint64 { return sink.QueueStats().BlockedPushes }

			// First stall: one packet in the sink's hand, four in its buffer,
			// the sixth push blocks.
			script.emit <- 6
			eventually(t, "the first blocked push", func() bool { return blockedPushes() >= 1 })
			// Relief: the sink takes all six, then one more push finds room.
			for i := 0; i < 6; i++ {
				gate <- struct{}{}
			}
			<-script.done
			eventually(t, "the sink to drain", func() bool { return consumed.Load() == 6 })
			script.emit <- 1
			<-script.done
			// Second stall: the sink takes that packet into its hand, four more
			// fill the buffer and the fifth blocks. Both stalls end on the push
			// that blocked, so no later push can find room and then a full
			// buffer again behind the script's back.
			before := blockedPushes()
			script.emit <- 5
			eventually(t, "the second blocked push", func() bool { return blockedPushes() > before })
			close(gate)
			<-script.done
			close(script.emit)
			if err := <-runErr; err != nil {
				t.Fatal(err)
			}

			stall := src.Stats().EmitStall
			if !observed {
				if stall != 0 {
					t.Fatalf("unobserved source charged EmitStall %v", stall)
				}
				return
			}
			if stall == 0 {
				t.Fatal("observed source recorded no emit stall")
			}
			onsets := len(ob.Journal.Events(obs.EventFilter{Kind: obs.EventStallOnset, Stage: "src"}))
			if onsets != 2 {
				t.Fatalf("%d stall onsets for stall, relief, stall; want 2", onsets)
			}
		})
	}
}

func TestPoolStatsSnapshot(t *testing.T) {
	before := ReadPoolStats()
	runConstricted(t)
	after := ReadPoolStats()
	if after.Gets <= before.Gets {
		t.Fatalf("pool gets did not advance: %d -> %d", before.Gets, after.Gets)
	}
	if after.Recycled <= before.Recycled {
		t.Fatalf("pool recycles did not advance: %d -> %d", before.Recycled, after.Recycled)
	}
	if after.Capacity == 0 || after.Free > after.Capacity {
		t.Fatalf("inconsistent freelist: %+v", after)
	}
}
