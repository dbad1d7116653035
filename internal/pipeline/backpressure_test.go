package pipeline

import (
	"context"
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

	// The flight recorder saw the stall onset and the lifecycle edges.
	kinds := make(map[obs.FlightKind]int)
	for _, ev := range ob.Flight.Events() {
		kinds[ev.Kind]++
	}
	if kinds[obs.FlightStallOnset] == 0 {
		t.Fatalf("no stall-onset flight event; kinds: %v", kinds)
	}
	if kinds[obs.FlightLifecycle] == 0 {
		t.Fatalf("no lifecycle flight events; kinds: %v", kinds)
	}
	// Edge-triggered: onsets, not one event per blocked flush. 600 packets
	// through an 8-deep buffer block hundreds of times; onset events must
	// stay well below that.
	if kinds[obs.FlightStallOnset] > 100 {
		t.Fatalf("%d stall-onset events — latch not suppressing repeats", kinds[obs.FlightStallOnset])
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
