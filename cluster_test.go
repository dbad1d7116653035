// Deterministic end-to-end check of the cluster observability plane: two
// engines ("nodes") on one manual clock, each pushing packets through a
// paced link into an instrumented sink, then a cluster aggregator merging
// both nodes' snapshots behind a live /cluster endpoint. The merged
// sink-side p99 must agree (±20%) with the exact per-packet virtual-clock
// latencies the sinks recorded themselves — the acceptance bar for the
// histogram pipeline (observe → bucket → snapshot → merge → interpolate).
package gates_test

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/pipeline"
)

// latSource emits n packets of wire bytes each.
type latSource struct {
	n    int
	wire int
}

func (s *latSource) Run(_ *pipeline.Context, out *pipeline.Emitter) error {
	for i := 0; i < s.n; i++ {
		if err := out.Emit(&pipeline.Packet{WireSize: s.wire}); err != nil {
			return err
		}
	}
	return nil
}

// latSink records every consumed packet's source-to-sink virtual latency.
type latSink struct {
	clk *clock.Manual
	mu  sync.Mutex
	lat []float64
}

func (s *latSink) Init(*pipeline.Context) error { return nil }
func (s *latSink) Process(_ *pipeline.Context, pkt *pipeline.Packet, _ *pipeline.Emitter) error {
	if !pkt.Birth.IsZero() {
		s.mu.Lock()
		s.lat = append(s.lat, s.clk.Now().Sub(pkt.Birth).Seconds())
		s.mu.Unlock()
	}
	return nil
}
func (s *latSink) Finish(*pipeline.Context, *pipeline.Emitter) error { return nil }

// recorded returns how many latency samples the sink has taken.
func (s *latSink) recorded() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.lat)
}

// runLatencyNode drives one source→link→sink engine to completion on the
// shared manual clock, advancing it deadline-by-deadline so every virtual
// timestamp is deterministic, and returns the node's obs bundle plus the
// sink's exact latency samples. Before each advance the sink must have timed
// every packet the link has released (the link's completed messages, less
// the final marker), or a sample would include the advance.
func runLatencyNode(t *testing.T, clk *clock.Manual, packets int, bandwidth int64) (*obs.Observability, []float64) {
	t.Helper()
	ob := obs.New(clk, obs.Config{})
	eng := pipeline.New(clk)
	eng.SetObservability(ob)
	src, err := eng.AddSourceStage("src", 0, &latSource{n: packets, wire: 100}, pipeline.StageConfig{DisableAdaptation: true})
	if err != nil {
		t.Fatal(err)
	}
	sink := &latSink{clk: clk}
	sinkSt, err := eng.AddProcessorStage("sink", 0, sink, pipeline.StageConfig{
		DisableAdaptation: true, QueueCapacity: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLink(clk, netsim.LinkConfig{Bandwidth: bandwidth, Quantum: 50 * time.Millisecond})
	if err := eng.Connect(src, sinkSt, link); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- eng.Run(context.Background()) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return ob, sink.lat
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("engine never finished")
		}
		dl, ok := clk.NextDeadline()
		if ok && sink.recorded() >= min(int(link.Stats().Messages), packets) {
			clk.AdvanceTo(dl)
		} else {
			// No sleeper registered yet, or the sink is still timing a
			// released packet: let the engine goroutines run.
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// exactQuantile mirrors the histogram's rank convention (rank = q*n, at
// least 1) on raw samples.
func exactQuantile(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func TestClusterMergedLatencyMatchesVirtualClock(t *testing.T) {
	const packets = 200
	clk := clock.NewManual()
	// Two nodes with different link speeds, so their latency distributions
	// differ and the merge is doing real work.
	obA, latA := runLatencyNode(t, clk, packets, 1000)
	obB, latB := runLatencyNode(t, clk, packets, 2000)
	if len(latA) != packets || len(latB) != packets {
		t.Fatalf("sinks recorded %d + %d samples, want %d each", len(latA), len(latB), packets)
	}

	agg := obs.NewAggregator(clk, func() (obs.SLOConfig, string) {
		return obs.SLOConfig{TargetP99: 1e6}, ""
	})
	agg.AddSource("node-a", obs.LocalSource(obA))
	agg.AddSource("node-b", obs.LocalSource(obB))
	srv, err := obs.ServeWith("127.0.0.1:0", obA, obs.HandlerOptions{Aggregator: agg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/cluster returned %s", resp.Status)
	}
	var view obs.ClusterView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}

	for _, n := range view.Nodes {
		if !n.OK {
			t.Fatalf("node %s down: %s", n.Name, n.Err)
		}
	}
	var sinkLat *obs.LatencySummary
	for i := range view.Latency {
		if view.Latency[i].Stage == "sink" {
			sinkLat = &view.Latency[i]
		}
	}
	if sinkLat == nil {
		t.Fatalf("merged view has no sink latency summary: %+v", view.Latency)
	}
	if !sinkLat.Sink {
		t.Fatal("sink stage not marked as a sink in the merged view")
	}
	if sinkLat.Count != 2*packets {
		t.Fatalf("merged sink count = %d, want %d", sinkLat.Count, 2*packets)
	}

	// The acceptance bar: the merged histogram p99 served at /cluster is
	// within ±20% of the exact per-packet virtual-clock p99.
	all := append(append([]float64(nil), latA...), latB...)
	for _, tc := range []struct {
		name   string
		q      float64
		merged float64
	}{
		{"p50", 0.50, float64(sinkLat.P50)},
		{"p95", 0.95, float64(sinkLat.P95)},
		{"p99", 0.99, float64(sinkLat.P99)},
	} {
		exact := exactQuantile(all, tc.q)
		if exact <= 0 {
			t.Fatalf("%s: exact quantile is zero — no pacing happened", tc.name)
		}
		if rel := math.Abs(tc.merged-exact) / exact; rel > 0.20 {
			t.Errorf("%s: merged %.4gs vs exact %.4gs (%.1f%% off, budget 20%%)",
				tc.name, tc.merged, exact, rel*100)
		}
	}

	// With a sky-high target and finished pipelines, the SLO must be clean.
	if !view.SLO.Evaluated || view.SLO.Violated {
		t.Fatalf("SLO = %+v, want evaluated and healthy", view.SLO)
	}

	var buf strings.Builder
	view.Render(&buf)
	if !strings.Contains(buf.String(), "sink (sink)") {
		t.Fatalf("dashboard missing sink latency row:\n%s", buf.String())
	}
}

// pacedSource emits n packets, charging pace of virtual compute per packet —
// a fixed arrival rate.
type pacedSource struct {
	n    int
	pace time.Duration
}

func (s *pacedSource) Run(ctx *pipeline.Context, out *pipeline.Emitter) error {
	for i := 0; i < s.n; i++ {
		if err := out.EmitValue(i, 8); err != nil {
			return err
		}
		ctx.ChargeCompute(s.pace)
	}
	return nil
}

// thinningSampler forwards packets with probability rate — the Figure 8
// adaptive stage, whose rate parameter the §4 law turns down under
// overload.
type thinningSampler struct {
	rate *adapt.Param
}

func (s *thinningSampler) Init(ctx *pipeline.Context) error {
	var err error
	s.rate, err = ctx.SpecifyParam(adapt.ParamSpec{
		Name: "rate", Initial: 0.8, Min: 0.01, Max: 1, Step: 0.01,
		Direction: adapt.IncreaseSlowsProcessing,
	})
	return err
}
func (s *thinningSampler) Process(_ *pipeline.Context, pkt *pipeline.Packet, out *pipeline.Emitter) error {
	if pkt.Seq%100 < uint64(s.rate.Value()*100) {
		return out.EmitValue(pkt.Value, 8)
	}
	return nil
}
func (s *thinningSampler) Finish(*pipeline.Context, *pipeline.Emitter) error { return nil }

// slowAnalysis charges cost per packet — a processing rate below the
// unthinned arrival rate.
type slowAnalysis struct{ cost time.Duration }

func (a *slowAnalysis) Init(*pipeline.Context) error { return nil }
func (a *slowAnalysis) Process(ctx *pipeline.Context, _ *pipeline.Packet, _ *pipeline.Emitter) error {
	ctx.ChargeCompute(a.cost)
	return nil
}
func (a *slowAnalysis) Finish(*pipeline.Context, *pipeline.Emitter) error { return nil }

// TestSLOFlagTripsUnderOverloadAndClears is the acceptance scenario for the
// violation detector against a live pipeline: arrival (one packet per 5
// virtual ms) outruns processing (12 virtual ms per packet), the analysis
// queue grows, and the cluster SLO flag must trip on sustained positive
// d-tilde. Once the §4 controller has throttled the sampler and the stream
// drains, the queue-growth signal goes non-positive and the flag must
// clear.
func TestSLOFlagTripsUnderOverloadAndClears(t *testing.T) {
	// Scale 20 keeps every paced sleep (compute quanta of 50-60 virtual ms)
	// at 2.5-3 wall ms — far above OS timer granularity, so the
	// arrival/processing ratio survives race-detector slowdowns.
	clk := clock.NewScaled(20)
	// Every collection below is one slo event; a journal far larger than
	// the collections a slow run makes keeps the trip from being evicted.
	ob := obs.New(clk, obs.Config{JournalCapacity: 1 << 16})
	eng := pipeline.New(clk)
	eng.SetObservability(ob)

	src, _ := eng.AddSourceStage("sim", 0, &pacedSource{n: 6000, pace: 5 * time.Millisecond}, pipeline.StageConfig{
		DisableAdaptation: true,
		ComputeQuantum:    50 * time.Millisecond,
	})
	smp, _ := eng.AddProcessorStage("sampler", 0, &thinningSampler{}, pipeline.StageConfig{
		QueueCapacity: 100,
		AdaptInterval: 100 * time.Millisecond,
	})
	ana, _ := eng.AddProcessorStage("analysis", 0, &slowAnalysis{cost: 12 * time.Millisecond}, pipeline.StageConfig{
		QueueCapacity:  100,
		AdaptInterval:  100 * time.Millisecond,
		ComputeQuantum: 60 * time.Millisecond,
	})
	eng.Connect(src, smp, nil)
	eng.Connect(smp, ana, nil)

	// No latency target: the growth detector alone judges this run.
	agg := obs.NewAggregator(clk, nil)
	agg.SetJournal(ob.Journal)
	agg.AddSource("local", obs.LocalSource(ob))

	done := make(chan error, 1)
	go func() { done <- eng.Run(context.Background()) }()
	// The run has two long phases: ~4 virtual seconds of raw overload while
	// the controller walks the rate down (d-tilde > 0 every epoch), then
	// ~26 virtual seconds at the converged rate, where the queue stops
	// growing and epochs read d-tilde <= 0. Collections sampled throughout
	// must see the flag trip in the first phase and clear in the second.
	// (After Run returns the gauge freezes at its last mid-drain value, so
	// the recovery must be observed live, not post-mortem.)
	tripped, cleared := false, false
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
			if agg.Collect().SLO.Violated {
				tripped = true
			} else if tripped {
				cleared = true
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if !tripped {
		t.Fatal("SLO flag never tripped while arrival outran processing")
	}
	if !cleared {
		t.Fatal("SLO flag never cleared after the adaptation controller converged")
	}

	// The journal recorded the story: some violation transition followed
	// by a recovery.
	var flips []bool
	for _, ev := range ob.Journal.Events(obs.EventFilter{Kind: obs.EventSLO}) {
		if p := ev.Payload.(obs.SLO); p.Transition {
			flips = append(flips, p.Violated)
		}
	}
	sawTrip := false
	sawRecovery := false
	for _, violated := range flips {
		if violated {
			sawTrip = true
		} else if sawTrip {
			sawRecovery = true
		}
	}
	if !sawTrip || !sawRecovery {
		t.Fatalf("SLO transitions %v missing trip-then-recovery", flips)
	}
}
