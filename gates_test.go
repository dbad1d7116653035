package gates_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	gates "github.com/gates-middleware/gates"
)

// apiSource emits 0..n-1 through the public API.
type apiSource struct{ n int }

func (s *apiSource) Run(_ *gates.Context, out *gates.Emitter) error {
	for i := 0; i < s.n; i++ {
		if err := out.EmitValue(i, 8); err != nil {
			return err
		}
	}
	return nil
}

// apiSink counts and sums received ints.
type apiSink struct {
	mu       sync.Mutex
	n, total int
	param    *gates.Param
}

func (s *apiSink) Init(ctx *gates.Context) error {
	p, err := ctx.SpecifyParam(gates.ParamSpec{
		Name: "rate", Initial: 0.5, Min: 0.1, Max: 1, Step: 0.01,
		Direction: gates.IncreaseSlowsProcessing,
	})
	if err != nil {
		return err
	}
	s.param = p
	return nil
}

func (s *apiSink) Process(_ *gates.Context, pkt *gates.Packet, _ *gates.Emitter) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	s.total += pkt.Value.(int)
	return nil
}

func (s *apiSink) Finish(*gates.Context, *gates.Emitter) error { return nil }

func (s *apiSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

const apiXML = `
<application name="api-test">
  <stage id="feed" code="t/feed" source="true" instances="2">
    <nearSource>feed-1</nearSource><nearSource>feed-2</nearSource>
  </stage>
  <stage id="sink" code="t/sink"><requirement minCPU="2"/></stage>
  <connection from="feed" to="sink"/>
</application>`

func testGrid(t *testing.T) (*gates.Grid, *apiSink) {
	t.Helper()
	g, err := gates.NewGrid(gates.GridOptions{TimeScale: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := g.AddNode(gates.Node{
			Name: fmt.Sprintf("edge-%d", i), CPUPower: 1, MemoryMB: 256,
			Sources: []string{fmt.Sprintf("feed-%d", i)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddNode(gates.Node{Name: "hub", CPUPower: 4, MemoryMB: 2048, Slots: 2}); err != nil {
		t.Fatal(err)
	}
	g.SetDefaultLink(gates.LinkConfig{Bandwidth: 100 * gates.KBps})
	sink := &apiSink{}
	if err := g.RegisterSource("t/feed", func(int) gates.Source { return &apiSource{n: 50} }); err != nil {
		t.Fatal(err)
	}
	if err := g.RegisterProcessor("t/sink", func(int) gates.Processor { return sink }); err != nil {
		t.Fatal(err)
	}
	return g, sink
}

func TestNewGridValidation(t *testing.T) {
	if _, err := gates.NewGrid(gates.GridOptions{TimeScale: -1}); err == nil {
		t.Fatal("negative TimeScale accepted")
	}
	g, err := gates.NewGrid(gates.GridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Clock() == nil {
		t.Fatal("real-time grid has no clock")
	}
}

func TestGridLaunchEndToEnd(t *testing.T) {
	g, sink := testGrid(t)
	app, err := g.Launch(context.Background(), apiXML, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Wait(); err != nil {
		t.Fatal(err)
	}
	if sink.count() != 100 {
		t.Fatalf("sink saw %d packets, want 100", sink.count())
	}
	// Placement: feeds near their sources, sink on the hub.
	if node, _ := app.NodeFor("feed", 0); node != "edge-1" {
		t.Fatalf("feed/0 placed on %q", node)
	}
	if node, _ := app.NodeFor("sink", 0); node != "hub" {
		t.Fatalf("sink placed on %q", node)
	}
	// The parameter registered through the public API is visible.
	st, ok := app.Stage("sink", 0)
	if !ok {
		t.Fatal("sink stage missing")
	}
	if _, ok := st.Controller().Param("rate"); !ok {
		t.Fatal("public-API parameter not registered")
	}
	if g.NetworkBytes() == 0 {
		t.Fatal("no traffic crossed the emulated network")
	}
}

func TestGridLaunchConfig(t *testing.T) {
	g, sink := testGrid(t)
	cfg, err := gates.ParseConfig(apiXML)
	if err != nil {
		t.Fatal(err)
	}
	tuned := 0
	app, err := g.LaunchConfig(context.Background(), cfg, func(string, int) gates.StageConfig {
		tuned++
		return gates.StageConfig{}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Wait(); err != nil {
		t.Fatal(err)
	}
	if tuned != 3 {
		t.Fatalf("tuning consulted %d times, want 3", tuned)
	}
	if sink.count() != 100 {
		t.Fatalf("sink saw %d packets", sink.count())
	}
}

func TestGridLaunchNoMatch(t *testing.T) {
	g, _ := testGrid(t)
	bad := strings.Replace(apiXML, `minCPU="2"`, `minCPU="64"`, 1)
	if _, err := g.Launch(context.Background(), bad, nil); !errors.Is(err, gates.ErrNoMatch) {
		t.Fatalf("impossible requirement = %v, want ErrNoMatch", err)
	}
}

func TestGridNodes(t *testing.T) {
	g, _ := testGrid(t)
	if got := len(g.Nodes()); got != 3 {
		t.Fatalf("Nodes = %d, want 3", got)
	}
	if err := g.AddNode(gates.Node{Name: "edge-1", CPUPower: 1}); err == nil {
		t.Fatal("duplicate node accepted")
	}
}

func TestGridConnectNodes(t *testing.T) {
	g, _ := testGrid(t)
	l := g.ConnectNodes("edge-1", "hub", gates.LinkConfig{Bandwidth: gates.MBps})
	if l == nil || l.Config().Bandwidth != gates.MBps {
		t.Fatal("explicit link not installed")
	}
}

func TestGridNewEngineDirect(t *testing.T) {
	g, err := gates.NewGrid(gates.GridOptions{TimeScale: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	eng := g.NewEngine()
	sink := &apiSink{}
	src, _ := eng.AddSourceStage("feed", 0, &apiSource{n: 10}, gates.StageConfig{})
	snk, _ := eng.AddProcessorStage("sink", 0, sink, gates.StageConfig{})
	if err := eng.Connect(src, snk, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if sink.count() != 10 {
		t.Fatalf("direct engine delivered %d packets, want 10", sink.count())
	}
}

func TestApplicationStopViaPublicAPI(t *testing.T) {
	g, _ := testGrid(t)
	slow := func(int) gates.Source { return &slowAPISource{} }
	if err := g.RegisterSource("t/slow", slow); err != nil {
		t.Fatal(err)
	}
	xml := strings.Replace(apiXML, "t/feed", "t/slow", 1)
	app, err := g.Launch(context.Background(), xml, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- app.Stop() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop hung")
	}
}

type slowAPISource struct{}

func (s *slowAPISource) Run(ctx *gates.Context, out *gates.Emitter) error {
	for i := 0; ; i++ {
		select {
		case <-ctx.Done():
			return nil
		default:
		}
		ctx.ChargeCompute(50 * time.Millisecond)
		if err := out.EmitValue(i, 8); err != nil {
			return err
		}
	}
}

func TestGridMonitor(t *testing.T) {
	g, sink := testGrid(t)
	mon := g.NewMonitor(100 * time.Millisecond)
	app, err := g.Launch(context.Background(), apiXML, nil)
	if err != nil {
		t.Fatal(err)
	}
	mon.WatchStages(app.Stages)
	stop := make(chan struct{})
	go mon.Start(stop)
	if err := app.Wait(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	mon.Sample()
	if sink.count() != 100 {
		t.Fatalf("sink saw %d", sink.count())
	}
	snap := mon.Latest()
	if len(snap.Stages) != 3 {
		t.Fatalf("monitor watched %d stage instances, want 3", len(snap.Stages))
	}
	var sinkSample bool
	for _, s := range snap.Stages {
		if s.Stage == "sink" && s.ItemsIn == 100 {
			sinkSample = true
		}
	}
	if !sinkSample {
		t.Fatal("final sample missing the sink's item count")
	}
}

// TestGridPolicyEngine drives the declarative control plane through the
// public API: a policy document with a named placement rule governs a
// launch, and the journal records each placement citing the rule and the
// document version.
func TestGridPolicyEngine(t *testing.T) {
	g, sink := testGrid(t)
	ob := g.NewObservability(gates.ObsConfig{})
	eng := g.NewPolicyEngine()
	if g.PolicyEngine() != eng {
		t.Fatal("PolicyEngine accessor disagrees")
	}
	doc, err := gates.ParsePolicy([]byte(`{
		"version": "facade-1",
		"placement": {"rules": [{"name": "pin-sink", "stage": "sink", "min_cpu": 2}]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(doc, "test"); err != nil {
		t.Fatal(err)
	}

	app, err := g.Launch(context.Background(), apiXML, nil)
	if err != nil {
		t.Fatal(err)
	}
	reb := gates.NewPolicyRebalancer(app.Deployment, eng)
	if err := app.Wait(); err != nil {
		t.Fatal(err)
	}
	if sink.count() != 100 {
		t.Fatalf("sink saw %d packets, want 100", sink.count())
	}
	if reb.Migrations() != 0 {
		t.Fatalf("idle rebalancer migrated %d instances", reb.Migrations())
	}

	placements := ob.Journal.Events(gates.EventFilter{Kind: "placement"})
	if len(placements) != 3 {
		t.Fatalf("%d placement decisions logged, want 3 (2 feeds + 1 sink)", len(placements))
	}
	sink0 := ob.Journal.Events(gates.EventFilter{Kind: "placement", Stage: "sink"})
	if len(sink0) != 1 {
		t.Fatalf("sink placement decisions %+v, want one", sink0)
	}
	sinkDecision := sink0[0]
	d := sinkDecision.Payload.(gates.Decision)
	if d.Rule != "pin-sink" || sinkDecision.PolicyVersion != "facade-1" {
		t.Fatalf("sink decision cites %s/%s, want facade-1/pin-sink",
			sinkDecision.PolicyVersion, d.Rule)
	}
	if sinkDecision.Node != "hub" || d.Outcome != "placed" {
		t.Fatalf("sink decision %+v", sinkDecision)
	}

	// DefaultPolicy is the documented baseline.
	if def := gates.DefaultPolicy(); def.Version != "default" || def.Rebalance.Threshold != 2 {
		t.Fatalf("DefaultPolicy = %+v", def)
	}
}

func TestQueuingFacade(t *testing.T) {
	n := gates.NewQueuingNetwork()
	if err := n.AddStation(gates.QueuingStation{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddStation(gates.QueuingStation{Name: "b", ServiceRate: 10}); err != nil {
		t.Fatal(err)
	}
	n.SetArrival("a", 40)
	n.Route("a", "b", 1)
	r, err := n.SustainableFraction("a")
	if err != nil {
		t.Fatal(err)
	}
	if r != 0.25 {
		t.Fatalf("sustainable = %v, want 0.25", r)
	}
}
