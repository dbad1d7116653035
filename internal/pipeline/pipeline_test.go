package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/obs"
)

// testProc adapts closures to the Processor interface.
type testProc struct {
	init    func(*Context) error
	process func(*Context, *Packet, *Emitter) error
	finish  func(*Context, *Emitter) error
}

func (p *testProc) Init(ctx *Context) error {
	if p.init != nil {
		return p.init(ctx)
	}
	return nil
}

func (p *testProc) Process(ctx *Context, pkt *Packet, out *Emitter) error {
	if p.process != nil {
		return p.process(ctx, pkt, out)
	}
	return nil
}

func (p *testProc) Finish(ctx *Context, out *Emitter) error {
	if p.finish != nil {
		return p.finish(ctx, out)
	}
	return nil
}

// testSource emits the given ints.
type testSource struct {
	values []int
	pace   time.Duration
}

func (s *testSource) Run(ctx *Context, out *Emitter) error {
	for _, v := range s.values {
		if s.pace > 0 {
			ctx.ChargeCompute(s.pace)
		}
		if err := out.EmitValue(v, 8); err != nil {
			return err
		}
	}
	return nil
}

// collector gathers every received value.
type collector struct {
	mu   sync.Mutex
	got  []int
	done bool
}

func (c *collector) Init(*Context) error { return nil }

func (c *collector) Process(_ *Context, pkt *Packet, _ *Emitter) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.got = append(c.got, pkt.Value.(int))
	return nil
}

func (c *collector) Finish(*Context, *Emitter) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done = true
	return nil
}

func (c *collector) values() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, len(c.got))
	copy(out, c.got)
	return out
}

func TestAddStageValidation(t *testing.T) {
	e := New(clock.NewManual())
	if _, err := e.AddProcessorStage("", 0, &testProc{}, StageConfig{}); err == nil {
		t.Fatal("empty id accepted")
	}
	if _, err := e.AddProcessorStage("x", 0, nil, StageConfig{}); err == nil {
		t.Fatal("nil processor accepted")
	}
	if _, err := e.AddSourceStage("x", 0, nil, StageConfig{}); err == nil {
		t.Fatal("nil source accepted")
	}
	// Options the adaptation controller would panic on are an error, with
	// adaptation on or off: a queue of one leaves no expected length D in
	// [1, C).
	for name, cfg := range map[string]StageConfig{
		"capacity 1":                 {QueueCapacity: 1},
		"capacity 1, adaptation off": {QueueCapacity: 1, DisableAdaptation: true},
		"negative capacity":          {QueueCapacity: -4, Adapt: adapt.Options{Capacity: 100}},
		"window out of range":        {Adapt: adapt.Options{Window: -1}},
	} {
		if _, err := e.AddProcessorStage("x", 0, &testProc{}, cfg); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if _, err := e.AddSourceStage("x", 0, &testSource{}, cfg); err == nil {
			t.Fatalf("%s: source accepted", name)
		}
	}
	if _, err := e.AddProcessorStage("x", 0, &testProc{}, StageConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddProcessorStage("x", 0, &testProc{}, StageConfig{}); err == nil {
		t.Fatal("duplicate stage accepted")
	}
}

func TestConnectValidation(t *testing.T) {
	e := New(clock.NewManual())
	src, _ := e.AddSourceStage("src", 0, &testSource{}, StageConfig{})
	sink, _ := e.AddProcessorStage("sink", 0, &collector{}, StageConfig{})
	if err := e.Connect(nil, sink, nil); err == nil {
		t.Fatal("nil from accepted")
	}
	if err := e.Connect(sink, src, nil); err == nil {
		t.Fatal("connect into source accepted")
	}
	if err := e.Connect(sink, sink, nil); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := e.Connect(src, sink, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidateTopology(t *testing.T) {
	e := New(clock.NewManual())
	if err := e.Run(context.Background()); err == nil {
		t.Fatal("empty engine ran")
	}

	e = New(clock.NewManual())
	e.AddProcessorStage("p", 0, &collector{}, StageConfig{})
	if err := e.Run(context.Background()); err == nil {
		t.Fatal("engine with only a processor ran")
	}

	e = New(clock.NewManual())
	e.AddSourceStage("s", 0, &testSource{}, StageConfig{})
	e.AddProcessorStage("p", 0, &collector{}, StageConfig{})
	if err := e.Run(context.Background()); err == nil {
		t.Fatal("disconnected processor stage accepted")
	}
}

func TestSourceToSinkDeliversInOrder(t *testing.T) {
	e := New(clock.NewScaled(100000))
	vals := []int{1, 2, 3, 4, 5, 6, 7}
	src, _ := e.AddSourceStage("src", 0, &testSource{values: vals}, StageConfig{})
	sink := &collector{}
	snk, _ := e.AddProcessorStage("sink", 0, sink, StageConfig{})
	if err := e.Connect(src, snk, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := sink.values()
	if len(got) != len(vals) {
		t.Fatalf("received %d values, want %d", len(got), len(vals))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("got[%d] = %d, want %d", i, got[i], vals[i])
		}
	}
	if !sink.done {
		t.Fatal("Finish never ran")
	}
}

func TestRunTwiceFails(t *testing.T) {
	e := New(clock.NewScaled(100000))
	src, _ := e.AddSourceStage("src", 0, &testSource{values: []int{1}}, StageConfig{})
	snk, _ := e.AddProcessorStage("sink", 0, &collector{}, StageConfig{})
	e.Connect(src, snk, nil)
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err == nil {
		t.Fatal("second Run accepted")
	}
	if _, err := e.AddSourceStage("late", 0, &testSource{}, StageConfig{}); err == nil {
		t.Fatal("AddStage after Run accepted")
	}
}

func TestFanInFourSources(t *testing.T) {
	e := New(clock.NewScaled(100000))
	sink := &collector{}
	snk, _ := e.AddProcessorStage("sink", 0, sink, StageConfig{})
	perSource := 50
	for i := 0; i < 4; i++ {
		vals := make([]int, perSource)
		for j := range vals {
			vals[j] = i*perSource + j
		}
		src, err := e.AddSourceStage("src", i, &testSource{values: vals}, StageConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Connect(src, snk, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := sink.values()
	if len(got) != 4*perSource {
		t.Fatalf("received %d values, want %d", len(got), 4*perSource)
	}
	seen := map[int]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("duplicate value %d", v)
		}
		seen[v] = true
	}
}

// TestRunPicksRingByProducerCount pins the one SPSC-vs-MPSC rule: Engine.Run
// gives a stage an SPSC ring iff exactly one distinct upstream stage feeds
// it. Two Connect calls from the same stage share that stage's goroutine
// and count once; a source's ring never carries anything.
func TestRunPicksRingByProducerCount(t *testing.T) {
	e := New(clock.NewScaled(100000))
	cfg := StageConfig{DisableAdaptation: true}
	src0, _ := e.AddSourceStage("src", 0, &testSource{values: []int{1, 2, 3}}, cfg)
	src1, _ := e.AddSourceStage("src", 1, &testSource{values: []int{4, 5}}, cfg)
	fanIn, _ := e.AddProcessorStage("fanin", 0, forwardProc{}, cfg)
	twiceGot, tailGot := &collector{}, &collector{}
	twice, _ := e.AddProcessorStage("twice", 0, twiceGot, cfg)
	tail, _ := e.AddProcessorStage("tail", 0, tailGot, cfg)
	for _, c := range [][2]*Stage{
		{src0, fanIn}, {src1, fanIn}, // two distinct upstreams
		{src1, twice}, {src1, twice}, // one upstream, two edges
		{fanIn, tail}, // one upstream, one edge
	} {
		if err := e.Connect(c[0], c[1], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		st   *Stage
		spsc bool
	}{{fanIn, false}, {twice, true}, {tail, true}} {
		if got := tc.st.inq().SPSC(); got != tc.spsc {
			t.Errorf("%s: SPSC() = %v, want %v", tc.st.ID(), got, tc.spsc)
		}
	}
	// Both edges of the doubled connection delivered, through the one ring.
	if n := len(twiceGot.values()); n != 4 {
		t.Errorf("twice received %d packets, want 4 (2 values x 2 edges)", n)
	}
	if n := len(tailGot.values()); n != 5 {
		t.Errorf("tail received %d packets, want 5", n)
	}
	for _, src := range []*Stage{src0, src1} {
		if st := src.QueueStats(); st.Pushed != 0 || st.HighWater != 0 || src.QueueLen() != 0 {
			t.Errorf("source %s/%d ring saw traffic: %+v", src.ID(), src.Instance(), st)
		}
	}
}

func TestThreeStageChainTransforms(t *testing.T) {
	e := New(clock.NewScaled(100000))
	src, _ := e.AddSourceStage("src", 0, &testSource{values: []int{1, 2, 3}}, StageConfig{})
	double := &testProc{process: func(_ *Context, pkt *Packet, out *Emitter) error {
		return out.EmitValue(pkt.Value.(int)*2, 8)
	}}
	mid, _ := e.AddProcessorStage("double", 0, double, StageConfig{})
	sink := &collector{}
	snk, _ := e.AddProcessorStage("sink", 0, sink, StageConfig{})
	e.Connect(src, mid, nil)
	e.Connect(mid, snk, nil)
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := []int{2, 4, 6}
	got := sink.values()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestStatsCounting(t *testing.T) {
	e := New(clock.NewScaled(100000))
	src, _ := e.AddSourceStage("src", 0, &testSource{values: []int{1, 2, 3}}, StageConfig{})
	sink := &collector{}
	snk, _ := e.AddProcessorStage("sink", 0, sink, StageConfig{})
	e.Connect(src, snk, nil)
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := src.Stats(); st.PacketsOut != 3 || st.BytesOut != 24 {
		t.Fatalf("source stats %+v, want 3 packets / 24 bytes out", st)
	}
	if st := snk.Stats(); st.PacketsIn != 3 || st.ItemsIn != 3 {
		t.Fatalf("sink stats %+v, want 3 packets in", st)
	}
}

func TestProcessorErrorStopsRun(t *testing.T) {
	e := New(clock.NewScaled(100000))
	vals := make([]int, 1000)
	src, _ := e.AddSourceStage("src", 0, &testSource{values: vals}, StageConfig{})
	boom := errors.New("boom")
	bad := &testProc{process: func(_ *Context, pkt *Packet, _ *Emitter) error {
		return boom
	}}
	snk, _ := e.AddProcessorStage("sink", 0, bad, StageConfig{})
	e.Connect(src, snk, nil)
	err := e.Run(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want boom", err)
	}
	if !errors.Is(snk.Err(), boom) {
		t.Fatalf("stage Err = %v, want boom", snk.Err())
	}
}

func TestInitErrorStopsRun(t *testing.T) {
	e := New(clock.NewScaled(100000))
	src, _ := e.AddSourceStage("src", 0, &testSource{values: []int{1}}, StageConfig{})
	boom := errors.New("init failed")
	bad := &testProc{init: func(*Context) error { return boom }}
	snk, _ := e.AddProcessorStage("sink", 0, bad, StageConfig{})
	e.Connect(src, snk, nil)
	if err := e.Run(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want init error", err)
	}
}

func TestContextCancelStopsRun(t *testing.T) {
	e := New(clock.NewScaled(1000))
	// Endless source: paced so it cannot finish before cancel.
	vals := make([]int, 1<<20)
	src, _ := e.AddSourceStage("src", 0, &testSource{values: vals, pace: time.Second}, StageConfig{})
	first := make(chan struct{})
	var once sync.Once
	snk, _ := e.AddProcessorStage("sink", 0, &testProc{
		process: func(*Context, *Packet, *Emitter) error {
			once.Do(func() { close(first) })
			return nil
		},
	}, StageConfig{})
	e.Connect(src, snk, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- e.Run(ctx) }()
	// Cancel only once the pipeline is demonstrably mid-flight — the first
	// packet has reached the sink — instead of sleeping an arbitrary
	// wall-clock interval.
	select {
	case <-first:
	case <-time.After(5 * time.Second):
		t.Fatal("first packet never reached the sink")
	}
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled Run returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
}

func TestEmitToRoutesSelectively(t *testing.T) {
	e := New(clock.NewScaled(100000))
	router := &testProc{process: func(_ *Context, pkt *Packet, out *Emitter) error {
		v := pkt.Value.(int)
		return out.EmitTo(v%2, &Packet{Value: v, WireSize: 8})
	}}
	src, _ := e.AddSourceStage("src", 0, &testSource{values: []int{0, 1, 2, 3, 4, 5}}, StageConfig{})
	rt, _ := e.AddProcessorStage("router", 0, router, StageConfig{})
	even := &collector{}
	odd := &collector{}
	evenSt, _ := e.AddProcessorStage("even", 0, even, StageConfig{})
	oddSt, _ := e.AddProcessorStage("odd", 0, odd, StageConfig{})
	e.Connect(src, rt, nil)
	e.Connect(rt, evenSt, nil)
	e.Connect(rt, oddSt, nil)
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := even.values(); len(got) != 3 || got[0]%2 != 0 {
		t.Fatalf("even collector got %v", got)
	}
	if got := odd.values(); len(got) != 3 || got[0]%2 != 1 {
		t.Fatalf("odd collector got %v", got)
	}
}

func TestEmitToOutOfRange(t *testing.T) {
	e := New(clock.NewScaled(100000))
	bad := &testProc{process: func(_ *Context, pkt *Packet, out *Emitter) error {
		return out.EmitTo(5, pkt)
	}}
	src, _ := e.AddSourceStage("src", 0, &testSource{values: []int{1}}, StageConfig{})
	snk, _ := e.AddProcessorStage("sink", 0, bad, StageConfig{})
	e.Connect(src, snk, nil)
	if err := e.Run(context.Background()); err == nil {
		t.Fatal("EmitTo out of range did not error")
	}
}

func TestBroadcastFanOut(t *testing.T) {
	e := New(clock.NewScaled(100000))
	src, _ := e.AddSourceStage("src", 0, &testSource{values: []int{1, 2}}, StageConfig{})
	a := &collector{}
	b := &collector{}
	sa, _ := e.AddProcessorStage("a", 0, a, StageConfig{})
	sb, _ := e.AddProcessorStage("b", 0, b, StageConfig{})
	e.Connect(src, sa, nil)
	e.Connect(src, sb, nil)
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(a.values()) != 2 || len(b.values()) != 2 {
		t.Fatalf("broadcast delivered %d/%d, want 2/2", len(a.values()), len(b.values()))
	}
}

func TestChargeComputeAccounted(t *testing.T) {
	e := New(clock.NewScaled(100000))
	src, _ := e.AddSourceStage("src", 0, &testSource{values: []int{1, 2, 3}}, StageConfig{})
	burner := &testProc{process: func(ctx *Context, _ *Packet, _ *Emitter) error {
		ctx.ChargeCompute(time.Second)
		return nil
	}}
	snk, _ := e.AddProcessorStage("sink", 0, burner, StageConfig{})
	e.Connect(src, snk, nil)
	sw := clock.NewStopwatch(e.Clock())
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := snk.Stats().ComputeCharged; got != 3*time.Second {
		t.Fatalf("ComputeCharged = %v, want 3s", got)
	}
	if sw.Elapsed() < 3*time.Second {
		t.Fatalf("virtual run time %v < charged compute", sw.Elapsed())
	}
}

func TestLinkBytesCharged(t *testing.T) {
	clk := clock.NewScaled(100000)
	e := New(clk)
	link := netsim.NewLink(clk, netsim.LinkConfig{Bandwidth: netsim.BW100K})
	src, _ := e.AddSourceStage("src", 0, &testSource{values: []int{1, 2, 3}}, StageConfig{})
	snk, _ := e.AddProcessorStage("sink", 0, &collector{}, StageConfig{})
	e.Connect(src, snk, link)
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// 3 data packets (8B each) + 1 final (default 64B).
	if got := link.Stats().Bytes; got != 3*8+64 {
		t.Fatalf("link carried %d bytes, want %d", got, 3*8+64)
	}
}

func TestStageLookup(t *testing.T) {
	e := New(clock.NewManual())
	src, _ := e.AddSourceStage("src", 2, &testSource{}, StageConfig{})
	if got, ok := e.Stage("src", 2); !ok || got != src {
		t.Fatal("Stage lookup failed")
	}
	if _, ok := e.Stage("src", 3); ok {
		t.Fatal("Stage lookup found a ghost")
	}
	if len(e.Stages()) != 1 {
		t.Fatal("Stages() length mismatch")
	}
	src.SetNode("n1")
	if src.Node() != "n1" {
		t.Fatal("SetNode/Node mismatch")
	}
}

// TestAdaptationSlowsOverloadedSampler is the in-engine miniature of
// Figure 8: a fast source, a sampler stage with a sampling-rate parameter,
// and a slow analysis stage. The sampler's rate must fall from its initial
// value once the analysis queue backs up.
func TestAdaptationSlowsOverloadedSampler(t *testing.T) {
	clk := clock.NewScaled(100)
	e := New(clk)

	n := 3000
	vals := make([]int, n)
	src, _ := e.AddSourceStage("sim", 0, &testSource{values: vals, pace: 5 * time.Millisecond}, StageConfig{
		DisableAdaptation: true,
		ComputeQuantum:    50 * time.Millisecond,
	})

	var rate *adapt.Param
	sampler := &testProc{
		init: func(ctx *Context) error {
			var err error
			rate, err = ctx.SpecifyParam(adapt.ParamSpec{
				Name: "rate", Initial: 0.8, Min: 0.01, Max: 1, Step: 0.01,
				Direction: adapt.IncreaseSlowsProcessing,
			})
			return err
		},
		process: func(ctx *Context, pkt *Packet, out *Emitter) error {
			// Forward a pkt with probability rate (deterministic
			// thinning keeps the test stable).
			r := rate.Value()
			if pkt.Seq%100 < uint64(r*100) {
				return out.EmitValue(pkt.Value, 8)
			}
			return nil
		},
	}
	minRate := 1.0
	smp, _ := e.AddProcessorStage("sampler", 0, sampler, StageConfig{
		QueueCapacity: 100,
		AdaptInterval: 100 * time.Millisecond,
		OnAdjust: func(_ *Stage, _ time.Time, adjs []adapt.Adjustment) {
			for _, a := range adjs {
				if a.New < minRate {
					minRate = a.New
				}
			}
		},
	})

	analysis := &testProc{process: func(ctx *Context, _ *Packet, _ *Emitter) error {
		ctx.ChargeCompute(12 * time.Millisecond) // can keep up with ~42% of the 5ms stream
		return nil
	}}
	ana, _ := e.AddProcessorStage("analysis", 0, analysis, StageConfig{
		QueueCapacity:  100,
		AdaptInterval:  100 * time.Millisecond,
		ComputeQuantum: 60 * time.Millisecond,
	})

	e.Connect(src, smp, nil)
	e.Connect(smp, ana, nil)
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The finite stream drains at the end (the rate legitimately climbs
	// back); the congestion response is the dip while analysis lags.
	if minRate >= 0.8 {
		t.Fatalf("sampling rate never fell below its initial 0.8 (min %v) under overload", minRate)
	}
	if rate.Value() < 0.01 || rate.Value() > 1 {
		t.Fatalf("rate %v escaped its bounds", rate.Value())
	}
}

// TestExceptionReachesUpstreamSameEpoch pins the §4 epoch order: in every
// tick the engine observes the downstream stage before its upstream adjusts,
// so an overload exception observed in a tick is in the upstream's T1 in
// that same tick. The downstream queue is held full, so it raises one
// overload exception a tick once d̃ crosses LT2; the upstream adjusts every
// tick, so its T1 must equal that tick's exception count exactly.
func TestExceptionReachesUpstreamSameEpoch(t *testing.T) {
	const interval = 100 * time.Millisecond
	clk := clock.NewManual()
	o := obs.New(clk, obs.Config{})
	e := New(clk)
	e.SetObservability(o)
	src, _ := e.AddSourceStage("src", 0, &testSource{values: make([]int, 50)}, StageConfig{DisableAdaptation: true})
	up, _ := e.AddProcessorStage("up", 0, &testProc{process: func(_ *Context, pkt *Packet, out *Emitter) error {
		return out.EmitValue(pkt.Value, 8)
	}}, StageConfig{AdaptInterval: interval, AdjustEvery: 1})
	release := make(chan struct{})
	overloads := map[time.Time]float64{} // written only by the adaptation loop
	down, _ := e.AddProcessorStage("down", 0, &testProc{process: func(*Context, *Packet, *Emitter) error {
		<-release
		return nil
	}}, StageConfig{
		QueueCapacity: 4, AdaptInterval: interval,
		OnObserve: func(_ *Stage, now time.Time, ob adapt.Observation) {
			if ob.Exception == adapt.ExceptionOverload {
				overloads[now]++
			}
		},
	})
	e.Connect(src, up, nil)
	e.Connect(up, down, nil)
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background()) }()

	eventually(t, "down's queue full and the adaptation loop parked", func() bool {
		return down.QueueLen() == 4 && clk.Waiters() >= 1
	})
	const epochs = 60
	for i := 0; i < epochs; i++ {
		clk.Advance(interval)
		eventually(t, "adaptation loop parked again", func() bool { return clk.Waiters() >= 1 })
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	events := o.Journal.Events(obs.EventFilter{Kind: obs.EventAdaptation, Stage: "up"})
	if len(events) < epochs {
		t.Fatalf("%d adaptation events of up, want >= %d", len(events), epochs)
	}
	withException := 0
	for _, ev := range events[:epochs] {
		t1 := ev.Payload.(obs.Adaptation).T1
		if want := overloads[ev.At]; t1 != want {
			t.Fatalf("epoch at %v: up's T1 %v, want the %v overload exceptions down raised in that tick",
				ev.At.Sub(clock.Epoch), t1, want)
		}
		if t1 > 0 {
			withException++
		}
	}
	if withException < 30 {
		t.Fatalf("%d of %d epochs carried an exception, want >= 30", withException, epochs)
	}
}

func TestPacketHelpers(t *testing.T) {
	p := &Packet{}
	if p.ItemCount() != 1 {
		t.Fatalf("zero Items counted as %d, want 1", p.ItemCount())
	}
	p.Items = 5
	if p.ItemCount() != 5 {
		t.Fatal("Items not honored")
	}
	if p.size() != 64 {
		t.Fatal("default size not applied")
	}
	p.WireSize = 10
	if p.size() != 10 {
		t.Fatal("explicit WireSize not applied")
	}
}

func TestProcessorPanicContained(t *testing.T) {
	e := New(clock.NewScaled(100000))
	src, _ := e.AddSourceStage("src", 0, &testSource{values: []int{1, 2, 3}}, StageConfig{})
	bomb := &testProc{process: func(*Context, *Packet, *Emitter) error {
		panic("stage bug")
	}}
	snk, _ := e.AddProcessorStage("sink", 0, bomb, StageConfig{})
	e.Connect(src, snk, nil)
	err := e.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Run = %v, want contained panic error", err)
	}
	if snk.Err() == nil {
		t.Fatal("panicking stage has no terminal error")
	}
}

func TestSourcePanicContained(t *testing.T) {
	e := New(clock.NewScaled(100000))
	boom := &panicSource{}
	src, _ := e.AddSourceStage("src", 0, boom, StageConfig{})
	snk, _ := e.AddProcessorStage("sink", 0, &collector{}, StageConfig{})
	e.Connect(src, snk, nil)
	if err := e.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Run = %v, want contained panic error", err)
	}
}

type panicSource struct{}

func (panicSource) Run(*Context, *Emitter) error { panic("source bug") }

// TestRandomDAGConservation builds random feed-forward topologies of
// broadcasting pass-through stages and checks flow conservation: with every
// stage forwarding each input to all of its outputs, the items seen at each
// stage must equal the path-counted expectation.
func TestRandomDAGConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		e := New(clock.NewScaled(100000))
		const layers = 4
		perLayer := rng.Intn(3) + 1
		const sourceItems = 40

		type nodeInfo struct {
			st       *Stage
			expected int
		}
		var layerNodes [layers][]nodeInfo

		// Layer 0: sources.
		nSources := rng.Intn(3) + 1
		for i := 0; i < nSources; i++ {
			vals := make([]int, sourceItems)
			st, err := e.AddSourceStage("src", i, &testSource{values: vals}, StageConfig{DisableAdaptation: true})
			if err != nil {
				t.Fatal(err)
			}
			layerNodes[0] = append(layerNodes[0], nodeInfo{st: st, expected: sourceItems})
		}
		// Layers 1..3: pass-through broadcasters.
		passThrough := func() Processor {
			return &testProc{process: func(_ *Context, pkt *Packet, out *Emitter) error {
				if out.Fanout() == 0 {
					return nil
				}
				return out.Emit(&Packet{Value: pkt.Value, WireSize: 8})
			}}
		}
		for l := 1; l < layers; l++ {
			for i := 0; i < perLayer; i++ {
				st, err := e.AddProcessorStage(fmt.Sprintf("l%d", l), i, passThrough(), StageConfig{
					DisableAdaptation: true, QueueCapacity: 4096,
				})
				if err != nil {
					t.Fatal(err)
				}
				layerNodes[l] = append(layerNodes[l], nodeInfo{st: st})
			}
		}
		// Random edges layer by layer: every node connects to >= 1 node
		// of the next layer, and every next-layer node gets >= 1 inbound
		// edge before its own expectation propagates further — each
		// layer's expected counts are final before they flow downstream.
		for l := 0; l < layers-1; l++ {
			for i := range layerNodes[l] {
				tos := rng.Perm(len(layerNodes[l+1]))
				n := rng.Intn(len(tos)) + 1
				for _, j := range tos[:n] {
					if err := e.Connect(layerNodes[l][i].st, layerNodes[l+1][j].st, nil); err != nil {
						t.Fatal(err)
					}
					layerNodes[l+1][j].expected += layerNodes[l][i].expected
				}
			}
			for j := range layerNodes[l+1] {
				if layerNodes[l+1][j].expected == 0 {
					if err := e.Connect(layerNodes[l][0].st, layerNodes[l+1][j].st, nil); err != nil {
						t.Fatal(err)
					}
					layerNodes[l+1][j].expected += layerNodes[l][0].expected
				}
			}
		}
		if err := e.Run(context.Background()); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for l := 1; l < layers; l++ {
			for j, info := range layerNodes[l] {
				got := int(info.st.Stats().ItemsIn)
				if got != info.expected {
					t.Fatalf("trial %d: stage l%d/%d saw %d items, want %d",
						trial, l, j, got, info.expected)
				}
			}
		}
	}
}

// TestMultipleParamsAdjustTogether registers two parameters with opposite
// directions on one stage; under sustained overload the slows-processing one
// must fall while the speeds-processing one rises.
func TestMultipleParamsAdjustTogether(t *testing.T) {
	clk := clock.NewScaled(100)
	e := New(clk)
	vals := make([]int, 2000)
	src, _ := e.AddSourceStage("src", 0, &testSource{values: vals, pace: 5 * time.Millisecond}, StageConfig{
		DisableAdaptation: true, ComputeQuantum: 50 * time.Millisecond,
	})
	var rate, skip *adapt.Param
	proc := &testProc{
		init: func(ctx *Context) error {
			var err error
			rate, err = ctx.SpecifyParam(adapt.ParamSpec{
				Name: "rate", Initial: 0.8, Min: 0.1, Max: 1, Step: 0.01,
				Direction: adapt.IncreaseSlowsProcessing,
			})
			if err != nil {
				return err
			}
			skip, err = ctx.SpecifyParam(adapt.ParamSpec{
				Name: "skip", Initial: 2, Min: 0, Max: 10, Step: 0.1,
				Direction: adapt.IncreaseSpeedsProcessing,
			})
			return err
		},
		process: func(ctx *Context, _ *Packet, _ *Emitter) error {
			ctx.ChargeCompute(15 * time.Millisecond) // 3x the arrival interval
			return nil
		},
	}
	snk, _ := e.AddProcessorStage("sink", 0, proc, StageConfig{
		QueueCapacity:  60,
		AdaptInterval:  100 * time.Millisecond,
		ComputeQuantum: 60 * time.Millisecond,
	})
	e.Connect(src, snk, nil)
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rate.Value() >= 0.8 {
		t.Fatalf("slows-processing param stayed at %v under overload", rate.Value())
	}
	if skip.Value() <= 2 {
		t.Fatalf("speeds-processing param stayed at %v under overload", skip.Value())
	}
}

// TestSourceParamAdjustsViaDownstreamExceptions covers the adjust-only
// adaptation loop of source stages: a source's parameter has no queue of its
// own and must move on downstream exceptions alone.
func TestSourceParamAdjustsViaDownstreamExceptions(t *testing.T) {
	clk := clock.NewScaled(100)
	e := New(clk)
	var rate *adapt.Param
	src, _ := e.AddSourceStage("src", 0, &paramSource{n: 1500, pace: 5 * time.Millisecond, rate: &rate}, StageConfig{
		AdaptInterval: 100 * time.Millisecond,
		AdjustEvery:   2,
	})
	slow := &testProc{process: func(ctx *Context, _ *Packet, _ *Emitter) error {
		ctx.ChargeCompute(15 * time.Millisecond)
		return nil
	}}
	snk, _ := e.AddProcessorStage("sink", 0, slow, StageConfig{
		QueueCapacity:  40,
		AdaptInterval:  100 * time.Millisecond,
		AdjustEvery:    2,
		ComputeQuantum: 60 * time.Millisecond,
	})
	e.Connect(src, snk, nil)
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rate == nil {
		t.Fatal("source never registered its parameter")
	}
	if rate.Value() >= 0.9 {
		t.Fatalf("source parameter stayed at %v despite downstream overload exceptions", rate.Value())
	}
}

// paramSource registers a generation-rate parameter from a source stage.
type paramSource struct {
	n    int
	pace time.Duration
	rate **adapt.Param
}

func (s *paramSource) Run(ctx *Context, out *Emitter) error {
	p, err := ctx.SpecifyParam(adapt.ParamSpec{
		Name: "gen-rate", Initial: 0.9, Min: 0.1, Max: 1, Step: 0.01,
		Direction: adapt.IncreaseSlowsProcessing,
	})
	if err != nil {
		return err
	}
	*s.rate = p
	for i := 0; i < s.n; i++ {
		ctx.ChargeCompute(s.pace)
		if err := out.EmitValue(i, 8); err != nil {
			return err
		}
	}
	return nil
}
