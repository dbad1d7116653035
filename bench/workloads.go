package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/apps/compsteer"
	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/grid"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/pipeline"
	"github.com/gates-middleware/gates/internal/queue"
	"github.com/gates-middleware/gates/internal/queuing"
	"github.com/gates-middleware/gates/internal/service"
	"github.com/gates-middleware/gates/internal/transport"
)

// workload is one of the benchmark's five input shapes. Names are final:
// BENCHMARK.json, the README and every result file refer to them.
type workload struct {
	name string
	why  string
	iso  isolation
	sat  bool // closed loop: the measured phase saturates the path
	virt bool // measured in virtual time, which the machine's neighbours cannot disturb
	hops int  // queue hand-offs a packet makes, for pipeline.hop_ns
	// rateQ is the percentile of the tick-window rates reported as
	// throughput; see quiet.
	rateQ float64
	run   func(p trialParams) (*trial, error)
}

// trialParams is what varies between trials of one workload.
type trialParams struct {
	seed    int64
	window  time.Duration // measured phase, wall time
	warm    float64       // scales the fixed warm-up work (1 except under -smoke)
	tr      *tracer       // non-nil for the traced trial
	noObs   bool          // inproc-defaults without its observability bundle
	corrupt uint64        // test hook: packet index whose payload is damaged
}

// pacedRate is tcp-paced's offered load in packets per second. It is frozen
// here (and quoted in BENCHMARK.json) at no more than 40 % of what tcp-sat
// sustains on the machine the benchmark was defined on, so the path runs at
// 10–30 % load: latency there is the cost of the per-packet Send path, not
// of queueing.
const pacedRate = 4000

// adaptScale is adapt-netlimit's virtual seconds per wall second.
const adaptScale = 100

var workloads = []workload{
	{
		name: "inproc-chain",
		why:  "src-relay-relay-sink in one engine at batch 16, no links, no obs: rings, packet pool and the stage drain/emit loop do all the work",
		iso:  isolation{procs: 1, pinned: true},
		sat:  true,
		hops: 3, rateQ: 99,
		run: runInprocChain,
	},
	{
		name: "inproc-defaults",
		why:  "two src-relay legs fanning into one sink at default config (batch 1, capacity 200) with obs attached: per-packet push/pop, MPSC ring, observability tax",
		iso:  isolation{procs: 1, pinned: true},
		sat:  true,
		hops: 2, rateQ: 99,
		run: runInprocDefaults,
	},
	{
		name: "tcp-sat",
		why:  "two engines joined by loopback TCP with batched egress, closed loop: gob codec, WriteFrames, socket and Ingress hand-off do ~99 % of the work",
		iso:  isolation{procs: 1, pinned: true},
		sat:  true,
		hops: 2, rateQ: 75,
		run: func(p trialParams) (*trial, error) { return runTCP(p, false) },
	},
	{
		name: "tcp-paced",
		why:  "same topology with per-packet Send, paced at a fixed 4000 pkt/s: latency of the unbatched path at low load, where a throughput gain predicts no change",
		iso:  isolation{procs: 1, pinned: true},
		hops: 2, rateQ: 50,
		run: func(p trialParams) (*trial, error) { return runTCP(p, true) },
	},
	{
		name: "adapt-netlimit",
		why:  "comp-steer through directory, deployer and launcher over a 10 KB/s emulated link (paper Fig. 9): adapt controller, netsim shaper and scaled clock do the work",
		iso:  isolation{procs: 2},
		virt: true,
		hops: 2, rateQ: 50,
		run: runAdapt,
	},
}

// On a shared machine a neighbour only ever makes a run slower, and here it
// does so in episodes: for seconds to minutes at a time everything CPU-bound
// runs 25–35 % slower, whatever its working set, and a run's median follows
// whichever state most of it fell into (measured: the median tick window of
// inproc-chain ranged 5.2–8.4 M pkt/s over 70 trials while its fastest
// percentile stayed within 8.4–9.4). So the wall-clock metrics report the
// quiet side of many small samples, pooled over a run's trials, instead of
// the median of a few large ones:
//
//   - throughput is the rateQ-th percentile of the rates between the sink's
//     ticks. In process the ticks are ~4 ms apart and rateQ is 99; tcp-sat's
//     must be 250 ms apart, because on one P the sender and receiver halves
//     alternate in 10 ms scheduler slices and a shorter window measures the
//     schedule, which leaves 45 windows and rateQ 75. Unsaturated workloads
//     have one rate per trial and report the median.
//   - latency is the 10th percentile of the medians of consecutive blocks of
//     latBlock samples: the p50 in the quietest tenth of the run.
//   - set-up time is the second fastest of the five set-ups.
//
// A real regression shifts every sample, the quiet ones included.
// adapt-netlimit runs on virtual time and needs none of this.
const (
	latBlock  = 256
	latQuiet  = 10
	setupRank = 1 // index into the sorted set-up times
)

// pps is the workload's throughput estimate over the given trials.
func (w workload) pps(ts ...*trial) summary {
	var pool []float64
	for _, t := range ts {
		pool = append(pool, t.rates...)
	}
	s := summarize(pool, "pkt/s")
	s.Value = percentile(pool, w.rateQ)
	return s
}

// latency is the workload's lat_p50_ms estimate over the given trials.
func (w workload) latency(ts ...*trial) summary {
	var pool []float64
	for _, t := range ts {
		if w.virt {
			pool = append(pool, median(t.latMS))
		} else {
			pool = append(pool, blockMedians(t.latMS, latBlock)...)
		}
	}
	s := summarize(pool, "ms")
	if !w.virt {
		s.Value = percentile(pool, latQuiet)
	}
	return s
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// trial is what one trial of one workload measured.
type trial struct {
	setupS    float64   // trial start to the first measured packet
	rates     []float64 // verified packets per second: per tick window, or of the whole phase
	attempted uint64    // packets the sources sent (adapt-netlimit: the sampler forwarded)
	verified  uint64    // packets that arrived in order with the right checksum
	post      uint64    // packets past the warm-up, latency probe included
	wallS     float64   // whole trial, set-up included
	failed    uint64    // attempted - verified, plus order, checksum and end-marker failures
	latMS     []float64
	lateMS    []float64 // open loop: how late the generator ran
	d         counters  // process counters over the measured phase

	queues []queueStat
	layer  map[string]float64 // workload-specific layer readings
}

type queueStat struct {
	cap int
	s   queue.Stats
}

func (t *trial) goodput() float64 { return float64(t.verified) / float64(t.attempted) }

// baseline snapshots the process counters when the measured phase begins.
// With several sources the first to get there wins.
type baseline struct {
	once  sync.Once
	start counters
}

func (b *baseline) begin() { b.once.Do(func() { b.start = readCounters() }) }

// finish folds a finished run's sources and sink into a trial.
func finish(t0 int64, pr *baseline, srcs []*source, snk *sink, timeScale float64, stages []watched) *trial {
	end := readCounters()
	t := &trial{layer: map[string]float64{}}
	first := int64(math.MaxInt64)
	for _, s := range srcs {
		t.attempted += s.idx
		if s.measuredAt < first {
			first = s.measuredAt
		}
		for _, l := range s.lateNS {
			t.lateMS = append(t.lateMS, float64(l)/1e6)
		}
	}
	t.setupS = float64(first-t0) / 1e9
	t.rates = snk.rates(timeScale)
	t.wallS = float64(nanos()-t0) / 1e9
	t.post = snk.post
	t.judge(snk, t.attempted)
	for _, l := range snk.latNS {
		t.latMS = append(t.latMS, float64(l)/1e6)
	}
	t.d = end.sub(pr.start)
	for _, w := range stages {
		t.queues = append(t.queues, queueStat{cap: w.cap, s: w.st.QueueStats()})
	}
	return t
}

// judge counts the trial's failures against attempted packets: those that
// never arrived or arrived out of order or damaged, a stream that did not end
// exactly once, and more arrivals than were sent.
func (t *trial) judge(snk *sink, attempted uint64) {
	t.attempted, t.verified = attempted, snk.verified
	t.failed = snk.badOrder + snk.badSum
	if attempted > snk.verified {
		t.failed += attempted - snk.verified
	}
	if snk.arrived > attempted || snk.finishes != 1 {
		t.failed++
	}
}

// watched is a stage whose input queue the layer metrics read, with the
// capacity the benchmark configured it with.
type watched struct {
	st  *pipeline.Stage
	cap int
}

// slots is the payload ring length: above every workload's in-flight bound
// (inproc-chain, the deepest, holds three queues of 1024 plus four batches).
const slots = 1 << 13

func warmCount(n uint64, scale float64) uint64 {
	w := uint64(float64(n) * scale)
	// Whole multiples of 1024, so every batch boundary downstream falls
	// between phases and never inside one.
	return (w/1024 + 1) * 1024
}

// closeLoop configures sources and sink for a closed-loop trial: five sixths
// of the window saturated for throughput, one sixth probing latency.
func closeLoop(p trialParams, burst int, snk *sink, srcs ...*source) {
	snk.closed = true
	for _, s := range srcs {
		s.window, s.probe, s.burst, s.pong = p.window, p.window/6, burst, newPong()
		snk.pongs = append(snk.pongs, s.pong)
	}
}

// addProc and addSrc register stages; a failure is a bug in the benchmark's
// own constant ids, not an input error.
func addProc(e *pipeline.Engine, id string, inst int, p pipeline.Processor, cfg pipeline.StageConfig) watched {
	st, err := e.AddProcessorStage(id, inst, p, cfg)
	if err != nil {
		panic(err)
	}
	c := cfg.QueueCapacity
	if c == 0 {
		c = 200 // StageConfig's documented default
	}
	return watched{st: st, cap: c}
}

func addSrc(e *pipeline.Engine, id string, inst int, s pipeline.Source, cfg pipeline.StageConfig) *pipeline.Stage {
	st, err := e.AddSourceStage(id, inst, s, cfg)
	if err != nil {
		panic(err)
	}
	return st
}

func connect(e *pipeline.Engine, chain ...*pipeline.Stage) {
	for i := 0; i+1 < len(chain); i++ {
		if err := e.Connect(chain[i], chain[i+1], nil); err != nil {
			panic(err)
		}
	}
}

// runInprocChain: the raw data path. Manual clock (never advanced, so no
// timer fires), nil links, adaptation off, unobserved, 64-byte packets.
func runInprocChain(p trialParams) (*trial, error) {
	t0 := nanos()
	pr := &baseline{}
	gen := newPayloads(p.seed, 0, slots, 8)
	warm := warmCount(2_000_000, p.warm)
	snk := newSink([]*payloads{gen}, []uint64{warm}, 1<<15, p.tr)
	src := &source{gen: gen, wire: 64, warm: warm, tr: p.tr, onMeasured: pr.begin, corrupt: p.corrupt}
	closeLoop(p, 16, snk, src)

	e := pipeline.New(clock.NewManual())
	e.SetDefaultBatchSize(16)
	cfg := pipeline.StageConfig{DisableAdaptation: true, QueueCapacity: 1024}
	s := addSrc(e, "src", 0, src, cfg)
	r1 := addProc(e, "relay1", 0, traced(relay{}, p.tr, colRelay1In), cfg)
	r2 := addProc(e, "relay2", 0, traced(relay{}, p.tr, colRelay2In), cfg)
	k := addProc(e, "sink", 0, snk, cfg)
	connect(e, s, r1.st, r2.st, k.st)
	if err := e.Run(context.Background()); err != nil {
		return nil, err
	}
	return finish(t0, pr, []*source{src}, snk, 1, []watched{r1, r2, k}), nil
}

// runInprocDefaults: what gates-launcher and gates-node build when nobody
// tunes anything — zero-value StageConfig, real clock, observability bundle
// attached — with a fan-in so the sink's input is the MPSC ring.
func runInprocDefaults(p trialParams) (*trial, error) {
	t0 := nanos()
	pr := &baseline{}
	clk := clock.NewReal()
	e := pipeline.New(clk)
	if !p.noObs {
		e.SetObservability(obs.New(clk, obs.Config{}))
	}
	warm := warmCount(250_000, p.warm)
	gens := []*payloads{newPayloads(p.seed, 0, slots, 8), newPayloads(p.seed, 1, slots, 8)}
	snk := newSink(gens, []uint64{warm, warm}, 1<<13, p.tr)
	k := addProc(e, "sink", 0, snk, pipeline.StageConfig{})
	stages := []watched{k}
	var srcs []*source
	for i, g := range gens {
		src := &source{gen: g, wire: 64, warm: warm, tr: p.tr, onMeasured: pr.begin}
		if i == 0 {
			src.corrupt = p.corrupt
		}
		srcs = append(srcs, src)
		s := addSrc(e, "src", i, src, pipeline.StageConfig{})
		r := addProc(e, "relay", i, traced(relay{}, p.tr, colRelay1In), pipeline.StageConfig{})
		connect(e, s, r.st, k.st)
		stages = append(stages, r)
	}
	closeLoop(p, 1, snk, srcs...)
	if err := e.Run(context.Background()); err != nil {
		return nil, err
	}
	return finish(t0, pr, srcs, snk, 1, stages), nil
}

// ingressBuf is the Ingress channel depth of the TCP workloads. gates-node
// uses 256 and lets the overflow park in Ingress's pending list; this
// benchmark's sink found that a packet taken from that list can overtake a
// full channel of older ones (Run sees the channel empty, Deliver refills it
// from the list, Run then pops the list's new head), which tcp-sat on one P
// hits in about half its trials. A workload must not fail by design, and
// this change may not touch the transport, so the channel is made deep
// enough that the list stays empty; the order check stays on and reports it
// if it ever is not.
const ingressBuf = 1 << 13

// runTCP: the gates-node shape in one process. An edge engine feeds a
// transport.Egress over loopback TCP into a central engine's
// transport.Ingress. Saturated, the egress batches 16 frames per write and
// the engines drain 16 packets per wake-up; paced, everything is per packet.
func runTCP(p trialParams, paced bool) (*trial, error) {
	t0 := nanos()
	pr := &baseline{}
	gen := newPayloads(p.seed, 0, slots, 128)
	cfg := pipeline.StageConfig{DisableAdaptation: true, QueueCapacity: 1024}
	warm, tick, batch := warmCount(20_000, p.warm), uint64(1<<13), 16
	if paced {
		cfg.QueueCapacity = 0
		warm, tick, batch = warmCount(8_000, p.warm), 0, 1
	}
	snk := newSink([]*payloads{gen}, []uint64{warm}, tick, p.tr)
	src := &source{gen: gen, wire: 1024, warm: warm, tr: p.tr, onMeasured: pr.begin, corrupt: p.corrupt}
	if paced {
		src.rate, src.window, src.pong = pacedRate, p.window, newPong()
		snk.pongs = []*pong{src.pong}
	} else {
		closeLoop(p, batch, snk, src)
	}

	ing := transport.NewIngress(1, ingressBuf)
	srv, err := transport.Listen("127.0.0.1:0", tracedHandler(ing.Deliver, p.tr))
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	cli, err := transport.Dial(srv.Addr())
	if err != nil {
		return nil, err
	}
	defer cli.Close()

	clk := clock.NewReal()
	central := pipeline.New(clk)
	central.SetDefaultBatchSize(batch)
	in := addSrc(central, "ingress", 0, ing, cfg)
	k := addProc(central, "sink", 0, snk, cfg)
	connect(central, in, k.st)

	eg := transport.NewEgressBatch(cli, batch) // batch 1 is NewEgress: every packet its own Send
	edge := pipeline.New(clk)
	edge.SetDefaultBatchSize(batch)
	s := addSrc(edge, "src", 0, src, cfg)
	egStage := addProc(edge, "egress", 0, traced(eg, p.tr, colEgressIn), cfg)
	connect(edge, s, egStage.st)

	errs := make(chan error, 2) // one send per engine
	go func() { errs <- central.Run(context.Background()) }()
	go func() { errs <- edge.Run(context.Background()) }()
	if err := errors.Join(<-errs, <-errs); err != nil {
		return nil, err
	}
	cs := cli.Stats()
	t := finish(t0, pr, []*source{src}, snk, 1, []watched{egStage, k})
	// Frames carry a 4-byte length prefix the client's byte counter leaves
	// out. The end-of-stream marker is one frame more than the packets.
	t.layer["transport.wire_bytes_per_pkt"] = float64(cs.BytesOut+4*cs.FramesOut) / float64(t.verified)
	return t, nil
}

// adaptTrace is the sampling rate the middleware chose over virtual time: a
// step function, one step per adjustment.
type adaptTrace struct {
	mu    sync.Mutex
	t0    time.Time
	at    []float64 // virtual seconds since t0
	value []float64
	excs  int // load exceptions the analysis stage raised
	obsns int // queue observations it made
}

func (a *adaptTrace) onAdjust(_ *pipeline.Stage, now time.Time, adjs []adapt.Adjustment) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, adj := range adjs {
		a.at = append(a.at, now.Sub(a.t0).Seconds())
		a.value = append(a.value, adj.New)
	}
}

func (a *adaptTrace) onObserve(_ *pipeline.Stage, _ time.Time, o adapt.Observation) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.obsns++
	if o.Exception != adapt.ExceptionNone {
		a.excs++
	}
}

// integrate returns the time-weighted mean of f(value) over [from, to)
// virtual seconds, the value before the first adjustment being initial.
func (a *adaptTrace) integrate(initial, from, to float64, f func(float64) float64) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if to <= from {
		return math.NaN()
	}
	var sum float64
	cur, at := initial, from
	for i, t := range a.at {
		if t >= to {
			break
		}
		if t > at {
			sum += f(cur) * (t - at)
			at = t
		}
		cur = a.value[i]
	}
	sum += f(cur) * (to - at)
	return sum / (to - from)
}

const (
	adaptGenRate   = 40_000 // bytes per virtual second
	adaptPacket    = 500    // bytes
	adaptLinkBW    = 10_000 // bytes per virtual second
	adaptInitial   = 0.01
	adaptWarmVirtS = 60 // the discarded warm-up run, virtual seconds
)

// sustainableRate asks the §4.1 queueing model where the sampling rate
// should settle: generator -> sampler -> link -> analysis.
func sustainableRate() (float64, error) {
	n := queuing.New()
	for _, st := range []queuing.Station{
		{Name: "sampler"},
		{Name: "link", ServiceRate: adaptLinkBW},
		{Name: "analysis", ServiceRate: math.Inf(1)},
	} {
		if err := n.AddStation(st); err != nil {
			return 0, err
		}
	}
	if err := errors.Join(
		n.Route("sampler", "link", 1),
		n.Route("link", "analysis", 1),
		n.SetArrival("sampler", adaptGenRate),
	); err != nil {
		return 0, err
	}
	return n.SustainableFraction("sampler")
}

// runAdapt: the paper's Figure 9 at one generation rate. The simulation and
// the analysis are the benchmark's stamping source and checking sink; the
// sampler between them, and everything that places, wires and adapts it, is
// the program's.
func runAdapt(p trialParams) (*trial, error) {
	t0 := nanos()
	// Warm-up is a whole discarded run: first-use costs (pool fill, timer
	// heap, scheduler threads) are paid as set-up work.
	warm, err := newAdaptApp(p, time.Duration(float64(adaptWarmVirtS)*p.warm*float64(time.Second)), &baseline{})
	if err != nil {
		return nil, err
	}
	if _, err := warm.launch(); err != nil {
		return nil, err
	}

	pr := &baseline{}
	virt := time.Duration(float64(p.window) * adaptScale)
	a, err := newAdaptApp(p, virt, pr)
	if err != nil {
		return nil, err
	}
	run, err := a.launch()
	if err != nil {
		return nil, err
	}
	sampler, _ := run.Stage("sampler", 0)
	analysis, _ := run.Stage("analysis", 0)
	// Everything on this workload is virtual time.
	t := finish(t0, pr, []*source{a.src}, a.snk, adaptScale, []watched{{sampler, 100}, {analysis, 50}})
	// The sampler drops by design: what it forwarded is what was attempted
	// on the constrained path, and the sink may not see more than that.
	t.judge(a.snk, sampler.Stats().PacketsOut)

	want, err := sustainableRate()
	if err != nil {
		return nil, err
	}
	tr, dur := a.trace, virt.Seconds()
	settled := tr.integrate(adaptInitial, 0.6*dur, dur, func(v float64) float64 { return v })
	t.layer["adapt.settled_value"] = settled
	t.layer["adapt.closeness"] = 1 - math.Abs(settled-want)/want
	t.layer["adapt.tracking"] = 1 - tr.integrate(adaptInitial, 0, dur, func(v float64) float64 { return math.Abs(v-want) / want })
	t.layer["adapt.wobble_sd"] = math.Sqrt(tr.integrate(adaptInitial, 0.6*dur, dur, func(v float64) float64 { return (v - settled) * (v - settled) }))
	if tr.obsns > 0 {
		t.layer["adapt.exceptions_per_epoch"] = float64(tr.excs) / float64(tr.obsns)
	}
	ls := a.link.Stats()
	t.layer["netsim.link_util_frac"] = float64(ls.Bytes) / (adaptLinkBW * dur)
	t.layer["netsim.link_wait_frac"] = ls.Waited.Seconds() / dur
	t.layer["transport.wire_bytes_per_pkt"] = float64(ls.Bytes) / float64(t.verified)
	return t, nil
}

// adaptApp is the comp-steer application as the service layer sees it: a
// grid, a network, a code repository and a descriptor.
type adaptApp struct {
	clk    *clock.Scaled
	dir    *grid.Directory
	net    *netsim.Network
	link   *netsim.Link
	repo   *service.Repository
	cfg    *service.AppConfig
	tuning service.StageTuning
	src    *source
	snk    *sink
	trace  *adaptTrace
}

func newAdaptApp(p trialParams, virt time.Duration, pr *baseline) (*adaptApp, error) {
	a := &adaptApp{clk: clock.NewScaled(adaptScale), dir: grid.NewDirectory(), repo: service.NewRepository()}
	vnow := func() int64 { return int64(a.clk.Now().Sub(clock.Epoch)) }
	if err := errors.Join(
		a.dir.Register(grid.Node{Name: "sim-node", CPUPower: 2, MemoryMB: 2048, Slots: 2, Sources: []string{"mesh"}}),
		a.dir.Register(grid.Node{Name: "analysis-node", CPUPower: 2, MemoryMB: 2048}),
	); err != nil {
		return nil, err
	}
	a.net = netsim.NewNetwork(a.clk)
	a.link = a.net.Connect("sim-node", "analysis-node", netsim.LinkConfig{
		Bandwidth: adaptLinkBW, Quantum: 100 * time.Millisecond,
	})

	gen := newPayloads(p.seed, 0, slots, adaptPacket/8)
	a.snk = newSink([]*payloads{gen}, []uint64{0}, 0, p.tr)
	a.snk.gaps, a.snk.virt = true, vnow
	a.src = &source{
		gen: gen, wire: adaptPacket, virtRate: float64(adaptGenRate) / adaptPacket, window: virt,
		virt: vnow, tr: p.tr, onMeasured: pr.begin, corrupt: p.corrupt,
	}
	spec := compsteer.DefaultSamplerSpec()
	spec.Initial = adaptInitial
	if err := errors.Join(
		a.repo.RegisterSource("bench/sim", func(int) pipeline.Source { return a.src }),
		a.repo.RegisterProcessor("compsteer/sampler", func(int) pipeline.Processor { return &compsteer.Sampler{Spec: spec} }),
		a.repo.RegisterProcessor("bench/analysis", func(int) pipeline.Processor { return a.snk }),
	); err != nil {
		return nil, err
	}
	a.cfg = &service.AppConfig{
		Name: "comp-steer",
		Stages: []service.StageDef{
			{ID: "sim", Code: "bench/sim", Source: true, NearSources: []string{"mesh"}},
			{ID: "sampler", Code: "compsteer/sampler", NearSources: []string{"mesh"}},
			{ID: "analysis", Code: "bench/analysis"},
		},
		Connections: []service.ConnDef{{From: "sim", To: "sampler"}, {From: "sampler", To: "analysis"}},
	}
	a.trace = &adaptTrace{t0: a.clk.Now()}
	a.tuning = func(stageID string, _ int) pipeline.StageConfig {
		switch stageID {
		case "sim":
			return pipeline.StageConfig{DisableAdaptation: true, ComputeQuantum: 100 * time.Millisecond}
		case "sampler":
			return pipeline.StageConfig{
				QueueCapacity: 100, AdaptInterval: 500 * time.Millisecond, AdjustEvery: 2,
				OnAdjust: a.trace.onAdjust,
			}
		default:
			return pipeline.StageConfig{
				QueueCapacity: 50, AdaptInterval: 500 * time.Millisecond, AdjustEvery: 2,
				ComputeQuantum: 200 * time.Millisecond, OnObserve: a.trace.onObserve,
			}
		}
	}
	return a, nil
}

// serviceRungs times the control plane's two set-up steps on the comp-steer
// descriptor: Plan (with the Release that undoes its reservations) and
// Deploy (plan, instantiate, wire; released likewise).
func serviceRungs(each time.Duration) (planNS, deployNS float64, err error) {
	a, err := newAdaptApp(trialParams{}, time.Second, &baseline{})
	if err != nil {
		return 0, 0, err
	}
	dep, err := service.NewDeployer(a.clk, a.dir, a.repo, a.net)
	if err != nil {
		return 0, 0, err
	}
	planNS = rung(each, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			var plan *service.Plan
			if plan, err = dep.Plan(a.cfg); err == nil {
				dep.Planner().Release(plan)
			}
		}
	})
	deployNS = rung(each, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			var d *service.Deployment
			if d, err = dep.Deploy(a.cfg, a.tuning); err == nil {
				dep.Planner().Release(d.Plan)
			}
		}
	})
	return planNS, deployNS, err
}

// launch deploys the application through the launcher and runs it to the end
// of its stream.
func (a *adaptApp) launch() (*service.Application, error) {
	dep, err := service.NewDeployer(a.clk, a.dir, a.repo, a.net)
	if err != nil {
		return nil, err
	}
	launcher, err := service.NewLauncher(dep)
	if err != nil {
		return nil, err
	}
	run, err := launcher.LaunchConfig(context.Background(), a.cfg, a.tuning)
	if err != nil {
		return nil, err
	}
	if err := run.Wait(); err != nil {
		return nil, fmt.Errorf("adapt-netlimit run: %w", err)
	}
	return run, nil
}
