package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/gates-middleware/gates/internal/pipeline"
)

// pong is the hand-shake of the latency probe: the source names the packet
// index whose arrival it is waiting for, the sink signals when it has
// processed it.
type pong struct {
	at atomic.Uint64 // one past the awaited index
	ch chan struct{} // capacity 1: one burst is outstanding at a time
}

func newPong() *pong { return &pong{ch: make(chan struct{}, 1)} }

// source is the benchmark's generator stage. It does a fixed amount of
// warm-up work, then runs the measured phase in one of three ways:
//
//   - closed loop: emit as fast as backpressure allows for a fixed wall time
//     (throughput), then probe latency with one burst in flight at a time —
//     a saturated pipeline's residence time is its queue capacity divided by
//     its throughput, which says nothing throughput did not;
//   - paced on the dueNS wall-clock schedule, every packet stamped with its
//     due time;
//   - paced on the engine's virtual clock, the way the paper's simulation
//     source is, every packet stamped with the virtual time it was emitted.
type source struct {
	gen      *payloads
	wire     int           // Packet.WireSize
	warm     uint64        // warm-up packets: set-up work, not measured
	window   time.Duration // length of the measured phase (virtual when virtRate is set)
	probe    time.Duration // closed loop: how much of window the latency probe takes
	burst    int           // closed loop: packets per probe burst (the stages' batch size)
	pong     *pong         // shared with the sink (not used when virtRate is set)
	rate     float64       // > 0: paced at this many packets per wall second
	virtRate float64       // > 0: this many packets per virtual second, via ChargeCompute
	virt     func() int64  // the virtual clock virtRate stamps with
	tr       *tracer

	onMeasured func() // called once as the measured phase begins
	corrupt    uint64 // test hook: damage the payload of this packet index (0 = none)

	out *pipeline.Emitter

	// Results, read after the engine has stopped.
	idx        uint64 // packets emitted
	measuredAt int64  // nanos() when the measured phase began
	lateNS     []int64
}

func (s *source) emit(stamp int64) error {
	pkt := s.out.GetPacket()
	pkt.WireSize = s.wire
	pkt.Value = s.gen.stamp(s.idx, stamp)
	if s.corrupt != 0 && s.idx == s.corrupt {
		pkt.Value.([]int)[headWords] ^= 1
	}
	s.tr.mark(s.gen.src, s.idx, colEmitStart)
	err := s.out.Emit(pkt)
	s.tr.mark(s.gen.src, s.idx, colEmitEnd)
	s.idx++
	return err
}

func (s *source) Run(ctx *pipeline.Context, out *pipeline.Emitter) error {
	s.out = out
	for s.idx < s.warm {
		if err := s.emit(0); err != nil {
			return err
		}
	}
	switch {
	case s.virtRate > 0:
		return s.virtualLoop(ctx)
	case s.rate > 0:
		return s.paced(ctx)
	}
	if err := s.closedLoop(ctx); err != nil {
		return err
	}
	return s.pingPong(ctx)
}

func (s *source) begin() {
	s.measuredAt = nanos()
	if s.onMeasured != nil {
		s.onMeasured()
	}
}

// closedLoop emits unstamped packets as fast as backpressure allows until a
// wall deadline, checked every 1024 packets, so a trial is the same length
// on any machine and on any commit.
func (s *source) closedLoop(ctx *pipeline.Context) error {
	s.begin()
	deadline := s.measuredAt + int64(s.window-s.probe)
	for {
		if err := s.emit(0); err != nil {
			return err
		}
		if s.idx%1024 == 0 {
			if nanos() >= deadline {
				return nil
			}
			select {
			case <-ctx.Done():
				return nil
			default:
			}
		}
	}
}

// volley emits n packets stamped with stamp (or, when stamp is 0, each with
// the time it was emitted), flushes, and waits until the sink has processed
// the last of them.
func (s *source) volley(ctx *pipeline.Context, n int, stamp int64) error {
	s.pong.at.Store(s.idx + uint64(n))
	for i := 0; i < n; i++ {
		st := stamp
		if st == 0 {
			st = nanos()
		}
		if err := s.emit(st); err != nil {
			return err
		}
	}
	if err := s.out.Flush(); err != nil {
		return err
	}
	select {
	case <-s.pong.ch:
		return nil
	case <-ctx.Done():
		return ctx.Ctx().Err()
	}
}

// pingPong is the closed-loop latency probe: one client, one burst of
// packets in flight. The burst is the stages' batch size because batching
// stages (Emitter, transport.Egress, and transport.Ingress behind a batching
// emitter) hold a packet until its batch fills; the packet count when the
// probe starts is a multiple of 1024, so bursts stay aligned with those
// batches.
func (s *source) pingPong(ctx *pipeline.Context) error {
	deadline := nanos() + int64(s.probe)
	for nanos() < deadline {
		if err := s.volley(ctx, s.burst, 0); err != nil {
			return err
		}
	}
	return nil
}

// paced offers window*rate packets on the uniform schedule, each stamped
// with its due time and sent once its predecessor has arrived. Below
// saturation that is an open loop — a packet takes a fraction of the
// interval, so none ever waits for another — and a stall that outlasts the
// interval delays the packets behind it, which are still timed from when
// they were due. What waiting for the arrival buys is a generator that can
// share the path's one CPU: it polls the clock only while the path is idle.
// (With the generator on a CPU of its own the same path's p50 moved between
// 0.11 and 0.20 ms from one invocation to the next, depending on which idle
// virtual CPU each wake-up landed on; locking the generator to an OS thread
// turns every hand-over into a futex wake-up and doubled p50 and spread.)
func (s *source) paced(ctx *pipeline.Context) error {
	// Start against an idle path: the warm-up burst drains first.
	if err := s.volley(ctx, 1, 0); err != nil {
		return err
	}
	n := uint64(s.window.Seconds() * s.rate)
	s.lateNS = make([]int64, 0, n)
	s.begin()
	for k := uint64(0); k < n; k++ {
		due := s.measuredAt + dueNS(k, s.rate)
		s.lateNS = append(s.lateNS, int64(waitUntil(due)))
		s.tr.markAt(s.gen.src, s.idx, colDue, due)
		if err := s.volley(ctx, 1, due); err != nil {
			return err
		}
	}
	return nil
}

// virtualLoop generates window*virtRate packets, charging the engine's
// virtual clock one inter-packet interval before each (the stage's
// ComputeQuantum batches the sleeps). Backpressure slows this generator as
// it slows the paper's simulation, so packets are stamped with the virtual
// time they were emitted, not a schedule: the latency is how stale the data
// is when the analysis sees it.
func (s *source) virtualLoop(ctx *pipeline.Context) error {
	n := uint64(s.window.Seconds() * s.virtRate)
	interval := time.Duration(float64(time.Second) / s.virtRate)
	s.begin()
	for k := uint64(0); k < n; k++ {
		select {
		case <-ctx.Done():
			return nil
		default:
		}
		ctx.ChargeCompute(interval)
		if err := s.emit(s.virt()); err != nil {
			return err
		}
	}
	return nil
}

// relay forwards its input unchanged: one queue pop, one emit, no work of
// its own, so what a chain of relays costs is what the middleware costs.
type relay struct{}

func (relay) Init(*pipeline.Context) error { return nil }
func (relay) Process(_ *pipeline.Context, pkt *pipeline.Packet, out *pipeline.Emitter) error {
	return out.Emit(pkt)
}
func (relay) Finish(*pipeline.Context, *pipeline.Emitter) error { return nil }

// sink terminates every workload and checks what arrives: per source the
// index must advance by exactly one (or, downstream of a sampler that drops
// by design, strictly increase), the data words must hash to what the
// generator computed, and the stream must end exactly once.
type sink struct {
	gens   []*payloads // by source ordinal
	warm   []uint64    // per source: indices below this are warm-up
	pongs  []*pong     // per source; nil when no source waits for arrivals
	gaps   bool        // a stage upstream drops by design: indices may skip
	closed bool        // closed loop: stamped packets are the latency probe, not throughput
	tick   uint64      // closed loop: the throughput window, in measured packets
	virt   func() int64
	tr     *tracer

	next     []uint64
	arrived  uint64
	verified uint64 // packets that passed every check
	measured uint64 // verified packets of the throughput phase
	post     uint64 // packets past the warm-up, probe included
	badOrder uint64
	badSum   uint64
	finishes int
	firstNS  int64   // arrival of the first measured packet
	lastNS   int64   // end of the throughput phase: first probe packet, or end of stream
	tickNS   []int64 // nanos() at every tick-th measured packet
	latNS    []int64
}

func newSink(gens []*payloads, warm []uint64, tick uint64, tr *tracer) *sink {
	return &sink{
		gens: gens, warm: warm, tick: tick, tr: tr,
		next:   make([]uint64, len(gens)),
		tickNS: make([]int64, 0, 1<<12),
		latNS:  make([]int64, 0, 1<<20),
	}
}

func (k *sink) Init(*pipeline.Context) error { return nil }

func (k *sink) Process(_ *pipeline.Context, pkt *pipeline.Packet, _ *pipeline.Emitter) error {
	vals, ok := pkt.Value.([]int)
	if !ok || len(vals) <= headWords {
		return fmt.Errorf("bench: sink got %T, want the generator's []int", pkt.Value)
	}
	src := vals[wordSrc]
	if src < 0 || src >= len(k.gens) {
		return fmt.Errorf("bench: sink got source ordinal %d of %d", src, len(k.gens))
	}
	idx := uint64(vals[wordIndex])
	k.tr.mark(src, idx, colSinkIn)
	good := true
	if idx != k.next[src] && !(k.gaps && idx > k.next[src]) {
		k.badOrder++
		good = false
	}
	k.next[src] = idx + 1
	if checksum(vals) != k.gens[src].want(idx) {
		k.badSum++
		good = false
	}
	if good {
		k.verified++
	}
	k.arrived++
	stamp := int64(vals[wordStamp])
	if stamp != 0 && k.pongs != nil {
		if p := k.pongs[src]; idx+1 == p.at.Load() {
			p.ch <- struct{}{}
		}
	}
	if idx < k.warm[src] {
		return nil
	}
	k.post++
	if stamp != 0 {
		now := nanos
		if k.virt != nil {
			now = k.virt
		}
		if len(k.latNS) < cap(k.latNS) {
			k.latNS = append(k.latNS, now()-stamp)
		}
		if k.closed {
			// The first probe packet follows the last throughput packet.
			if k.lastNS == 0 {
				k.lastNS = nanos()
			}
			return nil
		}
	}
	if k.firstNS == 0 {
		k.firstNS = nanos()
	}
	if good {
		k.measured++
	}
	if k.tick != 0 && k.measured%k.tick == 0 && len(k.tickNS) < cap(k.tickNS) {
		k.tickNS = append(k.tickNS, nanos())
	}
	return nil
}

func (k *sink) Finish(*pipeline.Context, *pipeline.Emitter) error {
	k.finishes++
	if k.lastNS == 0 {
		k.lastNS = nanos()
	}
	return nil
}

// rates returns the packet rates the measured phase ran at: one per pair of
// consecutive ticks, or, for a workload whose rate is meant to vary over the
// run (tick 0) or a run too short to tick twice, the one rate of the whole
// phase. scale stretches wall time into the workload's own (virtual) time.
func (k *sink) rates(scale float64) []float64 {
	if len(k.tickNS) >= 2 {
		out := make([]float64, 0, len(k.tickNS)-1)
		for i := 1; i < len(k.tickNS); i++ {
			out = append(out, float64(k.tick)/(float64(k.tickNS[i]-k.tickNS[i-1])/1e9*scale))
		}
		return out
	}
	if k.lastNS <= k.firstNS {
		return []float64{0}
	}
	return []float64{float64(k.measured) / (float64(k.lastNS-k.firstNS) / 1e9 * scale)}
}
