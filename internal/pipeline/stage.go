package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/queue"
)

// Processor is the user-supplied processing code of a packet-driven stage —
// the Go analog of the paper's StreamProcessor with its work(in, out)
// method, split into lifecycle calls.
type Processor interface {
	// Init runs once before the first packet. Register adjustment
	// parameters here with ctx.SpecifyParam.
	Init(ctx *Context) error
	// Process handles one packet and may emit any number of packets.
	Process(ctx *Context, pkt *Packet, out *Emitter) error
	// Finish runs after every input stream has delivered its final
	// packet; flush remaining state here.
	Finish(ctx *Context, out *Emitter) error
}

// Source is the user-supplied generator of a stage with no input streams.
// Run should emit packets until the stream is exhausted or ctx.Done fires.
type Source interface {
	// Run generates the stage's output. Returning nil ends the stream.
	Run(ctx *Context, out *Emitter) error
}

// StageConfig tunes one stage instance.
type StageConfig struct {
	// QueueCapacity is C, the capacity of the input buffer. Default 200.
	QueueCapacity int
	// Adapt configures the §4 algorithm for this stage. Zero-valued
	// fields default per adapt.Defaults with the stage's queue capacity.
	Adapt adapt.Options
	// DisableAdaptation turns the adaptation loop off (used by the
	// paper's fixed-parameter baseline versions).
	DisableAdaptation bool
	// AdaptInterval is the virtual-time spacing of queue observations.
	// Default 200ms.
	AdaptInterval time.Duration
	// AdjustEvery applies the ΔP law once per this many observations.
	// Default 4.
	AdjustEvery int
	// DefaultPacketSize is the wire size charged for packets that do not
	// set one. Default 64 bytes.
	DefaultPacketSize int
	// BatchSize is the number of packets the stage drains from its input
	// queue per wakeup and coalesces per downstream flush. 1 preserves
	// strict per-packet semantics (every emission paces its link and
	// enqueues individually); larger values amortize the queue lock, link
	// shaper, and wakeup traffic across the batch without changing packet
	// order, link byte accounting, or stage totals. Zero inherits the
	// engine default (see Engine.SetDefaultBatchSize), which is 1.
	BatchSize int
	// ComputeQuantum batches ChargeCompute sleeps (see clock.Pacer):
	// the stage blocks once its accumulated virtual work reaches this
	// much. Zero sleeps on every charge.
	ComputeQuantum time.Duration
	// ReplayBuffer, when positive, turns the stage's fault-tolerance
	// surface on: every outbound edge keeps a bounded ring of the last
	// ReplayBuffer emitted data packets for sequence replay after a
	// downstream recovery, and the drain loops deduplicate received
	// packets by per-upstream sequence watermark (see ft.go). Zero
	// inherits the engine default (Engine.SetDefaultReplayBuffer);
	// negative disables explicitly.
	ReplayBuffer int
	// OnAdjust, when non-nil, observes every parameter adjustment —
	// the hook behind the Figure 8/9 convergence traces.
	OnAdjust func(st *Stage, now time.Time, adjs []adapt.Adjustment)
	// OnObserve, when non-nil, observes every queue sample.
	OnObserve func(st *Stage, now time.Time, obs adapt.Observation)
}

func (c *StageConfig) fill() {
	if c.QueueCapacity == 0 {
		c.QueueCapacity = 200
	}
	if c.Adapt.Capacity == 0 {
		c.Adapt.Capacity = c.QueueCapacity
	}
	if c.AdaptInterval == 0 {
		c.AdaptInterval = 200 * time.Millisecond
	}
	if c.AdjustEvery == 0 {
		c.AdjustEvery = 4
	}
	if c.DefaultPacketSize == 0 {
		c.DefaultPacketSize = 64
	}
}

// StageStats counts a stage's lifetime activity. A stage counts on its own
// goroutine and publishes per run (see publishLocal): a snapshot is exact
// whenever the stage is blocked inside the middleware (empty input, full
// downstream buffer, link transfer, ChargeCompute), Paused or stopped, and
// trails a running stage by at most runLag = 15 consumed packets — for a
// source, 15 emissions, which one that then waits on something of its own
// holds until its next ChargeCompute, link transfer, park or blocking push
// (the sixteenth emission at the latest).
type StageStats struct {
	// PacketsIn and ItemsIn count consumed data packets and their items.
	PacketsIn, ItemsIn uint64
	// PacketsOut, ItemsOut and BytesOut count emissions.
	PacketsOut, ItemsOut, BytesOut uint64
	// ComputeCharged is the total virtual compute time charged via
	// Context.ChargeCompute.
	ComputeCharged time.Duration
	// EmitStall is the cumulative wall-clock time this stage's emit paths
	// spent pushing into a downstream buffer that was full at the moment
	// of the push — the blocked-emit side of backpressure attribution.
	// Only maintained when the stage is observed (Engine observability
	// attached); the untraced hot path never checks downstream occupancy.
	EmitStall time.Duration
	// DupsDropped counts received packets discarded by the fault-tolerance
	// watermark dedupe (replay overlap or re-delivery). Always zero when
	// fault tolerance is off for the stage.
	DupsDropped uint64
}

// Stage is one deployed stage instance: the paper's "instance of the GATES
// grid service" customized with user code.
type Stage struct {
	id       string
	instance int
	node     string

	proc Processor
	src  Source

	cfg   StageConfig
	clk   clock.Clock
	pacer *clock.Pacer
	// in is the stage's input buffer: an MPSC ring from registration on,
	// replaced once (under mu) by Engine.Run with an SPSC ring when exactly
	// one upstream stage feeds it, before any stage goroutine exists. Hot
	// loops read it directly (they start after the swap); external
	// observers go through inq(). A source's ring stays empty.
	in   *queue.Ring[*Packet]
	ctrl *adapt.Controller

	// o, the trace ops, and the owned histograms are set before the stage
	// goroutine starts (Engine.Run) and never change while running; nil
	// means unobserved. Each stage gets its own trace ops so concurrent
	// stages sample without sharing a counter cache line.
	o        *obs.Observability
	procOp   *obs.Op
	batchOp  *obs.Op
	flushOp  *obs.Op
	batchSec *obs.Histogram
	// lat carries the latency scratches from Instrument — which a monitor
	// attached after launch calls while the stage runs — to the stage
	// goroutine, which adopts the pair into scr at the start of each run or
	// drained batch and alone records into and flushes it, so the
	// per-packet path never touches the shared histograms' atomics.
	lat atomic.Pointer[latencyScratch]
	scr *latencyScratch
	// rootSmp mints trace ids for source emissions on the tracer's
	// cadence (nil for processor stages or unobserved engines).
	rootSmp *obs.RootSampler
	// curIn identifies the input packet currently inside Process, and
	// curForwarded records that the processor re-emitted that same
	// packet downstream (its reference then belongs to the downstream
	// queue, so the drain loop must not recycle it). The lineage of the
	// current input is copied into curBirth/curTraceID/curTraceHops at
	// consumption — value copies, not a packet reference — so emissions
	// inherit it even after the input packet has been recycled, and it
	// stays set through Finish so flushes of accumulated state inherit
	// the last consumed packet's lineage. All five are confined to the
	// stage goroutine.
	curIn        *Packet
	curForwarded bool
	curBirth     time.Time
	curTraceID   uint64
	curTraceHops uint8

	// recycle is the drain loop's local cache of fully released packets,
	// returned to the shared pool in bulk (flushRecycle) so consuming a
	// batch costs one ring CAS instead of one per packet. Confined to the
	// stage goroutine.
	recycle []*Packet

	// emitSeq numbers this stage's emissions. Only the stage goroutine's
	// emit paths touch it, so it needs no lock.
	emitSeq uint64

	// local accumulates the stage's counters between publishes; runLen
	// counts the packets (consumed ones; emitted ones for a source) since a
	// pop or push last took the blocking path, which is where the run ctx
	// is consulted; arrivedNS caches the drain side's clock read for the
	// covered packets that were already queued when it was taken. Confined
	// to the stage goroutine; see publishLocal.
	local     StageStats
	runLen    int
	arrivedNS int64
	covered   int

	// marks is the per-upstream consumed-sequence watermark table; non-nil
	// means fault tolerance is on for this stage (see ft.go). Confined to
	// the stage goroutine, except for the paused-only accessors that ride
	// the pause handshake's happens-before edge. replayOn caches "any
	// outbound edge records a replay ring" for the emit paths.
	marks    []UpstreamMark
	replayOn bool

	// emitStalled is the edge-trigger latch for stall-onset journal
	// events: set on the first emission that finds a downstream buffer
	// full, cleared by the next one that finds space. Confined to the
	// stage goroutine like the emit paths themselves.
	emitStalled bool

	outs     []*edge
	upstream []*Stage

	// Lifecycle machinery (see lifecycle.go). state is the StageState;
	// pauseReq is the hot-path flag drain loops and source emitters poll;
	// pauseMu guards the per-pause-epoch channels and the pop context's
	// cancel. pauseWake and popCtx are the current epoch: written only under
	// pauseMu (bindRunContext, Pause, Resume), read with one atomic load.
	state     atomic.Int32
	pauseReq  atomic.Bool
	pauseMu   sync.Mutex
	pausedCh  chan struct{}
	resumeCh  chan struct{}
	pauseWake atomic.Pointer[chan struct{}] // closed while a pause is pending; re-armed by Resume
	// midEmit marks the goroutine parked inside emit with a stamped packet
	// still in hand — a liveness boundary, not a consistent cut. Snapshot
	// and restore controllers must treat such a pause as uncheckpointable.
	midEmit   atomic.Bool
	runCtx    context.Context
	popCtx    atomic.Pointer[context.Context]
	popCancel context.CancelFunc

	mu      sync.Mutex
	stats   StageStats
	finals  int // Final packets received
	inbound int // number of inbound edges
	started bool
	doneCh  chan struct{}
	adaptCh chan struct{}
	err     error
}

// edge is a directed connection to a downstream stage, optionally through an
// emulated link. The link pointer is atomic so live re-deployment can rewire
// a moved stage while upstream emitters keep flowing. replay, held, and
// scratch are the fault-tolerance surface (see ft.go): the bounded record of
// recent emissions, packets parked by reorder injection, and the flush-path
// delivery scratch — all confined to the emitting stage goroutine except
// replay, which the recovery controller reads while the emitter is paused.
type edge struct {
	link    atomic.Pointer[netsim.Link]
	to      *Stage
	replay  *replayRing
	held    []heldPacket
	scratch []*Packet
}

// ID returns the stage's identifier within the application.
func (s *Stage) ID() string { return s.id }

// Instance returns the instance ordinal within the stage.
func (s *Stage) Instance() int { return s.instance }

// Node returns the grid node name this instance was deployed on ("" when
// undeployed, e.g. in unit tests).
func (s *Stage) Node() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.node
}

// SetNode records the deployment node; the Deployer calls it at deploy time
// and migration calls it again when the instance moves.
func (s *Stage) SetNode(node string) {
	s.mu.Lock()
	s.node = node
	s.mu.Unlock()
}

// Controller returns the stage's adaptation controller.
func (s *Stage) Controller() *adapt.Controller { return s.ctrl }

// inq returns the stage's input buffer for external observers. The buffer
// reference may be swapped once by Engine.Run before the stage goroutines
// start; reading it under mu keeps observers that instrument a stage
// concurrently with engine startup (monitor, migration) race-free.
func (s *Stage) inq() *queue.Ring[*Packet] {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.in
}

// QueueLen returns the current input-queue occupancy.
func (s *Stage) QueueLen() int { return s.inq().Len() }

// QueueStats returns the input queue's counters.
func (s *Stage) QueueStats() queue.Stats { return s.inq().Stats() }

// Stats returns a snapshot of the stage's activity counters.
func (s *Stage) Stats() StageStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Err returns the stage's terminal error, if any, once it has stopped.
func (s *Stage) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Context is the API surface the middleware offers to user code — the Go
// analog of the paper's self-adaptation API plus stage identity and the
// virtual clock.
type Context struct {
	stage *Stage
	ctx   context.Context
}

// StageID returns the hosting stage's identifier.
func (c *Context) StageID() string { return c.stage.id }

// Instance returns the hosting instance ordinal.
func (c *Context) Instance() int { return c.stage.instance }

// Node returns the grid node the instance runs on.
func (c *Context) Node() string { return c.stage.Node() }

// Clock returns the stage's virtual clock.
func (c *Context) Clock() clock.Clock { return c.stage.clk }

// Done returns the cancellation channel of the run.
func (c *Context) Done() <-chan struct{} { return c.ctx.Done() }

// Ctx returns the run's context.
func (c *Context) Ctx() context.Context { return c.ctx }

// SpecifyParam exposes an adjustment parameter to the middleware — the
// paper's specifyPara(init, min, max, increment, direction). The returned
// Param's Value method is getSuggestedValue().
func (c *Context) SpecifyParam(spec adapt.ParamSpec) (*adapt.Param, error) {
	return c.stage.ctrl.Register(spec)
}

// Param returns a previously specified parameter by name.
func (c *Context) Param(name string) (*adapt.Param, bool) {
	return c.stage.ctrl.Param(name)
}

// BatchSize returns the stage's resolved drain/coalesce batch size (>= 1).
func (c *Context) BatchSize() int { return c.stage.cfg.BatchSize }

// PauseRequested returns a channel that is closed while a pause of this
// stage is pending — a cooperative wake-up for sources that block outside
// the emit path (a network ingress waiting for frames, a poller sleeping on
// an external feed). A woken source calls PauseBoundary to park; Resume
// re-arms the channel, so select on a fresh call each loop iteration.
func (c *Context) PauseRequested() <-chan struct{} { return *c.stage.pauseWake.Load() }

// PauseBoundary parks the calling source goroutine when a pause is pending
// (a no-op otherwise), returning once the stage is resumed. It returns the
// run context's error when the run is canceled while parked — the source
// should return that error from Run.
func (c *Context) PauseBoundary() error { return c.stage.parkIfRequested(c.ctx) }

// ChargeCompute charges d of virtual processing time for the current work
// item, blocking per the stage's ComputeQuantum batching. The paper's
// applications paid this cost in real JVM time; charging it against the
// virtual clock keeps every rate ratio while letting experiments run fast.
func (c *Context) ChargeCompute(d time.Duration) {
	if d <= 0 {
		return
	}
	// The charge may sleep, so the run ends first (the one lock this call
	// has always taken).
	c.stage.local.ComputeCharged += d
	c.stage.publishLocal()
	c.stage.pacer.Charge(d)
}

// Emitter sends packets to a stage's downstream neighbors. With a stage
// BatchSize above 1 it runs buffered: emissions are stamped immediately (so
// sequence numbers and Created times match the unbatched schedule) but held
// in per-edge buffers, and a flush moves each buffer downstream with one
// link reservation and one queue operation. The Emitter is confined to the
// owning stage goroutine, so the buffers need no locking.
type Emitter struct {
	stage *Stage
	ctx   context.Context

	batch    int         // <= 1 means unbuffered
	pending  [][]*Packet // per outbound edge, only when batch > 1
	buffered int         // total pending entries across edges

	// poolMissed is the edge-trigger latch for pool-exhaustion journal
	// events: set on the first refill that comes back empty, cleared by
	// the next one that finds pooled packets. Stage-goroutine confined.
	poolMissed bool

	// free is the emitter-local packet cache: GetPacket pops from it and
	// refills it from the shared pool in bulk (one CAS per localCacheSize
	// packets instead of one per packet). Confined to the stage goroutine
	// like the rest of the Emitter.
	free []*Packet
}

// GetPacket returns a pooled packet exactly like the package-level
// GetPacket, but draws from the emitter-local cache so a source's
// per-packet pool cost is a slice pop instead of a shared-ring CAS.
func (e *Emitter) GetPacket() *Packet {
	n := len(e.free)
	if n == 0 {
		if cap(e.free) == 0 {
			e.free = make([]*Packet, localCacheSize)
		}
		e.free = e.free[:cap(e.free)]
		n = packetPool.getN(e.free)
		e.free = e.free[:n]
	}
	var p *Packet
	if n > 0 {
		p = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		// Recycled packets arrive as the consumer left them (see
		// recycleLocal); the reset at handout is what guarantees no
		// trace/lineage state survives into the next use.
		p.reset()
		e.poolMissed = false
	} else {
		poolMisses.Add(1)
		if s := e.stage; s != nil && s.o != nil && !e.poolMissed {
			e.poolMissed = true
			s.o.Journal.Record(obs.Event{
				Kind: obs.EventPoolExhausted, Stage: s.id,
				Instance: s.instance, Node: s.Node(),
				Detail: "packet pool empty: falling back to allocator",
			})
		}
		p = new(Packet)
	}
	p.pooled = true
	// The common recycle cycle leaves refs at 1 (recycleLocal's sole-owner
	// path never writes it), so publishing the fresh reference is usually
	// free; packets from Release or the allocator arrive at 0 and pay the
	// store.
	if atomic.LoadInt32(&p.refs) != 1 {
		atomic.StoreInt32(&p.refs, 1)
	}
	return p
}

// NewPacket is the emitter-local analog of the package-level NewPacket.
func (e *Emitter) NewPacket(v any, items, wireSize int) *Packet {
	p := e.GetPacket()
	p.Value = v
	p.Items = items
	p.WireSize = wireSize
	return p
}

// releaseFree returns the unused cached packets to the shared pool; the
// engine calls it when the stage goroutine exits. Pool storage tolerates
// un-reset packets — GetPacket resets at handout — so they go straight
// back.
func (e *Emitter) releaseFree() {
	if len(e.free) == 0 {
		return
	}
	packetPool.putN(e.free) // overflow drops to the GC
	e.free = nil
}

func newEmitter(s *Stage, ctx context.Context) *Emitter {
	e := &Emitter{stage: s, ctx: ctx, batch: s.cfg.BatchSize}
	if e.batch > 1 {
		e.pending = make([][]*Packet, len(s.outs))
	}
	return e
}

// Fanout returns the number of outbound edges.
func (e *Emitter) Fanout() int { return len(e.stage.outs) }

// Emit stamps and sends pkt to every outbound edge, blocking for link pacing
// and downstream backpressure. It is the mechanism that lets congestion
// anywhere downstream slow this stage's consumption, which the adaptation
// algorithm then observes as a growing queue. In buffered mode the block
// happens at the next flush instead of per packet.
func (e *Emitter) Emit(pkt *Packet) error {
	if e.batch > 1 {
		return e.buffer(pkt, -1)
	}
	return e.stage.emit(e.ctx, pkt, -1)
}

// EmitTo sends pkt only on the i-th outbound edge.
func (e *Emitter) EmitTo(i int, pkt *Packet) error {
	if i < 0 || i >= len(e.stage.outs) {
		return fmt.Errorf("pipeline: EmitTo(%d) with %d edges", i, len(e.stage.outs))
	}
	if e.batch > 1 {
		return e.buffer(pkt, i)
	}
	return e.stage.emit(e.ctx, pkt, i)
}

// EmitValue wraps v in a pooled packet of the given wire size and emits it.
func (e *Emitter) EmitValue(v any, wireSize int) error {
	p := e.GetPacket()
	p.Value = v
	p.WireSize = wireSize
	return e.Emit(p)
}

// buffer stamps pkt and parks it on the targeted edges, flushing once the
// batch is full. Stats are charged at emission time (not flush) so a
// broadcast packet counts once however many edges carry it.
func (e *Emitter) buffer(pkt *Packet, only int) error {
	s := e.stage
	// Source stages have no drain loop, so their pause boundary is the
	// emission point (before the packet is stamped).
	if s.src != nil && s.pauseReq.Load() {
		if err := s.parkIfRequested(e.ctx); err != nil {
			return err
		}
	}
	size := pkt.size(s.cfg.DefaultPacketSize)
	pkt.SourceStage = s.id
	pkt.SourceInstance = s.instance
	pkt.Seq = s.emitSeq
	s.emitSeq++
	pkt.Created = s.clk.Now()
	s.stampLineage(pkt)
	if pkt == s.curIn {
		s.curForwarded = true
	}
	if !pkt.Final {
		s.local.PacketsOut++
		s.local.ItemsOut += uint64(pkt.ItemCount())
		s.local.BytesOut += uint64(size)
	}

	targets := 0
	for i := range s.outs {
		if only >= 0 && i != only {
			continue
		}
		if s.replayOn && !pkt.Final {
			s.outs[i].replay.record(pkt.Seq, pkt.Value, pkt.ItemCount(), size)
		}
		e.pending[i] = append(e.pending[i], pkt)
		e.buffered++
		targets++
	}
	if pkt.pooled {
		if targets == 0 {
			// No edge will carry it (a sink emitted): recycle now,
			// nothing downstream will ever release it.
			pkt.Release()
		} else if targets > 1 {
			// One reference per edge so each downstream consumer can
			// release independently (the caller's reference covers the
			// first edge).
			pkt.retain(int32(targets - 1))
		}
	}
	if e.buffered >= e.batch {
		return e.Flush()
	}
	return nil
}

// Flush drives every buffered packet downstream: per edge, one batched link
// reservation for the summed bytes (byte-exact — the shaper is linear, see
// netsim.TransferBatch) and one batched enqueue. A no-op when unbuffered or
// empty. The engine flushes after every drained input batch and at stream
// end, so user code only needs Flush for latency control inside a
// long-running Source.
func (e *Emitter) Flush() error {
	if e.batch <= 1 || e.buffered == 0 {
		return nil
	}
	s := e.stage
	// The link transfers and pushes below can take time: publish first, so a
	// stage blocked in them reads exact (StageStats).
	s.publishLocal()
	var sp obs.Span
	if s.flushOp.Due() {
		sp = s.flushOp.Begin()
	}
	var sentPkts, sentBytes int
	for i, pend := range e.pending {
		if len(pend) == 0 {
			continue
		}
		out := s.outs[i]
		l := out.link.Load()
		deliver := pend
		if l != nil && l.Faulty() {
			// The link's fault schedule decides each packet's fate; what
			// survives (plus any reorder holds come due) is delivered in
			// one batch as usual. The pending buffer empties either way.
			deliver = s.flushFaulty(out, l, pend)
			e.buffered -= len(pend)
			e.pending[i] = pend[:0]
			if len(deliver) == 0 {
				continue
			}
		}
		sum := 0
		if l != nil || sp.Sampled() { // nothing else reads the byte count
			for _, p := range deliver {
				sum += p.size(s.cfg.DefaultPacketSize)
			}
		}
		if l != nil {
			l.TransferBatch(sum, len(deliver))
		}
		// Blocked-emit accounting, observed engines only: the occupancy
		// pre-check keeps the untraced path byte-identical, and timing
		// only pushes that start against a full buffer keeps the clock
		// reads off the flowing path. A push that blocks mid-batch
		// (batch larger than the free space) is still charged exactly by
		// the downstream queue's PushStallNS; this series is the
		// upstream-side attribution of the same pressure.
		full := s.o != nil && out.to.in.Len() >= out.to.in.Cap()
		var stallStart time.Time
		if full {
			s.noteEmitStall(out.to)
			stallStart = time.Now()
		}
		err := s.pushBatchPausable(e.ctx, out.to, deliver)
		if full {
			s.local.EmitStall += time.Since(stallStart)
		} else if s.o != nil {
			s.emitStalled = false
		}
		sentPkts += len(deliver)
		sentBytes += sum
		if len(e.pending[i]) != 0 { // already emptied on the faulty path
			e.buffered -= len(pend)
			e.pending[i] = pend[:0]
		}
		if err != nil && !errors.Is(err, queue.ErrClosed) {
			// ErrClosed means the downstream already finished: drop,
			// exactly as the unbatched path does. Pooled references for
			// the dropped packets are deliberately NOT released — the
			// batch push may have delivered a prefix before the close,
			// and double-releasing a delivered packet would corrupt the
			// pool; leaking the remainder to the GC is harmless.
			return fmt.Errorf("pipeline: %s/%d -> %s/%d: %w",
				s.id, s.instance, out.to.id, out.to.instance, err)
		}
	}
	s.publishLocal() // EmitStall, accrued above
	if sp.Sampled() {
		sp.Annotate("packets", float64(sentPkts))
		sp.Annotate("bytes", float64(sentBytes))
		sp.End()
	}
	return nil
}

// stampLineage gives a freshly emitted packet its end-to-end provenance.
// Packets that already carry a Birth (remote packets re-emitted by a
// transport ingress) pass through untouched — re-emission must not restart
// the latency clock or re-root the trace. Otherwise a processor stage's
// output inherits the lineage of the input packet being processed, and a
// true source stamps Birth now and mints a trace id on the tracer's
// sampling cadence. The inherited lineage comes from the curBirth value
// copies, not the input packet itself, which may already be recycled. Runs
// on the stage goroutine only (the cur* fields are confined to it).
func (s *Stage) stampLineage(pkt *Packet) {
	if pkt.Final || !pkt.Birth.IsZero() {
		return
	}
	if !s.curBirth.IsZero() {
		pkt.Birth = s.curBirth
		pkt.TraceID = s.curTraceID
		pkt.TraceHops = s.curTraceHops
		return
	}
	if s.src != nil {
		pkt.Birth = pkt.Created
		if id, ok := s.rootSmp.Sample(); ok {
			pkt.TraceID = id
		}
	}
}

// latencyScratch is a stage's pair of goroutine-local latency buffers: hop
// (emission upstream → consumption here, i.e. queue wait plus link transfer)
// and e2e (lineage Birth at a source → consumption here).
type latencyScratch struct{ hop, e2e *obs.Scratch }

// observeLatency records a consumed packet into the adopted scratches
// (s.scr, non-nil) at virtual time nowNS (Unix nanoseconds); publishLocal
// flushes them, once per run or drained batch.
func (s *Stage) observeLatency(nowNS int64, pkt *Packet) {
	hopOK := !pkt.Created.IsZero()
	e2eOK := !pkt.Birth.IsZero()
	if hopOK && e2eOK && pkt.Birth == pkt.Created {
		// First hop past the source: Birth is a field copy of Created,
		// both series receive the same duration, so bucket it once.
		// Deeper stages take the general path below.
		obs.ObserveNSBoth(s.scr.hop, s.scr.e2e, nowNS-pkt.Created.UnixNano())
		return
	}
	if hopOK {
		s.scr.hop.ObserveNS(nowNS - pkt.Created.UnixNano())
	}
	if e2eOK {
		s.scr.e2e.ObserveNS(nowNS - pkt.Birth.UnixNano())
	}
}

// runLag is how many packets a running per-packet stage's published counters
// may trail it by, and how many it handles between looks at the run ctx: past
// that many fast-path packets the next pop or push takes the blocking path.
const runLag = 15

// publishLocal ends a run — the stretch of packets a per-packet stage
// handles without giving time away, on goroutine-local bookkeeping: the
// counters in s.local move to the shared stats under one lock, the latency
// scratches flush, and the drain side's cached clock read is dropped. The
// stage goroutine calls it before anything that can take time — a blocking
// pop or push, a park, a link transfer, ChargeCompute, exit — so a blocked,
// Paused or stopped stage reads exact and the cached read never spans this
// stage moving (virtual) time. runLen is not reset here: only the blocking
// pop and push look at the run ctx, so only they restart that count.
func (s *Stage) publishLocal() {
	// Anything to publish: an OR of the fields, not a compare of the struct
	// against zero (TestPublishCarriesEveryField keeps this list complete).
	l := &s.local
	if l.PacketsIn|l.ItemsIn|l.PacketsOut|l.ItemsOut|l.BytesOut|l.DupsDropped|
		uint64(l.ComputeCharged)|uint64(l.EmitStall) != 0 {
		s.mu.Lock()
		s.stats.PacketsIn += s.local.PacketsIn
		s.stats.ItemsIn += s.local.ItemsIn
		s.stats.PacketsOut += s.local.PacketsOut
		s.stats.ItemsOut += s.local.ItemsOut
		s.stats.BytesOut += s.local.BytesOut
		s.stats.ComputeCharged += s.local.ComputeCharged
		s.stats.EmitStall += s.local.EmitStall
		s.stats.DupsDropped += s.local.DupsDropped
		s.mu.Unlock()
		s.local = StageStats{}
	}
	s.covered = 0
	if s.scr != nil {
		s.scr.hop.Flush()
		s.scr.e2e.Flush()
	}
}

// processTraced runs Process under a forced-sampled span when pkt belongs
// to a distributed trace, so a sampled batch leaves a span at every stage
// it crosses regardless of each stage's local sampling phase.
func (s *Stage) processTraced(sctx *Context, pkt *Packet, em *Emitter) error {
	if pkt.TraceID == 0 || s.o == nil {
		return s.proc.Process(sctx, pkt, em)
	}
	sp := s.o.Tracer.StartTraced("stage.process", pkt.TraceID, pkt.TraceHops)
	sp.Annotate("items", float64(pkt.ItemCount()))
	err := s.proc.Process(sctx, pkt, em)
	sp.End()
	return err
}

func (s *Stage) emit(ctx context.Context, pkt *Packet, only int) error {
	// Source stages pause at the emission boundary (processor stages
	// pause in their drain loops, before any packet is in flight).
	if s.src != nil && s.pauseReq.Load() {
		if err := s.parkIfRequested(ctx); err != nil {
			return err
		}
	}
	pkt.SourceStage = s.id
	pkt.SourceInstance = s.instance
	pkt.Seq = s.emitSeq
	s.emitSeq++
	pkt.Created = s.clk.Now()
	s.stampLineage(pkt)
	if pkt == s.curIn {
		s.curForwarded = true
	}

	// Everything the accounting below needs is captured before the first
	// push: once the last edge holds the packet, a downstream sink may
	// consume and recycle it at any moment.
	size := pkt.size(s.cfg.DefaultPacketSize)
	final := pkt.Final
	items := uint64(pkt.ItemCount())

	targets := len(s.outs)
	if only >= 0 {
		targets = 1
	}
	if pkt.pooled {
		if targets == 0 {
			pkt.Release() // a sink emitted: no edge will ever release it
		} else if targets > 1 {
			pkt.retain(int32(targets - 1)) // one reference per edge
		}
	}
	for i, out := range s.outs {
		if only >= 0 && i != only {
			continue
		}
		if s.replayOn && !final {
			// Record before the push: once the packet is downstream a
			// sink may release it, and while broadcast references keep
			// the fields alive here, recording first needs no such
			// reasoning.
			out.replay.record(pkt.Seq, pkt.Value, int(items), size)
		}
		l := out.link.Load()
		if l != nil {
			s.publishLocal() // a transfer takes (virtual) time: the run ends
			if l.Faulty() {
				// Injected faults: the link decides drop/hold/deliver and
				// the helper carries the consequences (held-packet release,
				// final-marker protection).
				if err := s.emitFaulty(ctx, out, l, pkt, size); err != nil {
					return err
				}
				continue
			}
			// Broadcast shares one packet struct: stages must not mutate
			// received packets. Link pacing first (transmission), then
			// enqueue (may block on downstream backpressure).
			l.Transfer(size)
		}
		if err := s.pushPausable(ctx, out.to, pkt); err != nil {
			if errors.Is(err, queue.ErrClosed) {
				// Downstream already finished; drop. This edge's
				// reference was never handed over, so releasing it here
				// cannot race with the delivered edges' consumers.
				pkt.Release()
				continue
			}
			return fmt.Errorf("pipeline: %s/%d -> %s/%d: %w",
				s.id, s.instance, out.to.id, out.to.instance, err)
		}
	}
	if !final {
		s.local.PacketsOut++
		s.local.ItemsOut += items
		s.local.BytesOut += uint64(size)
		if s.src != nil {
			s.runLen++ // a source's run is measured in emissions
		}
	}
	return nil
}

// pushPausable delivers pkt into dst's input queue, making a blocked push a
// pause boundary. The wait runs under the pause-epoch context — Pause
// cancels it — so a stage wedged against a full queue nobody is draining (a
// crashed downstream held paused by the recovery controller, say) can still
// park for the checkpointer or the recovery controller instead of
// deadlocking the pauser. After resume the push retries: pushCtx inserts
// nothing on cancellation, and the packet was stamped and ring-recorded
// before delivery, so if a recovery replayed its sequence interval while
// this stage was parked, the consumer-side watermark drops the late
// original as a duplicate. The park is flagged midEmit: state controllers
// must not snapshot or restore across it (see PausedMidEmit).
//
// All of that is the slow path, pushBlocking: while the run lasts and dst has
// room the push is the ring's lock-free TryPush, and a pause that lands during
// it is seen at the stage's next pop or emit boundary, as if it had arrived
// just after. Blocked-emit accounting (see Emitter.Flush) is on the slow path
// too — TryPush failing is the buffer being full when the push started, and a
// push runLag forces there looks for itself — so only a stage about to wait
// reads dst's cursors and the clock. A push that finds room re-arms the latch.
func (s *Stage) pushPausable(ctx context.Context, dst *Stage, pkt *Packet) error {
	if s.runLen < runLag && dst.in.TryPush(pkt) {
		s.emitStalled = false
		return nil
	}
	if s.o == nil || dst.in.Len() < dst.in.Cap() {
		s.emitStalled = false
		return s.pushBlocking(ctx, dst, pkt)
	}
	s.noteEmitStall(dst)
	stallStart := time.Now()
	err := s.pushBlocking(ctx, dst, pkt)
	s.local.EmitStall += time.Since(stallStart)
	return err
}

// pushBlocking is pushPausable's slow path: the run ends, and the push waits
// under the pause-epoch context, parking and retrying across a pause.
func (s *Stage) pushBlocking(ctx context.Context, dst *Stage, pkt *Packet) error {
	s.publishLocal()
	s.runLen = 0
	for {
		err := dst.in.PushCtx(s.currentPopCtx(), pkt)
		if err == nil || errors.Is(err, queue.ErrClosed) || ctx.Err() != nil {
			return err
		}
		// Woken by a pause request, not run cancellation: park with the
		// packet in hand, then retry under the fresh epoch context.
		s.midEmit.Store(true)
		perr := s.parkIfRequested(ctx)
		s.midEmit.Store(false)
		if perr != nil {
			return perr
		}
	}
}

// pushBatchPausable is pushPausable for the batched flush path: the same
// pause-epoch wait and park-with-packets-in-hand retry, with PushBatchN
// reporting the accepted prefix so only the suffix that never entered the
// queue is retried after resume. Replay rings recorded every packet at
// emit time, so a recovery replaying the interval while this stage is
// parked hands the consumer-side watermark the duplicates to drop.
func (s *Stage) pushBatchPausable(ctx context.Context, dst *Stage, items []*Packet) error {
	for {
		n, err := dst.in.PushBatchN(s.currentPopCtx(), items)
		items = items[n:]
		if len(items) == 0 && err == nil {
			return nil
		}
		if errors.Is(err, queue.ErrClosed) || ctx.Err() != nil {
			return err
		}
		s.midEmit.Store(true)
		perr := s.parkIfRequested(ctx)
		s.midEmit.Store(false)
		if perr != nil {
			return perr
		}
	}
}

// PausedMidEmit reports whether the stage's goroutine is parked inside an
// emission with a stamped packet in hand. Such a pause is a liveness
// boundary only: the user code may be mid-Process, so its state is not a
// consistent cut — the checkpointer skips the round and the recovery
// controller falls back to zombie (at-least-once) recovery rather than
// restoring state under the live stack. Paused-only, like EmitSeq.
func (s *Stage) PausedMidEmit() bool { return s.midEmit.Load() }

// noteEmitStall records the stall-onset journal event: the first emission
// after a period of free flow that finds downstream buffer dst full. The
// emitStalled latch (stage-goroutine confined, like the emit paths) keeps a
// sustained stall from flooding the journal with one event per push.
func (s *Stage) noteEmitStall(dst *Stage) {
	if s.emitStalled {
		return
	}
	s.emitStalled = true
	s.o.Journal.Record(obs.Event{
		Kind: obs.EventStallOnset, Stage: s.id,
		Instance: s.instance, Node: s.Node(),
		Detail: "emit blocked: input buffer of " + dst.id + " full",
	})
}

// run executes the stage to completion: source generation or the
// pop-process loop, then Finish, then Final propagation. A panic in user
// code is contained to the stage and surfaces as its terminal error, so one
// broken processor cannot take down a container hosting other work.
func (s *Stage) run(ctx context.Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pipeline: %s/%d panicked: %v", s.id, s.instance, r)
		}
	}()
	return s.runInner(ctx)
}

func (s *Stage) runInner(ctx context.Context) error {
	s.bindRunContext(ctx)
	sctx := &Context{stage: s, ctx: ctx}
	em := newEmitter(s, ctx)
	defer s.pacer.Flush()
	// Return the goroutine-local packet caches to the shared pool.
	defer em.releaseFree()
	defer s.flushRecycle()
	// Packets parked by reorder injection must not outlive the run.
	defer s.releaseHeld()
	// A stopped stage reads exact, error paths included.
	defer s.publishLocal()

	if s.src != nil {
		if err := s.src.Run(sctx, em); err != nil {
			return fmt.Errorf("pipeline: source %s/%d: %w", s.id, s.instance, err)
		}
		return s.finishStream(em)
	}

	if err := s.proc.Init(sctx); err != nil {
		return fmt.Errorf("pipeline: init %s/%d: %w", s.id, s.instance, err)
	}
	if s.cfg.BatchSize > 1 {
		if err := s.drainBatched(ctx, sctx, em); err != nil {
			return err
		}
	} else if err := s.drainOneByOne(ctx, sctx, em); err != nil {
		return err
	}
	if err := s.proc.Finish(sctx, em); err != nil {
		return fmt.Errorf("pipeline: finish %s/%d: %w", s.id, s.instance, err)
	}
	return s.finishStream(em)
}

// recycleLocal drops the drain loop's reference to a consumed packet,
// parking it in the stage-local recycle cache when that was the last
// reference. The sole-owner fast path (refs == 1) is deliberately
// read-only on the packet: retains happen strictly before the first
// enqueue, so once this consumer observes refs == 1 no other goroutine
// can touch the count, and skipping both the atomic RMW and the field
// reset (deferred to the producer-side GetPacket) keeps the packet's
// cache lines in shared state instead of bouncing them to this core and
// back. The drain loop releases each reference exactly once by
// construction; the strict double-release panic lives in Release, which
// still guards the shared fan-out path.
func (s *Stage) recycleLocal(p *Packet) {
	if p == nil || !p.pooled {
		return
	}
	if atomic.LoadInt32(&p.refs) == 1 {
		s.recycle = append(s.recycle, p)
		return
	}
	p.Release()
}

// flushRecycle returns the recycle cache to the shared pool in one batched
// ring operation; whatever does not fit drops to the GC.
func (s *Stage) flushRecycle() {
	if len(s.recycle) == 0 {
		return
	}
	packetPool.putN(s.recycle)
	for i := range s.recycle {
		s.recycle[i] = nil
	}
	s.recycle = s.recycle[:0]
}

// finishStream emits the end-of-stream marker, flushing any buffered
// packets ahead of it so the marker stays the last thing downstream sees.
// The marker is pooled like any data packet; Release's reset guard clears
// Final before reuse, so a recycled marker cannot end a later stream.
func (s *Stage) finishStream(em *Emitter) error {
	fin := GetPacket()
	fin.Final = true
	if em.batch > 1 {
		if err := em.buffer(fin, -1); err != nil {
			return err
		}
		return em.Flush()
	}
	return s.emit(em.ctx, fin, -1)
}

// drainOneByOne is the strict per-packet pop-process loop (BatchSize 1).
// Each iteration is a pause boundary: a pending pause parks the goroutine
// before the next pop, and a pop woken by a pause-canceled pop context
// consumed nothing, so pausing never drops a packet. While the run lasts
// the pop is the ring's lock-free TryPop; an empty ring ends the run.
func (s *Stage) drainOneByOne(ctx context.Context, sctx *Context, em *Emitter) error {
	for {
		if err := s.parkIfRequested(ctx); err != nil {
			return fmt.Errorf("pipeline: %s/%d: %w", s.id, s.instance, err)
		}
		var pkt *Packet
		err := queue.ErrEmpty // past runLag: straight to the blocking pop
		if s.runLen < runLag {
			pkt, err = s.in.TryPop()
		}
		if err == queue.ErrEmpty {
			s.publishLocal()
			s.runLen = 0
			pkt, err = s.in.PopCtx(s.currentPopCtx())
		}
		if errors.Is(err, queue.ErrClosed) {
			return nil
		}
		if err != nil {
			if ctx.Err() == nil {
				// The pause request canceled the pop context; the
				// queue removed nothing. Park and retry.
				continue
			}
			return fmt.Errorf("pipeline: %s/%d: %w", s.id, s.instance, err)
		}
		// The run's cached clock read reaches the packets that were queued
		// when it was taken, markers and duplicates included.
		timed := s.covered > 0
		if timed {
			s.covered--
		}
		if pkt.Final {
			s.mu.Lock()
			s.finals++
			done := s.finals >= s.inbound
			s.mu.Unlock()
			s.recycleLocal(pkt)
			if done {
				return nil
			}
			continue
		}
		if s.marks != nil && s.dropDup(pkt) {
			// Replay overlap or re-delivery: already consumed per the
			// upstream watermark. Dropping here, before the stats and
			// Process, is what makes redelivered intervals effectively-once.
			s.local.DupsDropped++
			s.recycleLocal(pkt)
			continue
		}
		items := uint64(pkt.ItemCount())
		s.local.PacketsIn++
		s.local.ItemsIn += items
		s.runLen++
		if !timed {
			// Adopt the scratches and read the clock for this packet and
			// the ones queued behind it, as drainBatched does per batch:
			// they have all arrived, and on a real clock the run's wall
			// time from here to their pop is the wait they are not
			// charged. A packet pushed later gets a read of its own.
			if s.scr = s.lat.Load(); s.scr != nil {
				s.covered = s.in.Len()
				s.arrivedNS = s.clk.Now().UnixNano()
			}
		}
		if s.scr != nil {
			s.observeLatency(s.arrivedNS, pkt)
		}
		// The cur* value copies survive the packet's recycling; they stay
		// set through Finish so flushed state inherits the last consumed
		// packet's lineage.
		s.curIn = pkt
		s.curBirth, s.curTraceID, s.curTraceHops = pkt.Birth, pkt.TraceID, pkt.TraceHops
		s.curForwarded = false
		var perr error
		if s.procOp.Due() {
			perr = s.processSampled(sctx, pkt, em, items)
		} else {
			perr = s.processTraced(sctx, pkt, em)
		}
		if s.curForwarded {
			// The processor re-emitted its input; the reference now
			// belongs to the downstream queue (or was already released
			// on a zero-target emit).
			s.curForwarded = false
		} else {
			s.recycleLocal(pkt)
		}
		s.curIn = nil
		if len(s.recycle) >= localCacheSize {
			s.flushRecycle()
		}
		if perr != nil {
			return fmt.Errorf("pipeline: process %s/%d: %w", s.id, s.instance, perr)
		}
	}
}

// processSampled is processTraced under the "stage.process" span, for the one
// packet in SampleEvery that procOp says is due: the Span lives in this frame,
// so the other packets' iterations never build one.
func (s *Stage) processSampled(sctx *Context, pkt *Packet, em *Emitter, items uint64) error {
	sp := s.procOp.Begin()
	err := s.processTraced(sctx, pkt, em)
	if err == nil {
		sp.Annotate("items", float64(items))
		if d := sp.End(); s.batchSec != nil {
			s.batchSec.Observe(d.Seconds())
		}
	}
	return err
}

// drainBatched pops up to BatchSize packets per queue round-trip, processes
// them in order, and flushes coalesced emissions once per drained batch.
// PopBatch takes only what is immediately available, so batching never
// waits for the queue to fill and an interactive trickle still flows one
// packet at a time.
func (s *Stage) drainBatched(ctx context.Context, sctx *Context, em *Emitter) error {
	batch := make([]*Packet, s.cfg.BatchSize)
	for {
		if err := s.parkIfRequested(ctx); err != nil {
			return fmt.Errorf("pipeline: %s/%d: %w", s.id, s.instance, err)
		}
		n, err := s.in.PopBatchCtx(s.currentPopCtx(), batch, len(batch))
		if n == 0 {
			if errors.Is(err, queue.ErrClosed) {
				return nil
			}
			if err != nil {
				if ctx.Err() == nil {
					// Pause canceled the pop context; nothing was
					// consumed. Park and retry.
					continue
				}
				return fmt.Errorf("pipeline: %s/%d: %w", s.id, s.instance, err)
			}
		}
		var sp obs.Span
		if s.batchOp.Due() {
			sp = s.batchOp.Begin()
		}
		var pktsIn, itemsIn uint64 // this batch's, for its span
		// One clock read covers the whole drained batch; the spread
		// inside a batch is below the latency bucket resolution.
		var arrivedNS int64
		latOn := false
		if s.scr = s.lat.Load(); s.scr != nil && n > 0 {
			arrivedNS = s.clk.Now().UnixNano()
			latOn = true
		}
		done := false
		for _, pkt := range batch[:n] {
			if pkt.Final {
				s.mu.Lock()
				s.finals++
				done = s.finals >= s.inbound
				s.mu.Unlock()
				s.recycleLocal(pkt)
				if done {
					// The final marker is each upstream's last emission,
					// so nothing relevant can follow the last one.
					break
				}
				continue
			}
			if s.marks != nil && s.dropDup(pkt) {
				s.local.DupsDropped++
				s.recycleLocal(pkt)
				continue
			}
			// Counted when consumed, not at the end of the batch: the emission
			// that fills the emit batch flushes, and so publishes, mid-batch.
			items := uint64(pkt.ItemCount())
			pktsIn++
			itemsIn += items
			s.local.PacketsIn++
			s.local.ItemsIn += items
			if latOn {
				s.observeLatency(arrivedNS, pkt)
			}
			s.curIn = pkt
			s.curBirth, s.curTraceID, s.curTraceHops = pkt.Birth, pkt.TraceID, pkt.TraceHops
			s.curForwarded = false
			perr := s.processTraced(sctx, pkt, em)
			if s.curForwarded {
				// Re-emitted input: its reference moved to the emit
				// buffers (released or handed downstream at flush).
				s.curForwarded = false
			} else {
				s.recycleLocal(pkt)
			}
			s.curIn = nil
			if perr != nil {
				return fmt.Errorf("pipeline: process %s/%d: %w", s.id, s.instance, perr)
			}
		}
		// One batched ring operation returns the whole drained batch's
		// packets to the pool.
		s.flushRecycle()
		s.publishLocal()
		if err := em.Flush(); err != nil {
			return err
		}
		if sp.Sampled() {
			sp.Annotate("packets", float64(pktsIn))
			sp.Annotate("items", float64(itemsIn))
			if d := sp.End(); s.batchSec != nil {
				s.batchSec.Observe(d.Seconds())
			}
		}
		if done {
			return nil
		}
	}
}

// adaptLoop samples the input queue on the configured interval, reports
// exceptions to every upstream neighbor, and periodically adjusts
// parameters. It stops when the stage finishes or the run is canceled.
func (s *Stage) adaptLoop(ctx context.Context) {
	ticks := 0
	var rates epochRates
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.doneCh:
			return
		case <-s.clk.After(s.cfg.AdaptInterval):
		}
		ob := s.ctrl.Observe(s.QueueLen())
		if s.cfg.OnObserve != nil {
			s.cfg.OnObserve(s, s.clk.Now(), ob)
		}
		if ob.Exception != adapt.ExceptionNone {
			for _, up := range s.upstream {
				up.ctrl.OnDownstreamException(ob.Exception)
			}
		}
		ticks++
		if ticks%s.cfg.AdjustEvery == 0 {
			now := s.clk.Now()
			res := s.ctrl.AdjustDetailed()
			lambda, mu := rates.advance(now, s.Stats())
			s.recordAdjustment(now, res, lambda, mu)
			if s.cfg.OnAdjust != nil && len(res.Adjustments) > 0 {
				s.cfg.OnAdjust(s, now, res.Adjustments)
			}
		}
	}
}
