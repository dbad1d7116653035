package pipeline

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/gates-middleware/gates/internal/obs"
)

// The packet pool removes the last per-item allocation from the hot path:
// sources draw packets from it, ownership transfers downstream at Emit, and
// the engine recycles each packet at its terminal consumption point (sink
// drain loop, dropped edge, or transport serialization). Packets built
// directly with &Packet{...} bypass the pool entirely — every lifecycle
// operation is a no-op on them — so user code and tests that construct
// packets by hand keep working unchanged.
//
// Ownership rules (see DESIGN.md §10):
//
//   - GetPacket returns a packet owned by the caller.
//   - Emit/EmitTo/EmitValue transfer ownership to the engine. The caller
//     must not touch the packet afterwards — not even to read a field —
//     because a downstream sink may consume and recycle it concurrently.
//   - A Processor borrows its input packet only for the duration of
//     Process; retaining it (or its pointer) afterwards is a bug.
//     Re-emitting the input packet downstream is allowed and detected.
//   - Broadcast fanout is reference-counted: the engine retains one
//     reference per edge before the first enqueue, and each terminal
//     consumer releases its own.
var packetPool = newPacketStack(4096)

// packetStack is the pool's shared storage: a bounded LIFO freelist under
// a plain mutex. The recycle traffic is inherently cross-goroutine —
// sources get packets, sinks on other cores release them — which is
// exactly the pattern that forces sync.Pool onto its shared-chain slow
// path, and a per-slot lock-free MPMC ring pays a sequenced atomic store
// per packet per side. Because the hot paths move packets exclusively in
// localCacheSize batches (Emitter.GetPacket refills, Stage.flushRecycle
// drains), one short critical section per batch beats both: the mutex
// cost amortizes to a fraction of a nanosecond per packet. LIFO order
// hands the most recently recycled — cache-warmest — packets out first.
// An empty pool falls back to the allocator and a full one drops to the
// GC, so it can never deadlock or grow without bound.
type packetStack struct {
	mu   sync.Mutex
	free []*Packet
	// Lifetime counters, maintained inside the critical sections the
	// bulk operations already hold, so instrumentation adds no extra
	// synchronization to the hot path. misses lives outside the stack
	// (see poolMisses): the allocator fallback happens after the stack
	// reported empty, at the caller.
	gets     uint64 // packets handed out of the pool
	recycled uint64 // packets stored back
	overflow uint64 // packets that arrived with the pool full (dropped to GC)
}

// poolMisses counts allocator fallbacks: a caller wanted a pooled packet,
// the pool was empty, and new(Packet) ran instead. A steadily growing miss
// count means the working set exceeds the pool bound — the pool-exhaustion
// signal the journal and attribution engine surface.
var poolMisses atomic.Uint64

// PoolStats is a snapshot of the shared packet pool's lifetime counters.
type PoolStats struct {
	// Gets counts packets handed out of the pool (allocator fallbacks not
	// included); Misses counts those fallbacks.
	Gets   uint64
	Misses uint64
	// Recycled counts packets returned to the pool; Overflow counts
	// returns that found the pool full and dropped the packet to the GC.
	Recycled uint64
	Overflow uint64
	// Free and Capacity describe the freelist right now.
	Free     int
	Capacity int
}

// ReadPoolStats snapshots the shared packet pool's counters. Safe from any
// goroutine; one mutex acquisition.
func ReadPoolStats() PoolStats {
	r := packetPool
	r.mu.Lock()
	s := PoolStats{
		Gets:     r.gets,
		Recycled: r.recycled,
		Overflow: r.overflow,
		Free:     len(r.free),
		Capacity: cap(r.free),
	}
	r.mu.Unlock()
	s.Misses = poolMisses.Load()
	return s
}

// instrumentPool publishes the process-wide packet-pool counters into reg as
// scrape-time callbacks; registration is idempotent, so every observed
// Engine.Run may call it. The gates_pool_ name prefix is load-bearing:
// obs.MergeMetrics preserves (or injects) the node label for exactly that
// prefix, so per-node pool health survives the cluster-wide merge.
func instrumentPool(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("gates_pool_gets_total",
		"Packets handed out of the shared packet pool.", nil,
		func() float64 { return float64(ReadPoolStats().Gets) })
	reg.CounterFunc("gates_pool_misses_total",
		"Allocator fallbacks: pool empty when a packet was wanted.", nil,
		func() float64 { return float64(ReadPoolStats().Misses) })
	reg.CounterFunc("gates_pool_recycled_total",
		"Packets returned to the pool's freelist.", nil,
		func() float64 { return float64(ReadPoolStats().Recycled) })
	reg.CounterFunc("gates_pool_overflow_total",
		"Packet returns that found the pool full (dropped to GC).", nil,
		func() float64 { return float64(ReadPoolStats().Overflow) })
	reg.GaugeFunc("gates_pool_free",
		"Packets currently on the pool's freelist.", nil,
		func() float64 { return float64(ReadPoolStats().Free) })
	reg.GaugeFunc("gates_pool_capacity",
		"Bound of the pool's freelist.", nil,
		func() float64 { return float64(ReadPoolStats().Capacity) })
}

func newPacketStack(capacity int) *packetStack {
	return &packetStack{free: make([]*Packet, 0, capacity)}
}

func (r *packetStack) get() *Packet {
	r.mu.Lock()
	n := len(r.free)
	if n == 0 {
		r.mu.Unlock()
		return nil
	}
	p := r.free[n-1]
	r.free[n-1] = nil
	r.free = r.free[:n-1]
	r.gets++
	r.mu.Unlock()
	return p
}

func (r *packetStack) put(p *Packet) bool {
	r.mu.Lock()
	if len(r.free) == cap(r.free) {
		r.overflow++
		r.mu.Unlock()
		return false // full: caller drops the packet to the GC
	}
	r.free = append(r.free, p)
	r.recycled++
	r.mu.Unlock()
	return true
}

// getN pops up to len(dst) packets off the top of the stack in one
// critical section — the bulk refill behind the goroutine-local caches.
// Returns the number written to the front of dst.
func (r *packetStack) getN(dst []*Packet) int {
	r.mu.Lock()
	n := len(r.free)
	if n > len(dst) {
		n = len(dst)
	}
	if n > 0 {
		base := len(r.free) - n
		copy(dst, r.free[base:])
		tail := r.free[base:]
		for i := range tail {
			tail[i] = nil
		}
		r.free = r.free[:base]
		r.gets += uint64(n)
	}
	r.mu.Unlock()
	return n
}

// putN pushes as many of ps as fit in one critical section — the bulk
// drain behind the goroutine-local caches. Returns how many were stored;
// the caller drops the remainder to the GC.
func (r *packetStack) putN(ps []*Packet) int {
	r.mu.Lock()
	n := cap(r.free) - len(r.free)
	if n > len(ps) {
		n = len(ps)
	}
	r.free = append(r.free, ps[:n]...)
	r.recycled += uint64(n)
	r.overflow += uint64(len(ps) - n)
	r.mu.Unlock()
	return n
}

// localCacheSize bounds the goroutine-local packet caches (emitter get
// cache, stage recycle cache): big enough to amortize the shared ring's
// atomics across a full drain batch, small enough that idle stages pin
// only a few KB of packets.
const localCacheSize = 64

// GetPacket returns an empty packet from the packet pool with a single
// reference owned by the caller. Fill its fields and Emit it (ownership
// transfers to the engine) or Release it if never emitted.
//
// The field reset happens here, on the producer side, not at release: the
// drain loops return packets to the pool as-is so the consuming core never
// dirties the packet's cache lines (see Stage.recycleLocal). The packet a
// caller receives is always fully zeroed — trace and lineage state cannot
// leak between reuses — but packets *inside* the pool may still carry
// their previous contents.
func GetPacket() *Packet {
	p := packetPool.get()
	if p == nil {
		poolMisses.Add(1)
		p = new(Packet)
	} else {
		p.reset()
	}
	p.pooled = true
	if atomic.LoadInt32(&p.refs) != 1 {
		atomic.StoreInt32(&p.refs, 1)
	}
	return p
}

// NewPacket returns a pooled packet carrying v with the given logical item
// count and wire size — the common shape of application emissions. The
// caller owns the packet until it is emitted.
func NewPacket(v any, items, wireSize int) *Packet {
	p := GetPacket()
	p.Value = v
	p.Items = items
	p.WireSize = wireSize
	return p
}

// Release drops one reference to a pooled packet, recycling it once the
// last owner lets go. All fields — trace and lineage context included —
// are cleared before the packet is handed out again (here and in
// GetPacket, belt and braces), so a recycled packet can never leak
// another stream's identity. Release on a non-pooled packet (or nil) is a
// no-op. Releasing more references than were held panics: a double
// release means two owners both believed the packet was theirs, and
// silently recycling it would corrupt whichever stream reuses it first.
func (p *Packet) Release() {
	if p == nil || !p.pooled {
		return
	}
	n := atomic.AddInt32(&p.refs, -1)
	switch {
	case n == 0:
		p.reset()
		packetPool.put(p) // a full ring drops the packet to the GC
	case n < 0:
		panic("pipeline: packet released more times than retained")
	}
}

// retain adds n references to a pooled packet (no-op otherwise). The engine
// calls it before fanning a packet out to multiple edges so each terminal
// consumer can Release independently.
func (p *Packet) retain(n int32) {
	if n > 0 && p.pooled {
		atomic.AddInt32(&p.refs, n)
	}
}

// reset clears every user-visible field so a recycled packet starts from
// the zero state. The reset guard for control packets lives here too:
// Final is cleared like everything else, so a pooled end-of-stream marker
// cannot terminate a later stream by accident. The pool-internal pooled
// and refs fields are left alone — callers on the get side publish the
// fresh reference count themselves, and skipping the write lets the
// common recycle cycle (release leaves refs at 1, GetPacket wants refs
// at 1) avoid a sequenced atomic store per packet.
func (p *Packet) reset() {
	p.SourceStage = ""
	p.SourceInstance = 0
	p.Seq = 0
	p.Final = false
	p.Value = nil
	p.Items = 0
	p.WireSize = 0
	p.Created = time.Time{}
	p.Birth = time.Time{}
	p.TraceID = 0
	p.TraceHops = 0
}
