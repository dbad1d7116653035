package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
)

// DefaultSampleEvery is the default trace sampling period: one span
// recorded per this many started.
const DefaultSampleEvery = 64

// DefaultTraceCapacity is the default retained-span ring size.
const DefaultTraceCapacity = 256

// Tracer samples lightweight spans on the hot data path. Each call site
// holds an Op whose unsampled fast path is an increment and a compare of
// its own words — no clock read, no allocation — so instrumenting a
// per-packet loop costs effectively nothing between samples. Sampled spans
// read the virtual clock at start and end and land in a bounded ring.
//
// A nil *Tracer is valid: its Ops are nil and start nothing.
type Tracer struct {
	clk   clock.Clock
	every uint64

	seq     atomic.Uint64 // forced spans started via StartTraced
	sampled atomic.Uint64 // spans recorded

	mu    sync.Mutex
	ops   []*Op
	ring  []spanEntry
	next  int
	count int
}

// NewTracer returns a tracer sampling one span in every `every` started
// (<=0 selects DefaultSampleEvery; 1 records everything), retaining up to
// capacity completed spans (<=0 selects DefaultTraceCapacity).
func NewTracer(clk clock.Clock, every, capacity int) *Tracer {
	if clk == nil {
		panic("obs: NewTracer requires a clock")
	}
	if every <= 0 {
		every = DefaultSampleEvery
	}
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{clk: clk, every: uint64(every), ring: make([]spanEntry, capacity)}
}

// SampleEvery returns the sampling period.
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return int(t.every)
}

// Op is a per-call-site sampling handle: it gives a call site a cadence of
// its own, so concurrent stages sample independently at full speed without
// sharing a cache line. An Op belongs to the one goroutine that starts its
// spans — the cadence is kept in plain words, so sharing one between
// goroutines is a bug. Create one per instrumented site at setup time and
// reuse it. A nil *Op (from a nil or disabled tracer) is never due.
type Op struct {
	t    *Tracer
	name string
	// n counts the spans this site has started and next is the count past
	// which one is sampled; both are the owner's alone. seq is n as of the
	// last sampled span — what Counts reads, trailing n by fewer than every.
	n, next uint64
	seq     atomic.Uint64
	_       [16]byte // pad Op to one 64-byte cache line; hot counters must not false-share
}

// Op returns a sampling handle for one call site. Each handle samples on
// its own 1-in-every cadence, starting with its first span.
func (t *Tracer) Op(name string) *Op {
	if t == nil {
		return nil
	}
	op := &Op{t: t, name: name}
	t.mu.Lock()
	t.ops = append(t.ops, op)
	t.mu.Unlock()
	return op
}

// Due counts one span on this site's cadence and reports whether it is the
// sampled one, which the caller then starts with Begin. Between samples that
// is an increment and a compare of the owner's own words — small enough to
// inline, no atomic, no clock read, no Span. A per-packet site keeps Begin,
// and the 112-byte Span it returns, in a function only the sampled iteration
// calls. False on a nil Op.
func (o *Op) Due() bool {
	if o == nil {
		return false
	}
	o.n++
	return o.n > o.next
}

// Begin starts the sampled span Due just called for and opens the next period.
func (o *Op) Begin() Span {
	o.next += o.t.every
	o.seq.Store(o.n)
	return Span{t: o.t, name: o.name, start: o.t.clk.Now()}
}

// StartTraced begins a forced-sampled span belonging to a propagated
// distributed trace: the span is always recorded (no cadence check) and
// carries the trace id and hop count, so the span trees of sampled batches
// stay complete as they cross stages and nodes. The id/hop pair is what the
// transport serializes; traceID 0 (unsampled lineage) degrades to an inert
// span. Safe on a nil tracer.
func (t *Tracer) StartTraced(name string, traceID uint64, hop uint8) Span {
	if t == nil || traceID == 0 {
		return Span{}
	}
	// Forced spans count as started too, keeping started >= sampled. The
	// shared counter is fine here: this path already pays for a clock read
	// and a ring write, and only fires on sampled lineages.
	t.seq.Add(1)
	return Span{t: t, name: name, start: t.clk.Now(), traceID: traceID, hop: hop}
}

// traceIDBase seeds process-unique trace ids; the per-process counter keeps
// ids unique within a node, the mixing below spreads them across nodes.
var traceIDBase atomic.Uint64

// NewTraceID mints a non-zero trace id. Ids are sequence numbers passed
// through a splitmix64 finalizer, so concurrently minted ids from distinct
// tracers in one process never collide and ids from different processes
// collide only by 64-bit accident.
func NewTraceID() uint64 {
	for {
		x := traceIDBase.Add(0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// RootSampler decides, per source call site, which emitted packets become
// trace roots. Unlike Op it is confined to the one goroutine running its
// source stage, so the per-packet counter needs no atomics; concurrent
// source stages each hold their own sampler and their independent
// 1-in-every cadences never share state. A nil *RootSampler (disabled
// tracer) never samples.
type RootSampler struct {
	t     *Tracer
	seq   uint64
	next  uint64 // seq value of the next sampled packet
	every uint64
}

// RootSampler returns a trace-root sampling handle on this tracer's
// cadence. The first packet through is sampled, then one in every
// SampleEvery.
func (t *Tracer) RootSampler() *RootSampler {
	if t == nil {
		return nil
	}
	return &RootSampler{t: t, every: t.every}
}

// Sample returns a fresh trace id for 1-in-every packets, or (0, false)
// between samples.
func (r *RootSampler) Sample() (uint64, bool) {
	if r == nil {
		return 0, false
	}
	n := r.seq
	r.seq++
	if n != r.next {
		return 0, false
	}
	r.next += r.every
	return NewTraceID(), true
}

// Counts returns how many spans were started (across StartTraced and every
// Op) and how many were recorded. An Op publishes its count when it samples, so
// started trails a running site by fewer than SampleEvery spans; sampled is
// read first, so a concurrent reader never sees it above started.
func (t *Tracer) Counts() (started, sampled uint64) {
	if t == nil {
		return 0, 0
	}
	sampled = t.sampled.Load()
	started = t.seq.Load()
	t.mu.Lock()
	ops := t.ops
	t.mu.Unlock()
	for _, op := range ops {
		started += op.seq.Load()
	}
	return started, sampled
}

// Spans returns the retained spans, oldest first.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, t.count)
	start := t.next - t.count
	for i := 0; i < t.count; i++ {
		e := &t.ring[(start+i+len(t.ring))%len(t.ring)]
		r := e.rec
		if e.nattr > 0 {
			r.Attrs = append([]SpanAttr(nil), e.attrs[:e.nattr]...)
		}
		out = append(out, r)
	}
	return out
}

// spanEntry is one retained span: its record without Attrs, and the
// annotations held inline until Spans builds the slice.
type spanEntry struct {
	rec   SpanRecord
	attrs [maxSpanAttrs]SpanAttr
	nattr uint8
}

func (t *Tracer) record(e spanEntry) {
	t.sampled.Add(1)
	t.mu.Lock()
	t.ring[t.next] = e
	t.next = (t.next + 1) % len(t.ring)
	if t.count < len(t.ring) {
		t.count++
	}
	t.mu.Unlock()
}

// SpanAttr is one numeric annotation on a span. Attributes are numeric on
// purpose: the hot path never formats strings for a span that may be
// thrown away.
type SpanAttr struct {
	Key   string  `json:"key"`
	Value float64 `json:"value"`
}

// SpanRecord is one completed, sampled span.
type SpanRecord struct {
	// Name identifies the operation (e.g. "stage.batch", "link.flush").
	Name string `json:"name"`
	// Start is the span's virtual start time.
	Start time.Time `json:"start"`
	// Duration is the span's virtual elapsed time.
	Duration time.Duration `json:"duration_ns"`
	// TraceID links spans of one sampled batch's journey across stages
	// and nodes; 0 for locally sampled spans outside any trace.
	TraceID uint64 `json:"trace_id,omitempty"`
	// Hop is the number of node crossings since the trace root at the
	// time the span ran.
	Hop uint8 `json:"hop,omitempty"`
	// Attrs are the annotations added during the span.
	Attrs []SpanAttr `json:"attrs,omitempty"`
}

// maxSpanAttrs is how many annotations a span holds. They are held inline,
// so a sampled span allocates nothing; no call site adds more than two.
const maxSpanAttrs = 2

// Span is one in-flight trace span. The zero value is inert.
type Span struct {
	t       *Tracer
	name    string
	start   time.Time
	traceID uint64
	hop     uint8
	nattr   uint8
	attrs   [maxSpanAttrs]SpanAttr
}

// Sampled reports whether this span will be recorded. Use it to gate any
// extra work (building annotations, timing sub-steps) on the sampled path.
func (s *Span) Sampled() bool { return s.t != nil }

// Annotate attaches a numeric attribute; a no-op on inert spans. A span
// keeps its first maxSpanAttrs annotations and drops the rest.
func (s *Span) Annotate(key string, value float64) {
	if s.t == nil || s.nattr == maxSpanAttrs {
		return
	}
	s.attrs[s.nattr] = SpanAttr{Key: key, Value: value}
	s.nattr++
}

// End completes the span and returns its virtual duration (zero for inert
// spans).
func (s *Span) End() time.Duration {
	if s.t == nil {
		return 0
	}
	d := s.t.clk.Now().Sub(s.start)
	s.t.record(spanEntry{
		rec:   SpanRecord{Name: s.name, Start: s.start, Duration: d, TraceID: s.traceID, Hop: s.hop},
		attrs: s.attrs, nattr: s.nattr,
	})
	s.t = nil
	return d
}
