package pipeline

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
)

// dirty fills every user-visible packet field with sentinel values.
func dirty(p *Packet) {
	p.SourceStage = "ghost"
	p.SourceInstance = 9
	p.Seq = 99
	p.Final = true
	p.Value = "stale"
	p.Items = 17
	p.WireSize = 512
	p.Created = time.Unix(1, 0)
	p.Birth = time.Unix(2, 0)
	p.TraceID = 0xdead
	p.TraceHops = 3
}

// assertClean fails if any user-visible field survived recycling.
func assertClean(t *testing.T, p *Packet) {
	t.Helper()
	if p.SourceStage != "" || p.SourceInstance != 0 || p.Seq != 0 || p.Final ||
		p.Value != nil || p.Items != 0 || p.WireSize != 0 ||
		!p.Created.IsZero() || !p.Birth.IsZero() || p.TraceID != 0 || p.TraceHops != 0 {
		t.Fatalf("recycled packet leaked state: %+v", *p)
	}
}

// TestPoolReuseNeverLeaks cycles packets through the package-level
// get/release path: whatever trace, lineage, or control state the previous
// user left behind, the next GetPacket must hand out a zeroed packet. The
// LIFO pool makes each released packet the next one handed out, so every
// iteration really exercises reuse.
func TestPoolReuseNeverLeaks(t *testing.T) {
	for i := 0; i < 100; i++ {
		p := GetPacket()
		assertClean(t, p)
		if !p.pooled || atomic.LoadInt32(&p.refs) != 1 {
			t.Fatalf("GetPacket pooled=%v refs=%d", p.pooled, atomic.LoadInt32(&p.refs))
		}
		dirty(p)
		p.Release()
	}
}

// TestEmitterCacheResetsRecycled drives the goroutine-local fast path the
// engine itself uses: recycleLocal parks the packet without resetting it
// (deliberately — the consumer core stays read-only), so the reset at
// Emitter.GetPacket handout is the only thing standing between a recycled
// packet and a lineage leak. A Final marker is the nastiest case: a leaked
// Final would terminate the next stream.
func TestEmitterCacheResetsRecycled(t *testing.T) {
	s := &Stage{}
	em := &Emitter{stage: s}
	seen := make(map[*Packet]bool)
	for i := 0; i < 3*localCacheSize; i++ {
		p := em.GetPacket()
		assertClean(t, p)
		seen[p] = true
		dirty(p)
		s.recycleLocal(p)
		if len(s.recycle) >= localCacheSize {
			s.flushRecycle()
		}
	}
	s.flushRecycle()
	em.releaseFree()
	if len(seen) > 2*localCacheSize {
		t.Fatalf("no reuse happened across %d cycles (%d distinct packets)", 3*localCacheSize, len(seen))
	}
}

// TestReleaseGuardsDoubleRelease: releasing more references than held must
// panic — silently recycling a double-released packet would hand the same
// packet to two owners.
func TestReleaseGuardsDoubleRelease(t *testing.T) {
	p := GetPacket()
	p.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	p.Release()
}

// TestRetainFanout checks the broadcast accounting: retain(n) adds one
// reference per extra edge and the packet survives until the last release.
func TestRetainFanout(t *testing.T) {
	p := GetPacket()
	p.retain(2) // 3 references total, as for a 3-edge broadcast
	p.Release()
	p.Release()
	if got := atomic.LoadInt32(&p.refs); got != 1 {
		t.Fatalf("refs after 2 of 3 releases = %d", got)
	}
	p.Release() // last owner: recycles
}

// TestNonPooledPacketsOptOut: packets built directly with &Packet{} skip
// the pool lifecycle entirely, so existing tests and user code that
// construct packets by hand keep working.
func TestNonPooledPacketsOptOut(t *testing.T) {
	p := &Packet{Final: true, TraceID: 7}
	p.retain(5)
	p.Release()
	p.Release() // would panic if the pool lifecycle applied
	if !p.Final || p.TraceID != 7 {
		t.Fatal("Release touched a non-pooled packet")
	}
}

// TestPacketStackBulkBounds exercises the shared freelist's bulk
// operations at their capacity edges: putN stores only what fits, getN
// pops LIFO, and both sides tolerate empty/full extremes.
func TestPacketStackBulkBounds(t *testing.T) {
	st := newPacketStack(8)
	ps := make([]*Packet, 12)
	for i := range ps {
		ps[i] = new(Packet)
	}
	if n := st.putN(ps[:5]); n != 5 {
		t.Fatalf("putN(5) into empty cap-8 stack = %d", n)
	}
	if n := st.putN(ps[5:]); n != 3 {
		t.Fatalf("putN(7) into 5/8 stack = %d, want 3", n)
	}
	if st.put(ps[9]) {
		t.Fatal("put into a full stack succeeded")
	}
	dst := make([]*Packet, 16)
	if n := st.getN(dst); n != 8 {
		t.Fatalf("getN from full stack = %d, want 8", n)
	}
	if dst[7] != ps[7] { // last in, first out
		t.Fatal("getN did not pop LIFO order")
	}
	if n := st.getN(dst); n != 0 {
		t.Fatalf("getN from empty stack = %d", n)
	}
	if st.get() != nil {
		t.Fatal("get from empty stack returned a packet")
	}
	if n := st.putN(nil); n != 0 {
		t.Fatalf("putN(nil) = %d", n)
	}
}

// hammerSource emits count values with per-packet lineage-bearing wire
// sizes, yielding to the scheduler now and then so pauses land mid-stream.
type hammerSource struct {
	instance int
	count    int
}

func (s *hammerSource) Run(_ *Context, out *Emitter) error {
	for i := 0; i < s.count; i++ {
		p := out.GetPacket()
		p.Value = s.instance*1_000_000 + i
		p.WireSize = 16
		if err := out.Emit(p); err != nil {
			return err
		}
	}
	return nil
}

// forwardProc re-emits its input packet downstream — the ownership
// handoff case the drain loop must detect (curForwarded).
type forwardProc struct{}

func (forwardProc) Init(*Context) error { return nil }
func (forwardProc) Process(_ *Context, pkt *Packet, out *Emitter) error {
	return out.Emit(pkt)
}
func (forwardProc) Finish(*Context, *Emitter) error { return nil }

// countSink counts packets and validates payloads are ints (a recycled
// packet delivered twice or reset mid-flight would surface here).
type countSink struct {
	n   atomic.Int64
	bad atomic.Int64
}

func (c *countSink) Init(*Context) error { return nil }
func (c *countSink) Process(_ *Context, pkt *Packet, _ *Emitter) error {
	if _, ok := pkt.Value.(int); !ok {
		c.bad.Add(1)
	}
	c.n.Add(1)
	return nil
}
func (c *countSink) Finish(*Context, *Emitter) error { return nil }

// TestRingStagesPauseResumeSnapshotRace is the race-detector hammer for
// the ring-backed stage graph: two sources fan into a forwarding stage
// (MPSC ring) which feeds a sink (SPSC ring), while outside goroutines
// hammer Pause/Resume and the Snapshot-based observers (QueuedState,
// QueueStats, QueueLen, the ring kind) on both ring stages. Every emitted
// packet must still arrive exactly once with its payload intact. Run it
// under -race: the interesting failures are ordering violations, not
// counts.
func TestRingStagesPauseResumeSnapshotRace(t *testing.T) {
	const perSource = 3000
	clk := clock.NewManual()
	eng := New(clk)
	src0 := &hammerSource{instance: 0, count: perSource}
	src1 := &hammerSource{instance: 1, count: perSource}
	sink := &countSink{}
	s0, _ := eng.AddSourceStage("src", 0, src0, StageConfig{DisableAdaptation: true})
	s1, _ := eng.AddSourceStage("src", 1, src1, StageConfig{DisableAdaptation: true})
	mid, _ := eng.AddProcessorStage("mid", 0, forwardProc{}, StageConfig{DisableAdaptation: true, BatchSize: 8, QueueCapacity: 64})
	end, _ := eng.AddProcessorStage("end", 0, sink, StageConfig{DisableAdaptation: true, QueueCapacity: 64})
	for _, s := range []*Stage{s0, s1} {
		if err := eng.Connect(s, mid, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Connect(mid, end, nil); err != nil {
		t.Fatal(err)
	}

	runDone := make(chan error, 1)
	go func() { runDone <- eng.Run(context.Background()) }()

	stop := make(chan struct{})
	obsDone := make(chan struct{})
	go func() { // observer hammer: live stats reads are always legal
		defer close(obsDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range []*Stage{mid, end} {
				s.QueueStats()
				s.QueueLen()
				s.inq().SPSC()
			}
			runtime.Gosched()
		}
	}()
	pauseDone := make(chan struct{})
	go func() { // lifecycle hammer: pause, snapshot the paused ring, resume.
		// Snapshot (via QueuedState) requires a quiescent consumer — that
		// is its contract and migration's usage — but the upstream
		// producers keep pushing into the paused stage the whole time.
		defer close(pauseDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s := mid
			if i%2 == 1 {
				s = end
			}
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			err := s.Pause(ctx)
			cancel()
			if err != nil {
				// A pause that failed holds nothing: a timed-out one was
				// taken back, so the stage runs on without a Resume.
				continue
			}
			s.QueuedState()
			s.Resume()
			// Let the drained stage make real progress between pauses.
			time.Sleep(200 * time.Microsecond)
		}
	}()

	err := <-runDone
	close(stop)
	<-obsDone
	<-pauseDone
	if err != nil {
		t.Fatal(err)
	}
	if got := sink.n.Load(); got != 2*perSource {
		t.Fatalf("sink received %d packets, want %d", got, 2*perSource)
	}
	if bad := sink.bad.Load(); bad != 0 {
		t.Fatalf("%d packets arrived with corrupted payloads", bad)
	}
	// The engine picked the ring kinds: fan-in is MPSC, the linear edge
	// SPSC.
	if mid.inq().SPSC() {
		t.Fatal("fan-in stage mid got an SPSC ring, want mpsc")
	}
	if !end.inq().SPSC() {
		t.Fatal("single-upstream stage end got an MPSC ring, want spsc")
	}
	if st := s0.QueueStats(); st.Pushed != 0 || s0.QueueLen() != 0 {
		t.Fatalf("source ring saw traffic: %+v", st)
	}
}
