// Fault-tolerance surface of the stage engine: per-edge replay rings,
// per-upstream sequence-watermark deduplication, the paused-only accessors
// the recovery controller drives, and the emit-side fault-verdict handling
// that models lossy or black-holed links.
//
// The design leans on two existing invariants. First, every emission is
// already stamped with a dense per-emitter sequence number (Stage.emitSeq),
// so "what did the crash lose" reduces to a sequence interval. Second,
// Pause's close(pausedCh) handshake gives an external goroutine a
// happens-before edge on everything the stage goroutine wrote, so the
// paused-only accessors below need no locking of their own.
//
// Enablement is per stage via StageConfig.ReplayBuffer (or the engine-wide
// default): a stage with fault tolerance on keeps a bounded ring of its last
// N emitted data packets per outbound edge, and its drain loops drop any
// received packet at or below the per-upstream watermark. Replay after a
// recovery re-injects the interval the crash swallowed; re-delivery of
// anything older is absorbed by the watermark, which is what turns
// at-least-once into effectively-once for deterministic emitters. The
// watermark advances monotonically, so this dedupe is incompatible with
// reorder injection on the same edge — a deliberately late packet looks
// like a duplicate (see DESIGN.md §13).
package pipeline

import (
	"context"
	"errors"
	"fmt"

	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/queue"
)

// UpstreamMark is a consumer-side replay watermark: every packet from the
// named emitter with Seq below Next has been consumed (or deliberately
// skipped). Gap-tolerant by construction — consuming Seq k advances Next to
// k+1 regardless of holes, so link loss cannot wedge the mark.
type UpstreamMark struct {
	Stage    string `json:"stage"`
	Instance int    `json:"instance"`
	Next     uint64 `json:"next"`
}

// replayEntry is one recorded emission. Plain value copies of the packet's
// identity-free payload fields: pooled packets must not be referenced after
// their downstream consumer releases them, but the Value interface and the
// counts are safe to retain (payload objects are heap-allocated and never
// recycled).
type replayEntry struct {
	seq   uint64
	value any
	items int
	wire  int
}

// replayRing is a bounded record of the last cap(entries) data emissions on
// one edge, in emission order. Confined to the emitting stage goroutine for
// writes; read by the recovery controller only while the emitter is paused.
type replayRing struct {
	entries []replayEntry
	next    int    // slot the next record lands in
	total   uint64 // lifetime records (≥ len tells wrap/eviction)
}

func newReplayRing(n int) *replayRing {
	return &replayRing{entries: make([]replayEntry, 0, n)}
}

func (r *replayRing) record(seq uint64, value any, items, wire int) {
	e := replayEntry{seq: seq, value: value, items: items, wire: wire}
	if len(r.entries) < cap(r.entries) {
		r.entries = append(r.entries, e)
	} else {
		r.entries[r.next] = e
	}
	r.next++
	if r.next == cap(r.entries) {
		r.next = 0
	}
	r.total++
}

// scan visits the retained entries in emission order.
func (r *replayRing) scan(fn func(replayEntry)) {
	if len(r.entries) < cap(r.entries) || r.total == uint64(len(r.entries)) {
		for _, e := range r.entries {
			fn(e)
		}
		return
	}
	for i := r.next; i < len(r.entries); i++ {
		fn(r.entries[i])
	}
	for i := 0; i < r.next; i++ {
		fn(r.entries[i])
	}
}

// oldest returns the seq of the oldest retained entry (ok=false when empty).
func (r *replayRing) oldest() (uint64, bool) {
	if len(r.entries) == 0 {
		return 0, false
	}
	if len(r.entries) < cap(r.entries) {
		return r.entries[0].seq, true
	}
	return r.entries[r.next].seq, true
}

// evicted reports whether the ring has overwritten records.
func (r *replayRing) evicted() bool { return r.total > uint64(len(r.entries)) }

// heldPacket is a delivery parked by a reorder verdict; due counts the
// delivery rounds remaining before release.
type heldPacket struct {
	pkt *Packet
	due int
}

// enableFT turns the stage's fault-tolerance surface on before its
// goroutine starts: one replay ring per outbound edge and the consumer-side
// watermark table, pre-seeded with the wired upstream emitters. Packets
// from emitters not known here (remote identities re-emitted by a transport
// ingress) get marks added on first sight by dropDup.
func (s *Stage) enableFT(n int) {
	for _, out := range s.outs {
		out.replay = newReplayRing(n)
	}
	s.replayOn = len(s.outs) > 0
	s.marks = s.marks[:0]
	for _, up := range s.upstream {
		if s.markFor(up.id, up.instance) == nil {
			s.marks = append(s.marks, UpstreamMark{Stage: up.id, Instance: up.instance})
		}
	}
	if s.marks == nil {
		// A source with fault tolerance on still needs a non-nil table so
		// dropDup stays armed for any future inputs (and Marks() reports
		// enablement).
		s.marks = []UpstreamMark{}
	}
}

func (s *Stage) markFor(stage string, instance int) *UpstreamMark {
	for i := range s.marks {
		if s.marks[i].Stage == stage && s.marks[i].Instance == instance {
			return &s.marks[i]
		}
	}
	return nil
}

// dropDup is the consumer-side dedupe check, called by the drain loops on
// the stage goroutine for every data packet when fault tolerance is on.
// It reports true when the packet's sequence is below its emitter's
// watermark (a replay overlap or a re-delivery) and advances the watermark
// otherwise.
func (s *Stage) dropDup(pkt *Packet) bool {
	m := s.markFor(pkt.SourceStage, pkt.SourceInstance)
	if m == nil {
		s.marks = append(s.marks, UpstreamMark{Stage: pkt.SourceStage, Instance: pkt.SourceInstance, Next: pkt.Seq + 1})
		return false
	}
	if pkt.Seq < m.Next {
		return true
	}
	m.Next = pkt.Seq + 1
	return false
}

// --- paused-only accessors (recovery controller surface) -------------------
//
// Every accessor below reads or writes state owned by the stage goroutine.
// They are safe only between a successful Pause (the close(pausedCh)
// handshake publishes the goroutine's writes) and the matching Resume. The
// recovery controller and the checkpointer are the only intended callers.

// EmitSeq returns the next sequence number this stage will stamp.
// Paused-only.
func (s *Stage) EmitSeq() uint64 { return s.emitSeq }

// SetEmitSeq rewinds (or advances) the next sequence number, restoring a
// checkpoint's emission position so deterministic re-emission after a state
// restore reproduces the original numbering. Paused-only.
func (s *Stage) SetEmitSeq(v uint64) { s.emitSeq = v }

// Marks returns a copy of the consumer-side watermark table (nil when fault
// tolerance is off for this stage). Paused-only.
func (s *Stage) Marks() []UpstreamMark {
	if s.marks == nil {
		return nil
	}
	out := make([]UpstreamMark, len(s.marks))
	copy(out, s.marks)
	return out
}

// SetMarks replaces the watermark table with a checkpointed copy.
// Paused-only.
func (s *Stage) SetMarks(marks []UpstreamMark) {
	s.marks = append(s.marks[:0], marks...)
}

// Upstreams returns the stages wired into this one. The wiring is immutable
// once the engine runs, so the copy is safe to take at any time.
func (s *Stage) Upstreams() []*Stage {
	out := make([]*Stage, len(s.upstream))
	copy(out, s.upstream)
	return out
}

// DiscardQueued empties the stage's input queue, releasing queued data
// packets back to the pool. It returns how many were discarded plus any
// final markers found — they are stream-termination control, not data, and
// the caller re-queues them with Requeue once replay has refilled the data
// they must trail. Recovery calls this on a crashed stage before restoring
// its checkpoint: whatever sat in the dead node's queue is re-covered by
// replay, and processing it twice would double-count. Paused-only, with
// every producer also paused.
func (s *Stage) DiscardQueued() (int, []*Packet) {
	q := s.inq()
	n := 0
	var finals []*Packet
	for {
		p, err := q.TryPop()
		if err != nil {
			break
		}
		if p.Final {
			finals = append(finals, p)
			continue
		}
		n++
		p.Release()
	}
	return n, finals
}

// Requeue pushes packets (typically finals held out by DiscardQueued) back
// into the stage's input queue. A full queue is waited out, not treated as
// loss: by requeue time the stage is resumed and draining (or another
// pauser holds it briefly), and a silently dropped final marker would wedge
// every downstream stage forever. Only a closed queue releases the packets
// — the run is already over and nobody is owed termination.
func (s *Stage) Requeue(pkts []*Packet) {
	q := s.inq()
	for _, p := range pkts {
		if err := q.Push(p); err != nil {
			p.Release()
		}
	}
}

// Downstreams returns the stages this one emits to. Like Upstreams, the
// wiring is immutable once the engine runs.
func (s *Stage) Downstreams() []*Stage {
	out := make([]*Stage, len(s.outs))
	for i, e := range s.outs {
		out[i] = e.to
	}
	return out
}

// ReplayInto re-injects this stage's recorded emissions toward dst for
// every sequence in [from, to), pushing fresh pooled packets directly into
// dst's input queue — bypassing the emit path, so the replayed packets keep
// their original sequence numbers and the emitter's emitSeq is untouched.
// It returns the number of packets replayed and whether the interval
// reached past the ring's retention (gap=true means data in [from, to) was
// evicted and is unrecoverable — an at-least-once guarantee violation worth
// alarming on).
//
// Call only while this stage (the emitter) is paused — making the recovery
// goroutine the edge's sole producer, which keeps even an SPSC destination
// ring safe — and with dst either paused or running behind a queue; dst
// consuming concurrently is fine.
func (s *Stage) ReplayInto(ctx context.Context, dst *Stage, from, to uint64) (replayed int, gap bool, err error) {
	var ring *replayRing
	for _, out := range s.outs {
		if out.to == dst {
			ring = out.replay
			break
		}
	}
	if ring == nil {
		return 0, false, fmt.Errorf("pipeline: replay %s/%d -> %s/%d: no replay ring on that edge",
			s.id, s.instance, dst.id, dst.instance)
	}
	if oldest, ok := ring.oldest(); ring.evicted() && (!ok || from < oldest) {
		gap = true
	}
	q := dst.inq()
	now := s.clk.Now()
	var pushErr error
	ring.scan(func(e replayEntry) {
		if pushErr != nil || e.seq < from || e.seq >= to {
			return
		}
		p := GetPacket()
		p.SourceStage = s.id
		p.SourceInstance = s.instance
		p.Seq = e.seq
		p.Value = e.value
		p.Items = e.items
		p.WireSize = e.wire
		p.Created = now
		if err := q.PushCtx(ctx, p); err != nil {
			p.Release()
			pushErr = err
			return
		}
		replayed++
	})
	if pushErr != nil && !errors.Is(pushErr, queue.ErrClosed) {
		return replayed, gap, fmt.Errorf("pipeline: replay %s/%d -> %s/%d: %w",
			s.id, s.instance, dst.id, dst.instance, pushErr)
	}
	return replayed, gap, nil
}

// --- emit-side fault handling ----------------------------------------------

// emitFaulty carries one packet over a link with fault state installed:
// drop, hold (reorder), or deliver plus the release of held packets that
// have served their rounds. Final markers are never dropped or held — they
// terminate streams, and losing one would wedge every downstream stage —
// and any held packets flush ahead of them so the marker stays last. Runs
// on the stage goroutine (the emit path).
func (s *Stage) emitFaulty(ctx context.Context, out *edge, l *netsim.Link, pkt *Packet, size int) error {
	if pkt.Final {
		for _, h := range out.held {
			l.Transfer(h.pkt.size())
			if err := s.pushFaulty(ctx, out, h.pkt); err != nil {
				return err
			}
		}
		out.held = out.held[:0]
		l.Transfer(size)
		return s.pushFaulty(ctx, out, pkt)
	}
	act, depth := l.FaultVerdict()
	switch act {
	case netsim.FaultDrop:
		pkt.Release() // this edge's reference; other edges are unaffected
		return nil
	case netsim.FaultHold:
		out.held = append(out.held, heldPacket{pkt: pkt, due: depth})
		return nil
	}
	l.Transfer(size)
	if err := s.pushFaulty(ctx, out, pkt); err != nil {
		return err
	}
	return s.releaseDueHeld(ctx, out, l, 1)
}

// releaseDueHeld ages every held packet on the edge by rounds delivery
// rounds and delivers the ones that have come due — after the current
// round's packets, which is what makes the hold a real reordering.
func (s *Stage) releaseDueHeld(ctx context.Context, out *edge, l *netsim.Link, rounds int) error {
	if len(out.held) == 0 {
		return nil
	}
	keep := out.held[:0]
	for i := range out.held {
		h := out.held[i]
		h.due -= rounds
		if h.due > 0 {
			keep = append(keep, h)
			continue
		}
		l.Transfer(h.pkt.size())
		if err := s.pushFaulty(ctx, out, h.pkt); err != nil {
			// Drop the rest of the held buffer's entries from tracking;
			// a closed downstream released nothing further anyway.
			out.held = out.held[:0]
			return err
		}
	}
	out.held = keep
	return nil
}

// pushFaulty enqueues one packet downstream on the faulty path, mirroring
// the closed-queue semantics of the regular emit path (drop and continue).
// Stall attribution is deliberately skipped here — a faulty link is an
// injected failure, not backpressure — so this is pushPausable without its
// accounting: the run's TryPush, then the blocking path.
func (s *Stage) pushFaulty(ctx context.Context, out *edge, pkt *Packet) error {
	if s.runLen < runLag && out.to.in.TryPush(pkt) {
		return nil
	}
	err := s.pushBlocking(ctx, out.to, pkt)
	if err == nil {
		return nil
	}
	if errors.Is(err, queue.ErrClosed) {
		pkt.Release()
		return nil
	}
	return fmt.Errorf("pipeline: %s/%d -> %s/%d: %w",
		s.id, s.instance, out.to.id, out.to.instance, err)
}

// flushFaulty is the batched-emit counterpart: it applies the link's
// verdict to every pending packet on the edge and returns the list to
// actually deliver this flush — surviving packets in order, then any held
// packets that came due (their position behind newer traffic is the
// reordering). The returned slice is the edge-local scratch; valid until
// the next call.
func (s *Stage) flushFaulty(out *edge, l *netsim.Link, pend []*Packet) []*Packet {
	deliver := out.scratch[:0]
	for _, p := range pend {
		if p.Final {
			// Held traffic flushes ahead of the end-of-stream marker.
			for _, h := range out.held {
				deliver = append(deliver, h.pkt)
			}
			out.held = out.held[:0]
			deliver = append(deliver, p)
			continue
		}
		act, depth := l.FaultVerdict()
		switch act {
		case netsim.FaultDrop:
			p.Release()
		case netsim.FaultHold:
			out.held = append(out.held, heldPacket{pkt: p, due: depth})
		default:
			deliver = append(deliver, p)
		}
	}
	keep := out.held[:0]
	for i := range out.held {
		h := out.held[i]
		h.due--
		if h.due <= 0 {
			deliver = append(deliver, h.pkt)
			continue
		}
		keep = append(keep, h)
	}
	out.held = keep
	out.scratch = deliver
	return deliver
}

// releaseHeld returns every parked reorder packet to the pool; the engine
// calls it when the stage goroutine exits so injected holds cannot leak
// pool capacity past the run.
func (s *Stage) releaseHeld() {
	for _, out := range s.outs {
		for _, h := range out.held {
			h.pkt.Release()
		}
		out.held = nil
	}
}
