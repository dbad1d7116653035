package queue

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// ringSlot couples a value with its publication sequence. seq is used only
// in MPSC mode: a producer that has claimed position p stores p+1 into the
// slot's seq after writing the value, and the consumer treats a slot as
// published only when seq matches. In SPSC mode the single producer's tail
// store is the publication, so seq stays untouched.
type ringSlot[T any] struct {
	seq atomic.Uint64
	val T
}

// Ring is a bounded lock-free FIFO for the pipeline hot path: one consumer
// (the owning stage's drain loop) and either exactly one producer (SPSC —
// chosen when a single upstream stage feeds the edge) or any number (MPSC).
// The fast path is purely atomic: a Vyukov-style slot-sequence ring with the
// producer's capacity check gated on the consumer cursor, so claimed slots
// are always already released. Producers and the consumer park on a
// mutex+condvar only when the ring is full/empty, with atomic counts of the
// waiters still owed a wakeup, so the non-blocked side pays one atomic load
// to know nobody needs waking — or that the wakeup has already been sent.
//
// Push* fails with ErrClosed after Close, Pop* drains then fails with
// ErrClosed, ctx variants return ctx.Err() on cancellation without consuming
// or inserting anything, and Stats/Len are safe to sample from any goroutine
// at any time.
//
// Snapshot is the one operation with a narrower contract: it reads the
// occupied slots without synchronizing against the consumer, so it is
// race-free only while the consumer is quiescent (e.g. the owning stage is
// Paused) — exactly how live migration uses it. Concurrent producers are
// fine: Snapshot only examines slots published before it started.
type Ring[T any] struct {
	logical uint64 // capacity C exposed to callers
	mask    uint64 // physical size (power of two >= logical) minus one
	spsc    bool
	buf     []ringSlot[T]

	// head and tail live on their own cache lines: the consumer owns
	// head, producers own tail, and cross-line false sharing would put
	// both cursors in every core's miss path.
	_    [64]byte
	head atomic.Uint64 // next position to pop
	_    [56]byte
	tail atomic.Uint64 // next position to claim
	_    [56]byte

	closed        atomic.Bool
	highWater     atomic.Int64
	blockedPushes atomic.Uint64
	blockedPops   atomic.Uint64
	// pushStallNS/popStallNS accumulate wall nanoseconds spent parked in
	// waitNotFull/waitNotEmpty — the backpressure signal the attribution
	// engine reads. Only the parked slow path touches the wall clock.
	pushStallNS atomic.Uint64
	popStallNS  atomic.Uint64

	// Parking slow path. pushWaiters/popWaiters count the goroutines parked
	// and not yet signalled. A waiter increments under mu before every
	// re-check of the predicate (the condvar wait holds mu until the
	// goroutine is suspended), and the fast path's publish/release stores
	// precede its waiter-count load, so the Dekker pair guarantees either
	// the waiter sees the new cursor or the mover sees the waiter. Whoever
	// broadcasts zeroes the count under mu, so a peer that has been readied
	// but has not run yet costs the next mover one atomic load, not the lock.
	mu          sync.Mutex
	notFull     *sync.Cond
	notEmpty    *sync.Cond
	pushWaiters atomic.Int32
	popWaiters  atomic.Int32
	// watched caches one cancellation-watcher goroutine per live context,
	// so parking with the same pop/run context never allocates after the
	// first wait (a per-call watcher would cost a goroutine+channel per
	// blocked operation).
	watched []context.Context
}

// NewSPSC returns a ring for exactly one producer goroutine and one
// consumer goroutine. A second concurrent producer corrupts the ring; use
// NewMPSC when the producer count is not statically one.
func NewSPSC[T any](capacity int) *Ring[T] { return newRing[T](capacity, true) }

// NewMPSC returns a ring for any number of producers and one consumer.
func NewMPSC[T any](capacity int) *Ring[T] { return newRing[T](capacity, false) }

func newRing[T any](capacity int, spsc bool) *Ring[T] {
	if capacity < 1 {
		panic("queue: capacity must be >= 1")
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	r := &Ring[T]{
		logical: uint64(capacity),
		mask:    uint64(size - 1),
		spsc:    spsc,
		buf:     make([]ringSlot[T], size),
	}
	r.notFull = sync.NewCond(&r.mu)
	r.notEmpty = sync.NewCond(&r.mu)
	return r
}

// Cap returns the logical capacity C (the backpressure bound, not the
// power-of-two physical size).
func (r *Ring[T]) Cap() int { return int(r.logical) }

// Len returns the approximate occupancy: exact when sampled while the ring
// is quiescent, within one concurrent batch otherwise. It is the d the
// adaptation controller samples; two atomic loads, no locking.
func (r *Ring[T]) Len() int {
	h := r.head.Load()
	t := r.tail.Load()
	n := int64(t - h)
	if n < 0 {
		n = 0
	}
	if n > int64(r.logical) {
		n = int64(r.logical)
	}
	return int(n)
}

// SPSC reports whether the ring was built for exactly one producer.
func (r *Ring[T]) SPSC() bool { return r.spsc }

// Stats returns a snapshot of the ring's counters. Pushed counts claimed
// positions (a producer mid-publish is included), Popped counts consumed
// ones.
func (r *Ring[T]) Stats() Stats {
	return Stats{
		Pushed:        r.tail.Load(),
		Popped:        r.head.Load(),
		BlockedPushes: r.blockedPushes.Load(),
		BlockedPops:   r.blockedPops.Load(),
		HighWater:     int(r.highWater.Load()),
		PushStallNS:   r.pushStallNS.Load(),
		PopStallNS:    r.popStallNS.Load(),
	}
}

// Snapshot returns the published items oldest-first without removing them.
// See the type comment: the consumer must be quiescent (stage paused);
// concurrent producers are safe.
func (r *Ring[T]) Snapshot() []T {
	h := r.head.Load()
	if r.spsc {
		t := r.tail.Load()
		out := make([]T, 0, t-h)
		for p := h; p != t; p++ {
			out = append(out, r.buf[p&r.mask].val)
		}
		return out
	}
	var out []T
	for p := h; p-h < r.logical; p++ {
		s := &r.buf[p&r.mask]
		if s.seq.Load() != p+1 {
			break
		}
		out = append(out, s.val)
	}
	return out
}

// Close marks the ring closed and wakes every parked producer and consumer.
// Idempotent.
func (r *Ring[T]) Close() {
	r.mu.Lock()
	if !r.closed.Swap(true) {
		r.wakeAllLocked()
	}
	r.mu.Unlock()
}

// wakeAllLocked signals every parked producer and consumer. Caller holds
// r.mu.
func (r *Ring[T]) wakeAllLocked() {
	r.pushWaiters.Store(0)
	r.popWaiters.Store(0)
	r.notFull.Broadcast()
	r.notEmpty.Broadcast()
}

// --- lock-free core ---

// push1 claims one slot, writes v, and publishes it. It returns false when
// the ring is logically full. Allocation-free.
func (r *Ring[T]) push1(v T) bool {
	if r.spsc {
		t := r.tail.Load() // own cursor
		h := r.head.Load()
		if t-h >= r.logical {
			return false
		}
		// The claimed slot was consumed and zeroed before head passed
		// t-size, and t-h < logical <= size, so no seq check is needed
		// before writing.
		r.buf[t&r.mask].val = v
		r.tail.Store(t + 1) // publish
		r.afterPush()
		return true
	}
	for {
		t := r.tail.Load()
		h := r.head.Load()
		if t-h >= r.logical {
			return false
		}
		if r.tail.CompareAndSwap(t, t+1) {
			s := &r.buf[t&r.mask]
			s.val = v
			s.seq.Store(t + 1) // publish
			r.afterPush()
			return true
		}
	}
}

// pushN claims, writes, and publishes up to len(items) items, returning how
// many were accepted (0 when full). Items are published in claim order.
func (r *Ring[T]) pushN(items []T) int {
	n := len(items)
	if n == 0 {
		return 0
	}
	if r.spsc {
		t := r.tail.Load()
		h := r.head.Load()
		free := int(r.logical - (t - h))
		if free <= 0 {
			return 0
		}
		if n > free {
			n = free
		}
		for i := 0; i < n; i++ {
			r.buf[(t+uint64(i))&r.mask].val = items[i]
		}
		r.tail.Store(t + uint64(n))
		r.afterPush()
		return n
	}
	for {
		t := r.tail.Load()
		h := r.head.Load()
		free := int(r.logical - (t - h))
		if free <= 0 {
			return 0
		}
		k := n
		if k > free {
			k = free
		}
		if !r.tail.CompareAndSwap(t, t+uint64(k)) {
			continue
		}
		for i := 0; i < k; i++ {
			s := &r.buf[(t+uint64(i))&r.mask]
			s.val = items[i]
			s.seq.Store(t + uint64(i) + 1)
		}
		r.afterPush()
		return k
	}
}

// afterPush maintains the high-water mark and wakes a parked consumer. The
// publication store above is sequenced before the popWaiters load, pairing
// with waitNotEmpty's increment-then-recheck.
func (r *Ring[T]) afterPush() {
	occ := int64(r.tail.Load() - r.head.Load())
	if occ > int64(r.logical) {
		occ = int64(r.logical)
	}
	for {
		cur := r.highWater.Load()
		if occ <= cur || r.highWater.CompareAndSwap(cur, occ) {
			break
		}
	}
	if r.popWaiters.Load() > 0 {
		r.mu.Lock()
		r.popWaiters.Store(0)
		r.notEmpty.Broadcast()
		r.mu.Unlock()
	}
}

// pop1 removes the oldest published item. It returns false when nothing is
// published. Allocation-free; single consumer only.
func (r *Ring[T]) pop1() (T, bool) {
	var zero T
	h := r.head.Load() // own cursor
	s := &r.buf[h&r.mask]
	if r.spsc {
		if r.tail.Load() == h {
			return zero, false
		}
	} else if s.seq.Load() != h+1 {
		return zero, false
	}
	v := s.val
	s.val = zero // release the reference before the slot is reusable
	r.head.Store(h + 1)
	r.afterPop()
	return v, true
}

// popN moves up to max published items into dst, returning how many (0 when
// nothing is published).
func (r *Ring[T]) popN(dst []T, max int) int {
	var zero T
	h := r.head.Load()
	n := 0
	if r.spsc {
		avail := int(r.tail.Load() - h)
		if avail <= 0 {
			return 0
		}
		if max > avail {
			max = avail
		}
		for ; n < max; n++ {
			s := &r.buf[(h+uint64(n))&r.mask]
			dst[n] = s.val
			s.val = zero
		}
	} else {
		for n < max {
			s := &r.buf[(h+uint64(n))&r.mask]
			if s.seq.Load() != h+uint64(n)+1 {
				break
			}
			dst[n] = s.val
			s.val = zero
			n++
		}
		if n == 0 {
			return 0
		}
	}
	r.head.Store(h + uint64(n))
	r.afterPop()
	return n
}

// afterPop wakes parked producers; the head store above is sequenced before
// the pushWaiters load (Dekker pairing with waitNotFull).
func (r *Ring[T]) afterPop() {
	if r.pushWaiters.Load() > 0 {
		r.mu.Lock()
		r.pushWaiters.Store(0)
		r.notFull.Broadcast()
		r.mu.Unlock()
	}
}

// drained reports closed-and-empty, counting claimed-but-unpublished slots
// as occupied so a consumer racing a final publish waits for it instead of
// declaring a premature end of stream.
func (r *Ring[T]) drained() bool {
	return r.closed.Load() && r.tail.Load() == r.head.Load()
}

// emptyPublished reports whether the consumer has nothing consumable.
func (r *Ring[T]) emptyPublished() bool {
	h := r.head.Load()
	if r.spsc {
		return r.tail.Load() == h
	}
	return r.buf[h&r.mask].seq.Load() != h+1
}

func (r *Ring[T]) full() bool {
	return r.tail.Load()-r.head.Load() >= r.logical
}

// --- parking slow path ---

// ctxErr is how the ring reads a ctx: ctx.Err(), without its lock while the
// ctx is live. A cancelCtx's Err locks its mutex, a receive on its Done
// channel does not, so a live ctx costs one non-blocking receive and Err runs
// only once Done is closed. A ctx with no Done channel (Background, or a
// custom one whose Err alone decides) is asked Err directly.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	d := ctx.Done()
	if d == nil {
		return ctx.Err()
	}
	select {
	case <-d:
		return ctx.Err()
	default:
		return nil
	}
}

// watch ensures a watcher goroutine broadcasts both condvars when ctx is
// canceled. One watcher per live context, cached for the context's
// lifetime, so steady-state parking never allocates. Caller holds r.mu.
func (r *Ring[T]) watch(ctx context.Context) {
	if ctx == nil || ctx.Done() == nil {
		return
	}
	for _, w := range r.watched {
		if w == ctx {
			return
		}
	}
	r.watched = append(r.watched, ctx)
	go func() {
		<-ctx.Done()
		r.mu.Lock()
		for i, w := range r.watched {
			if w == ctx {
				last := len(r.watched) - 1
				r.watched[i] = r.watched[last]
				r.watched[last] = nil
				r.watched = r.watched[:last]
				break
			}
		}
		// The broadcast synchronizes on r.mu: a waiter that re-checked
		// its predicate but has not yet suspended still holds the lock,
		// so this wakeup cannot be missed.
		r.wakeAllLocked()
		r.mu.Unlock()
	}()
}

// waitNotFull parks until space frees, the ring closes, or ctx cancels.
func (r *Ring[T]) waitNotFull(ctx context.Context) error {
	r.mu.Lock()
	r.watch(ctx)
	r.pushWaiters.Add(1)
	waited := false
	var stall time.Time
	for r.full() && !r.closed.Load() && ctxErr(ctx) == nil {
		if !waited {
			waited = true
			r.blockedPushes.Add(1)
			stall = time.Now()
		}
		r.notFull.Wait()
		r.pushWaiters.Add(1) // the broadcaster zeroed the count: announce again, then re-check
	}
	if waited {
		r.pushStallNS.Add(uint64(time.Since(stall)))
	}
	r.pushWaiters.Add(-1)
	r.mu.Unlock()
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if r.closed.Load() {
		return ErrClosed
	}
	return nil
}

// waitNotEmpty parks until an item is published, the ring is closed and
// drained, or ctx cancels. A closed ring with a claim still in flight keeps
// waiting: the publishing producer's afterPush delivers the wakeup.
func (r *Ring[T]) waitNotEmpty(ctx context.Context) error {
	r.mu.Lock()
	r.watch(ctx)
	r.popWaiters.Add(1)
	waited := false
	var stall time.Time
	for r.emptyPublished() && !r.drained() && ctxErr(ctx) == nil {
		if !waited {
			waited = true
			r.blockedPops.Add(1)
			stall = time.Now()
		}
		r.notEmpty.Wait()
		r.popWaiters.Add(1) // as in waitNotFull
	}
	if waited {
		r.popStallNS.Add(uint64(time.Since(stall)))
	}
	r.popWaiters.Add(-1)
	r.mu.Unlock()
	return ctxErr(ctx)
}

// --- blocking API ---

// Push appends v, blocking while the ring is full; ErrClosed after Close.
func (r *Ring[T]) Push(v T) error { return r.pushCtx(nil, v) }

// PushCtx is Push with cancellation.
func (r *Ring[T]) PushCtx(ctx context.Context, v T) error { return r.pushCtx(ctx, v) }

func (r *Ring[T]) pushCtx(ctx context.Context, v T) error {
	for {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if r.closed.Load() {
			return ErrClosed
		}
		if r.push1(v) {
			return nil
		}
		if err := r.waitNotFull(ctx); err != nil {
			return err
		}
	}
}

// TryPush appends v without blocking, reporting false when the ring is full
// or closed (the caller's blocking Push tells the two apart).
func (r *Ring[T]) TryPush(v T) bool {
	return !r.closed.Load() && r.push1(v)
}

// PushBatch appends every item in order, blocking while full. On ErrClosed
// a prefix may already have been accepted.
func (r *Ring[T]) PushBatch(items []T) error {
	_, err := r.pushBatchN(nil, items)
	return err
}

// PushBatchN is PushBatch with cancellation, reporting how many leading
// items were accepted, so on cancellation or close the caller can retry
// exactly the suffix that never entered the ring (the resumable pause
// boundary of the batched emit path).
func (r *Ring[T]) PushBatchN(ctx context.Context, items []T) (int, error) {
	return r.pushBatchN(ctx, items)
}

func (r *Ring[T]) pushBatchN(ctx context.Context, items []T) (int, error) {
	pushed := 0
	for len(items) > 0 {
		if err := ctxErr(ctx); err != nil {
			return pushed, err
		}
		if r.closed.Load() {
			return pushed, ErrClosed
		}
		if n := r.pushN(items); n > 0 {
			items = items[n:]
			pushed += n
			continue
		}
		if err := r.waitNotFull(ctx); err != nil {
			return pushed, err
		}
	}
	return pushed, nil
}

// Pop removes the oldest item, blocking while empty; ErrClosed once closed
// and drained.
func (r *Ring[T]) Pop() (T, error) { return r.popCtx(nil) }

// PopCtx is Pop with cancellation: ctx.Err() without consuming anything.
func (r *Ring[T]) PopCtx(ctx context.Context) (T, error) { return r.popCtx(ctx) }

func (r *Ring[T]) popCtx(ctx context.Context) (T, error) {
	var zero T
	for {
		if err := ctxErr(ctx); err != nil {
			return zero, err
		}
		if v, ok := r.pop1(); ok {
			return v, nil
		}
		if r.drained() {
			return zero, ErrClosed
		}
		if err := r.waitNotEmpty(ctx); err != nil {
			return zero, err
		}
	}
}

// TryPop removes the oldest item without blocking: ErrEmpty when nothing is
// published, ErrClosed once closed and drained.
func (r *Ring[T]) TryPop() (T, error) {
	if v, ok := r.pop1(); ok {
		return v, nil
	}
	var zero T
	if r.drained() {
		return zero, ErrClosed
	}
	return zero, ErrEmpty
}

// PopBatch moves up to max items (bounded by len(dst)) into dst, blocking
// while empty; it never waits for the ring to fill. max <= 0 means len(dst).
func (r *Ring[T]) PopBatch(dst []T, max int) (int, error) {
	return r.popBatchCtx(nil, dst, max)
}

// PopBatchCtx is PopBatch with cancellation.
func (r *Ring[T]) PopBatchCtx(ctx context.Context, dst []T, max int) (int, error) {
	return r.popBatchCtx(ctx, dst, max)
}

func (r *Ring[T]) popBatchCtx(ctx context.Context, dst []T, max int) (int, error) {
	if max <= 0 || max > len(dst) {
		max = len(dst)
	}
	if max == 0 {
		return 0, nil
	}
	for {
		if err := ctxErr(ctx); err != nil {
			return 0, err
		}
		if n := r.popN(dst, max); n > 0 {
			return n, nil
		}
		if r.drained() {
			return 0, ErrClosed
		}
		if err := r.waitNotEmpty(ctx); err != nil {
			return 0, err
		}
	}
}
