package queue

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// ringKind is one row of the table every behavioural test runs over.
// producers is how many goroutines may push concurrently under the kind's
// contract: tests that need "several blocked producers" use it so the SPSC
// case stays legal.
type ringKind struct {
	name      string
	mk        func(capacity int) *Ring[int]
	producers int
}

// eachRing runs f as a subtest per ring kind.
func eachRing(t *testing.T, f func(t *testing.T, k ringKind)) {
	t.Helper()
	for _, k := range []ringKind{
		{"spsc", NewSPSC[int], 1},
		{"mpsc", NewMPSC[int], 8},
	} {
		t.Run(k.name, func(t *testing.T) { f(t, k) })
	}
}

// waitFor polls cond until it holds, failing the test after a generous
// deadline. It replaces fixed wall-clock sleeps so slow machines cannot
// flake the test and fast ones do not wait.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never reached")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitErr receives from ch with a deadline.
func waitErr(t *testing.T, ch <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting: %s", what)
		return nil
	}
}

func TestRingPanicsOnBadCapacity(t *testing.T) {
	eachRing(t, func(t *testing.T, k ringKind) {
		for _, c := range []int{0, -3} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("capacity %d did not panic", c)
					}
				}()
				k.mk(c)
			}()
		}
	})
}

func TestRingKind(t *testing.T) {
	if !NewSPSC[int](1).SPSC() || NewMPSC[int](1).SPSC() {
		t.Fatal("SPSC() does not report the constructor used")
	}
}

func TestRingFIFO(t *testing.T) {
	eachRing(t, func(t *testing.T, k ringKind) {
		r := k.mk(7) // non-power-of-two capacity
		if r.Cap() != 7 {
			t.Fatalf("Cap = %d, want 7", r.Cap())
		}
		// Several laps around the physical ring to exercise wraparound.
		next := 0
		for lap := 0; lap < 5; lap++ {
			for i := 0; i < 7; i++ {
				if err := r.Push(lap*7 + i); err != nil {
					t.Fatal(err)
				}
				if r.Len() != i+1 {
					t.Fatalf("Len = %d after %d pushes", r.Len(), i+1)
				}
			}
			for i := 0; i < 7; i++ {
				v, err := r.Pop()
				if err != nil {
					t.Fatal(err)
				}
				if v != next {
					t.Fatalf("popped %d, want %d", v, next)
				}
				next++
				if r.Len() != 6-i {
					t.Fatalf("Len = %d after %d pops", r.Len(), i+1)
				}
			}
		}
		if _, err := r.TryPop(); !errors.Is(err, ErrEmpty) {
			t.Fatalf("TryPop on empty ring: %v, want ErrEmpty", err)
		}
		st := r.Stats()
		if st.Pushed != 35 || st.Popped != 35 || st.HighWater != 7 {
			t.Fatalf("stats = %+v", st)
		}
	})
}

func TestRingHighWaterMark(t *testing.T) {
	eachRing(t, func(t *testing.T, k ringKind) {
		r := k.mk(8)
		for i := 0; i < 5; i++ {
			r.Push(i)
		}
		r.Pop()
		r.Pop()
		r.Push(5)
		if hw := r.Stats().HighWater; hw != 5 {
			t.Fatalf("HighWater = %d, want 5", hw)
		}
	})
}

func TestRingPushBlocksUntilPop(t *testing.T) {
	eachRing(t, func(t *testing.T, k ringKind) {
		r := k.mk(1)
		r.Push(1)
		done := make(chan error, 1)
		go func() { done <- r.Push(2) }()
		waitFor(t, func() bool { return r.Stats().BlockedPushes == 1 })
		select {
		case <-done:
			t.Fatal("Push on a full ring returned without a Pop")
		case <-time.After(10 * time.Millisecond):
		}
		if v, err := r.Pop(); err != nil || v != 1 {
			t.Fatalf("Pop = (%d, %v)", v, err)
		}
		if err := waitErr(t, done, "blocked Push"); err != nil {
			t.Fatalf("blocked Push: %v", err)
		}
		if got := r.Stats().BlockedPushes; got != 1 {
			t.Fatalf("BlockedPushes = %d, want 1", got)
		}
		if v, err := r.Pop(); err != nil || v != 2 {
			t.Fatalf("Pop = (%d, %v), want the unblocked item", v, err)
		}
	})
}

func TestRingPopBlocksUntilPush(t *testing.T) {
	eachRing(t, func(t *testing.T, k ringKind) {
		r := k.mk(1)
		got := make(chan int, 1)
		done := make(chan error, 1)
		go func() {
			v, err := r.Pop()
			got <- v
			done <- err
		}()
		waitFor(t, func() bool { return r.Stats().BlockedPops == 1 })
		r.Push(99)
		if err := waitErr(t, done, "blocked Pop"); err != nil {
			t.Fatal(err)
		}
		if v := <-got; v != 99 {
			t.Fatalf("Pop = %d, want 99", v)
		}
		if n := r.Stats().BlockedPops; n != 1 {
			t.Fatalf("BlockedPops = %d, want 1 (one event per wait episode)", n)
		}
	})
}

func TestRingClose(t *testing.T) {
	eachRing(t, func(t *testing.T, k ringKind) {
		r := k.mk(4)
		r.Push(1)
		r.Push(2)
		r.Close()
		r.Close() // idempotent
		if err := r.Push(3); !errors.Is(err, ErrClosed) {
			t.Fatalf("Push after close: %v", err)
		}
		if err := r.PushBatch([]int{3, 4}); !errors.Is(err, ErrClosed) {
			t.Fatalf("PushBatch after close: %v", err)
		}
		// Close drains: queued items still pop, then ErrClosed.
		if v, err := r.Pop(); err != nil || v != 1 {
			t.Fatalf("Pop after close = %d, %v", v, err)
		}
		dst := make([]int, 2)
		if n, err := r.PopBatch(dst, 2); err != nil || n != 1 || dst[0] != 2 {
			t.Fatalf("PopBatch draining closed ring = (%d, %v) %v", n, err, dst)
		}
		if _, err := r.Pop(); !errors.Is(err, ErrClosed) {
			t.Fatalf("Pop on drained closed ring: %v", err)
		}
		if _, err := r.TryPop(); !errors.Is(err, ErrClosed) {
			t.Fatalf("TryPop on drained closed ring: %v", err)
		}
		if n, err := r.PopBatch(dst, 2); !errors.Is(err, ErrClosed) || n != 0 {
			t.Fatalf("PopBatch on drained closed ring = (%d, %v), want (0, ErrClosed)", n, err)
		}
	})
}

// TestRingTryPush: the non-blocking push behaves like Push wherever Push
// would not wait — FIFO order, high-water mark, waking a parked popper — and
// reports false, having inserted nothing, where Push would block or fail.
func TestRingTryPush(t *testing.T) {
	eachRing(t, func(t *testing.T, k ringKind) {
		r := k.mk(3)
		for i := 0; i < 3; i++ {
			if !r.TryPush(i) {
				t.Fatalf("TryPush(%d) on a ring with space = false", i)
			}
		}
		if r.TryPush(3) {
			t.Fatal("TryPush on a full ring = true")
		}
		if st := r.Stats(); st.Pushed != 3 || st.HighWater != 3 || st.BlockedPushes != 0 {
			t.Fatalf("after a refused TryPush: %+v, want 3 pushed, high water 3, nothing blocked", st)
		}
		if v, err := r.TryPop(); err != nil || v != 0 {
			t.Fatalf("TryPop = (%d, %v), want the oldest TryPush", v, err)
		}
		if !r.TryPush(3) {
			t.Fatal("TryPush after a pop freed a slot = false")
		}
		r.Pop()
		r.Close()
		if r.TryPush(4) {
			t.Fatal("TryPush on a closed ring with space = true")
		}
		if got := r.Snapshot(); !reflect.DeepEqual(got, []int{2, 3}) {
			t.Fatalf("contents after two refused pushes = %v, want [2 3]", got)
		}
		a := k.mk(4)
		if allocs := testing.AllocsPerRun(100, func() { a.TryPush(9); a.TryPop() }); allocs != 0 {
			t.Fatalf("TryPush+TryPop allocate %.0f times per pair", allocs)
		}

		// A popper parked on an empty ring is woken by TryPush.
		e := k.mk(1)
		got := make(chan int, 1)
		go func() { v, _ := e.Pop(); got <- v }()
		waitFor(t, func() bool { return e.Stats().BlockedPops == 1 })
		if !e.TryPush(42) {
			t.Fatal("TryPush on an empty ring = false")
		}
		select {
		case v := <-got:
			if v != 42 {
				t.Fatalf("parked Pop woke with %d, want 42", v)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("TryPush did not wake the parked popper")
		}
	})
}

func TestRingCloseWakesBlocked(t *testing.T) {
	eachRing(t, func(t *testing.T, k ringKind) {
		full, empty := k.mk(1), k.mk(1)
		full.Push(1)
		pushErr := make(chan error, 1)
		popErr := make(chan error, 1)
		go func() { pushErr <- full.Push(2) }()
		go func() { _, err := empty.Pop(); popErr <- err }()
		waitFor(t, func() bool {
			return full.Stats().BlockedPushes == 1 && empty.Stats().BlockedPops == 1
		})
		full.Close()
		empty.Close()
		if err := waitErr(t, pushErr, "Push blocked across Close"); !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked Push after Close: %v", err)
		}
		if err := waitErr(t, popErr, "Pop blocked across Close"); !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked Pop after Close: %v", err)
		}
	})
}

// TestRingCtxCancel: a canceled wait returns ctx.Err() having consumed and
// inserted nothing.
func TestRingCtxCancel(t *testing.T) {
	eachRing(t, func(t *testing.T, k ringKind) {
		r := k.mk(1)
		ctx, cancel := context.WithCancel(context.Background())
		popErr := make(chan error, 1)
		go func() { _, err := r.PopCtx(ctx); popErr <- err }()
		waitFor(t, func() bool { return r.Stats().BlockedPops == 1 })
		cancel()
		if err := waitErr(t, popErr, "PopCtx on cancel"); !errors.Is(err, context.Canceled) {
			t.Fatalf("PopCtx after cancel: %v", err)
		}

		r.Push(1)
		ctx2, cancel2 := context.WithCancel(context.Background())
		pushErr := make(chan error, 1)
		go func() { pushErr <- r.PushCtx(ctx2, 2) }()
		waitFor(t, func() bool { return r.Stats().BlockedPushes == 1 })
		cancel2()
		if err := waitErr(t, pushErr, "PushCtx on cancel"); !errors.Is(err, context.Canceled) {
			t.Fatalf("PushCtx after cancel: %v", err)
		}

		// Neither cancellation moved anything: the one item is still queued.
		if st := r.Stats(); st.Pushed != 1 || st.Popped != 0 || r.Len() != 1 {
			t.Fatalf("after cancellations: stats %+v len %d", st, r.Len())
		}
		if v, err := r.TryPop(); err != nil || v != 1 {
			t.Fatalf("TryPop = %d, %v", v, err)
		}
	})
}

func TestRingPopBatchCtxCancel(t *testing.T) {
	eachRing(t, func(t *testing.T, k ringKind) {
		r := k.mk(1)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := r.PopBatchCtx(ctx, make([]int, 4), 4)
			done <- err
		}()
		waitFor(t, func() bool { return r.Stats().BlockedPops == 1 })
		cancel()
		if err := waitErr(t, done, "PopBatchCtx on cancel"); !errors.Is(err, context.Canceled) {
			t.Fatalf("PopBatchCtx = %v, want context.Canceled", err)
		}
	})
}

func TestRingCtxAlreadyCanceled(t *testing.T) {
	eachRing(t, func(t *testing.T, k ringKind) {
		r := k.mk(2)
		r.Push(7)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := r.PushCtx(ctx, 1); !errors.Is(err, context.Canceled) {
			t.Fatalf("PushCtx on canceled ctx = %v", err)
		}
		if n, err := r.PushBatchN(ctx, []int{1}); n != 0 || !errors.Is(err, context.Canceled) {
			t.Fatalf("PushBatchN on canceled ctx = (%d, %v)", n, err)
		}
		if _, err := r.PopCtx(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("PopCtx on canceled ctx = %v", err)
		}
		if n, err := r.PopBatchCtx(ctx, make([]int, 2), 2); n != 0 || !errors.Is(err, context.Canceled) {
			t.Fatalf("PopBatchCtx on canceled ctx = (%d, %v)", n, err)
		}
		// A live context delivers what is ready.
		if v, err := r.PopCtx(context.Background()); err != nil || v != 7 {
			t.Fatalf("PopCtx = (%d, %v), want (7, nil)", v, err)
		}
	})
}

// errOnlyCtx has no Done channel; its Err alone reports cancellation, as
// FuzzRingModel's fullCtx does.
type errOnlyCtx struct{ context.Context }

func (errOnlyCtx) Done() <-chan struct{} { return nil }
func (errOnlyCtx) Err() error            { return context.Canceled }

// closedDoneCtx is a custom ctx whose Done channel is already closed.
type closedDoneCtx struct {
	context.Context
	done chan struct{}
}

func (c closedDoneCtx) Done() <-chan struct{} { return c.done }
func (closedDoneCtx) Err() error              { return context.DeadlineExceeded }

// TestRingCtxContract: every ctx-taking operation, on both ring kinds and
// every kind of ctx, returns ctx.Err() or nil — having left the ring
// untouched when it is an error — and a live ctx costs no allocation. The
// ring holds two of four items, so no operation has to wait.
func TestRingCtxContract(t *testing.T) {
	live, stop := context.WithCancel(context.Background())
	defer stop()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancelExpired()
	closed := make(chan struct{})
	close(closed)
	ctxs := []struct {
		name string
		ctx  context.Context
	}{
		{"nil", nil},
		{"background", context.Background()},
		{"live", live},
		{"canceled", canceled},
		{"expired", expired},
		{"nil-done", errOnlyCtx{context.Background()}},
		{"closed-done", closedDoneCtx{context.Background(), closed}},
	}
	dst := make([]int, 2)
	ops := []struct {
		name string
		do   func(*Ring[int], context.Context) error
	}{
		{"PushCtx", func(r *Ring[int], ctx context.Context) error { return r.PushCtx(ctx, 9) }},
		{"PopCtx", func(r *Ring[int], ctx context.Context) error { _, err := r.PopCtx(ctx); return err }},
		{"PushBatchN", func(r *Ring[int], ctx context.Context) error {
			_, err := r.PushBatchN(ctx, []int{8, 9})
			return err
		}},
		{"PopBatchCtx", func(r *Ring[int], ctx context.Context) error {
			_, err := r.PopBatchCtx(ctx, dst, len(dst))
			return err
		}},
	}
	eachRing(t, func(t *testing.T, k ringKind) {
		for _, c := range ctxs {
			var want error
			if c.ctx != nil {
				want = c.ctx.Err()
			}
			for _, op := range ops {
				r := k.mk(4)
				r.Push(1)
				r.Push(2)
				before, contents := r.Stats(), r.Snapshot()
				err := op.do(r, c.ctx)
				if !errors.Is(err, want) {
					t.Errorf("%s under a %s ctx = %v, want %v", op.name, c.name, err, want)
				}
				moved := r.Stats() != before || !reflect.DeepEqual(r.Snapshot(), contents)
				if err != nil && moved {
					t.Errorf("%s under a %s ctx failed with %v but moved the ring: %+v %v", op.name, c.name, err, r.Stats(), r.Snapshot())
				}
				if err == nil && !moved {
					t.Errorf("%s under a %s ctx succeeded without moving the ring", op.name, c.name)
				}
			}
		}
		r := k.mk(4)
		if allocs := testing.AllocsPerRun(100, func() {
			for _, op := range ops {
				op.do(r, live)
			}
		}); allocs != 0 {
			t.Fatalf("push, pop, batch push and batch pop under a live ctx allocate %.0f times", allocs)
		}
	})
}

// BenchmarkRingBatchCtx is the batched hop's ring traffic — one 16-item
// PushBatchN and one PopBatchCtx — under a nil ctx and a live cancelable one:
// the difference is what reading the ctx costs, twice per iteration.
func BenchmarkRingBatchCtx(b *testing.B) {
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []struct {
		name string
		ctx  context.Context
	}{{"nil", nil}, {"live", live}} {
		b.Run(c.name, func(b *testing.B) {
			r := NewSPSC[int](64)
			items, dst := make([]int, 16), make([]int, 16)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.PushBatchN(c.ctx, items)
				r.PopBatchCtx(c.ctx, dst, len(dst))
			}
		})
	}
}

// TestRingPushBatchNCancel: PushBatchN reports the accepted prefix on
// cancellation, and exactly that prefix is in the ring.
func TestRingPushBatchNCancel(t *testing.T) {
	eachRing(t, func(t *testing.T, k ringKind) {
		r := k.mk(2)
		r.Push(0)
		ctx, cancel := context.WithCancel(context.Background())
		type res struct {
			n   int
			err error
		}
		done := make(chan res, 1)
		go func() {
			n, err := r.PushBatchN(ctx, []int{1, 2, 3})
			done <- res{n, err}
		}()
		waitFor(t, func() bool { return r.Stats().BlockedPushes == 1 })
		cancel()
		select {
		case got := <-done:
			if got.n != 1 || !errors.Is(got.err, context.Canceled) {
				t.Fatalf("PushBatchN = (%d, %v), want (1, context.Canceled)", got.n, got.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("PushBatchN never unblocked on cancel")
		}
		if got := r.Snapshot(); !reflect.DeepEqual(got, []int{0, 1}) {
			t.Fatalf("ring holds %v, want [0 1]", got)
		}
	})
}

// TestRingReplaceablePopCtx models the stage Pause/Resume pattern: a pop
// blocked on an empty ring is woken by canceling its pop context, consumes
// nothing, and a later pop with a fresh context picks up exactly where the
// stream left off.
func TestRingReplaceablePopCtx(t *testing.T) {
	eachRing(t, func(t *testing.T, k ringKind) {
		r := k.mk(8)
		for epoch := 0; epoch < 3; epoch++ {
			ctx, cancel := context.WithCancel(context.Background())
			woke := make(chan error, 1)
			go func() { _, err := r.PopCtx(ctx); woke <- err }()
			waitFor(t, func() bool { return r.Stats().BlockedPops == uint64(epoch+1) })
			cancel() // pause: wake the pop without consuming
			if err := waitErr(t, woke, "paused pop"); !errors.Is(err, context.Canceled) {
				t.Fatalf("epoch %d: %v", epoch, err)
			}
			if err := r.Push(epoch); err != nil {
				t.Fatal(err)
			}
			// resume: fresh context sees the pushed item.
			v, err := r.PopCtx(context.Background())
			if err != nil || v != epoch {
				t.Fatalf("epoch %d: resumed pop = %d, %v", epoch, v, err)
			}
		}
	})
}

func TestRingBatchOps(t *testing.T) {
	eachRing(t, func(t *testing.T, k ringKind) {
		r := k.mk(8)
		if err := r.PushBatch(nil); err != nil {
			t.Fatalf("PushBatch(nil) = %v", err)
		}
		if n, err := r.PopBatch(nil, 0); n != 0 || err != nil {
			t.Fatalf("PopBatch(nil) = (%d, %v), want (0, nil)", n, err)
		}
		if err := r.PushBatch([]int{1, 2, 3, 4, 5}); err != nil {
			t.Fatal(err)
		}
		dst := make([]int, 8)
		// max bounds the batch.
		n, err := r.PopBatch(dst, 2)
		if err != nil || n != 2 || dst[0] != 1 || dst[1] != 2 {
			t.Fatalf("PopBatch(max=2) = (%d, %v) %v", n, err, dst[:n])
		}
		if v, _ := r.Pop(); v != 3 {
			t.Fatalf("next Pop = %d, want 3", v)
		}
		// It takes only what is available and never waits to fill;
		// max 0 means len(dst).
		n, err = r.PopBatch(dst, 0)
		if err != nil || n != 2 || dst[0] != 4 || dst[1] != 5 {
			t.Fatalf("PopBatch rest = (%d, %v) %v", n, err, dst[:n])
		}
	})
}

// TestRingChunkedBatchFIFO pushes a batch far larger than the ring, so the
// push proceeds in chunks as the consumer frees space; order must hold.
func TestRingChunkedBatchFIFO(t *testing.T) {
	eachRing(t, func(t *testing.T, k ringKind) {
		r := k.mk(4)
		const total = 32
		batch := make([]int, total)
		for i := range batch {
			batch[i] = i
		}
		done := make(chan error, 1)
		go func() { done <- r.PushBatch(batch) }()

		got := make([]int, 0, total)
		dst := make([]int, 3)
		for len(got) < total {
			n, err := r.PopBatch(dst, len(dst))
			if err != nil {
				t.Fatalf("PopBatch: %v", err)
			}
			if r.Len() > r.Cap() {
				t.Fatalf("Len %d exceeds Cap %d", r.Len(), r.Cap())
			}
			got = append(got, dst[:n]...)
		}
		if err := waitErr(t, done, "chunked PushBatch"); err != nil {
			t.Fatalf("PushBatch: %v", err)
		}
		if !reflect.DeepEqual(got, batch) {
			t.Fatalf("FIFO violated: %v", got)
		}
		if st := r.Stats(); st.Pushed != total || st.Popped != total {
			t.Fatalf("stats pushed=%d popped=%d, want both %d", st.Pushed, st.Popped, total)
		}
	})
}

func TestRingPushBatchCloseMidway(t *testing.T) {
	eachRing(t, func(t *testing.T, k ringKind) {
		r := k.mk(2)
		done := make(chan error, 1)
		go func() { done <- r.PushBatch([]int{1, 2, 3, 4}) }()
		waitFor(t, func() bool { return r.Stats().BlockedPushes == 1 })
		r.Close()
		if err := waitErr(t, done, "PushBatch across Close"); !errors.Is(err, ErrClosed) {
			t.Fatalf("PushBatch on closing ring = %v, want ErrClosed", err)
		}
		// The accepted prefix stayed and is drainable.
		dst := make([]int, 4)
		if n, err := r.PopBatch(dst, 4); err != nil || n != 2 || dst[0] != 1 || dst[1] != 2 {
			t.Fatalf("drain after mid-batch close = (%v, %v)", dst[:n], err)
		}
	})
}

// TestRingWakesAllBlockedProducers is the no-lost-wakeup regression: every
// producer parked on a full ring must eventually get through as the
// consumer frees one slot at a time.
func TestRingWakesAllBlockedProducers(t *testing.T) {
	eachRing(t, func(t *testing.T, k ringKind) {
		r, producers := k.mk(1), k.producers
		r.Push(-1)
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				if err := r.Push(p); err != nil {
					t.Errorf("Push(%d): %v", p, err)
				}
			}(p)
		}
		waitFor(t, func() bool { return r.Stats().BlockedPushes >= uint64(producers) })

		dst := make([]int, producers+1)
		seen := map[int]bool{}
		for len(seen) < producers+1 {
			n, err := r.PopBatch(dst, len(dst))
			if err != nil {
				t.Fatalf("PopBatch: %v", err)
			}
			for _, v := range dst[:n] {
				seen[v] = true
			}
		}
		finished := make(chan error, 1)
		go func() { wg.Wait(); finished <- nil }()
		waitErr(t, finished, "all producers finished")
	})
}

// TestRingCancelDoesNotSwallowWakeup: with two producers parked on a full
// MPSC ring, canceling one must not cost the survivor the wakeup the next
// pop delivers.
func TestRingCancelDoesNotSwallowWakeup(t *testing.T) {
	r := NewMPSC[int](1)
	r.Push(0)
	ctx, cancel := context.WithCancel(context.Background())
	canceled := make(chan error, 1)
	go func() { canceled <- r.PushCtx(ctx, 1) }()
	waitFor(t, func() bool { return r.Stats().BlockedPushes == 1 })
	survivor := make(chan error, 1)
	go func() { survivor <- r.Push(42) }()
	waitFor(t, func() bool { return r.Stats().BlockedPushes == 2 })

	cancel()
	if err := waitErr(t, canceled, "canceled PushCtx"); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled PushCtx = %v", err)
	}
	if v, err := r.Pop(); err != nil || v != 0 {
		t.Fatalf("Pop = (%d, %v)", v, err)
	}
	if err := waitErr(t, survivor, "wakeup lost: surviving Push never got the slot"); err != nil {
		t.Fatal(err)
	}
	if v, err := r.Pop(); err != nil || v != 42 {
		t.Fatalf("Pop = (%d, %v), want the survivor's 42", v, err)
	}
}

// owedWakeups reads the two waiter counts under r.mu, where a waiter's
// announce-then-re-check is atomic: what is left is exactly the goroutines
// parked in Wait that nobody has signalled yet.
func owedWakeups(r *Ring[int]) (push, pop int32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pushWaiters.Load(), r.popWaiters.Load()
}

func wantOwed(t *testing.T, r *Ring[int], when string, wantPush, wantPop int32) {
	t.Helper()
	if push, pop := owedWakeups(r); push != wantPush || pop != wantPop {
		t.Fatalf("%s: pushWaiters=%d popWaiters=%d, want %d and %d", when, push, pop, wantPush, wantPop)
	}
}

func waitParked(t *testing.T, r *Ring[int], wantPush, wantPop int32) {
	t.Helper()
	waitFor(t, func() bool {
		push, pop := owedWakeups(r)
		return push == wantPush && pop == wantPop
	})
}

// TestRingWakeSentOnce: the mover that finds a parked peer signals it and
// clears the count, so the count is 0 when that move returns whether or not
// the peer has run — and a second move made while the peer is readied but
// held off the lock does not touch r.mu at all.
func TestRingWakeSentOnce(t *testing.T) {
	eachRing(t, func(t *testing.T, k ringKind) {
		t.Run("parked popper", func(t *testing.T) {
			r := k.mk(4)
			popped := make(chan int, 1)
			go func() { v, _ := r.Pop(); popped <- v }()
			waitParked(t, r, 0, 1)
			r.Push(7)
			wantOwed(t, r, "after the push that woke the popper", 0, 0)

			r.mu.Lock() // the popper, if it has not run yet, now cannot
			second := make(chan error, 1)
			go func() { second <- r.Push(8) }()
			err := waitErr(t, second, "a push after the wakeup was sent took r.mu")
			r.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			if v := <-popped; v != 7 {
				t.Fatalf("Pop = %d, want 7", v)
			}
			wantOwed(t, r, "after the popper ran", 0, 0)
		})
		t.Run("parked pusher", func(t *testing.T) {
			r := k.mk(2)
			r.Push(1)
			r.Push(2)
			pushed := make(chan error, 1)
			go func() { pushed <- r.Push(3) }()
			waitParked(t, r, 1, 0)
			if v, err := r.Pop(); err != nil || v != 1 {
				t.Fatalf("Pop = (%d, %v)", v, err)
			}
			wantOwed(t, r, "after the pop that woke the pusher", 0, 0)

			r.mu.Lock()
			second := make(chan error, 1)
			go func() { _, err := r.TryPop(); second <- err }()
			err := waitErr(t, second, "a pop after the wakeup was sent took r.mu")
			r.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			if err := waitErr(t, pushed, "parked Push"); err != nil {
				t.Fatal(err)
			}
			wantOwed(t, r, "after the pusher ran", 0, 0)
		})
	})
}

// TestRingParkedProducersAllFinish: one pop wakes every parked producer and
// clears the count; the ones that lose the slot announce themselves again and
// are woken by the next pop.
func TestRingParkedProducersAllFinish(t *testing.T) {
	eachRing(t, func(t *testing.T, k ringKind) {
		producers := int32(min(k.producers, 2))
		r := k.mk(1)
		r.Push(-1)
		done := make(chan error, producers)
		for p := int32(0); p < producers; p++ {
			go func() { done <- r.Push(int(p)) }()
		}
		waitParked(t, r, producers, 0)
		seen := map[int]bool{}
		for left := producers; ; left-- {
			v, err := r.Pop()
			if err != nil {
				t.Fatalf("Pop: %v", err)
			}
			seen[v] = true
			if left == 0 {
				break
			}
			if err := waitErr(t, done, "a parked producer never got the slot"); err != nil {
				t.Fatal(err)
			}
			waitParked(t, r, left-1, 0) // the losers are back in Wait, counted once each
		}
		if len(seen) != int(producers)+1 {
			t.Fatalf("popped %v, want -1 and one value per producer", seen)
		}
		wantOwed(t, r, "after every producer finished", 0, 0)
	})
}

// TestRingCloseAndCancelClearWaiterCounts: Close and a canceled context are
// broadcasts like any other — counts at 0 when they return, and still 0 once
// the waiters have left.
func TestRingCloseAndCancelClearWaiterCounts(t *testing.T) {
	eachRing(t, func(t *testing.T, k ringKind) {
		for _, wake := range []string{"close", "cancel"} {
			for _, side := range []string{"popper", "pusher"} {
				t.Run(wake+"/"+side, func(t *testing.T) {
					r := k.mk(1)
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					left := make(chan error, 1)
					if side == "popper" {
						go func() { _, err := r.PopCtx(ctx); left <- err }()
						waitParked(t, r, 0, 1)
					} else {
						r.Push(0)
						go func() { left <- r.PushCtx(ctx, 1) }()
						waitParked(t, r, 1, 0)
					}
					want := ErrClosed
					if wake == "close" {
						r.Close()
						wantOwed(t, r, "when Close returned", 0, 0)
					} else {
						want = context.Canceled
						cancel()
						waitParked(t, r, 0, 0) // the watcher goroutine broadcasts
					}
					if err := waitErr(t, left, "parked "+side); !errors.Is(err, want) {
						t.Fatalf("parked %s returned %v, want %v", side, err, want)
					}
					wantOwed(t, r, "after the waiter left", 0, 0)
				})
			}
		}
	})
}

// TestRingRewokenAfterFalseWakeup: a waiter woken with its predicate still
// false (here by a bare broadcast, as another context's watcher would send)
// announces itself again before it re-checks, so the next move wakes it —
// whether that move comes after it is back in Wait or while it is still on
// its way there.
func TestRingRewokenAfterFalseWakeup(t *testing.T) {
	falseWakeup := func(r *Ring[int]) {
		r.mu.Lock()
		r.wakeAllLocked()
		r.mu.Unlock()
	}
	eachRing(t, func(t *testing.T, k ringKind) {
		t.Run("popper", func(t *testing.T) {
			r := k.mk(2)
			popped := make(chan int)
			go func() {
				for {
					v, err := r.Pop()
					if err != nil {
						close(popped)
						return
					}
					popped <- v
				}
			}()
			for i := 0; i < 200; i++ {
				waitParked(t, r, 0, 1)
				falseWakeup(r)
				if i%2 == 0 {
					waitParked(t, r, 0, 1)
				}
				r.Push(i)
				select {
				case v := <-popped:
					if v != i {
						t.Fatalf("Pop = %d, want %d", v, i)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("round %d: wakeup lost, the popper never saw the push", i)
				}
			}
			r.Close()
			<-popped
			wantOwed(t, r, "at the end", 0, 0)
		})
		t.Run("pusher", func(t *testing.T) {
			r := k.mk(1)
			r.Push(-1)
			pushed := make(chan error)
			go func() {
				for i := 0; i < 200; i++ {
					pushed <- r.Push(i)
				}
			}()
			for i := 0; i < 200; i++ {
				waitParked(t, r, 1, 0)
				falseWakeup(r)
				if i%2 == 0 {
					waitParked(t, r, 1, 0)
				}
				if v, err := r.Pop(); err != nil || v != i-1 {
					t.Fatalf("Pop = (%d, %v), want %d", v, err, i-1)
				}
				if err := waitErr(t, pushed, "wakeup lost: the pusher never saw the pop"); err != nil {
					t.Fatal(err)
				}
			}
			wantOwed(t, r, "at the end", 0, 0)
		})
	})
}

// TestRingSnapshot checks Snapshot returns the queued items in FIFO order
// without consuming them, including after the cursors wrap.
func TestRingSnapshot(t *testing.T) {
	eachRing(t, func(t *testing.T, k ringKind) {
		r := k.mk(4)
		if got := r.Snapshot(); len(got) != 0 {
			t.Fatalf("empty ring snapshot %v", got)
		}
		for i := 1; i <= 3; i++ {
			r.Push(i)
		}
		if got := r.Snapshot(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
			t.Fatalf("snapshot %v, want [1 2 3]", got)
		}
		// Wrap: consume two, add two more, then fill.
		r.Pop()
		r.Pop()
		r.Push(4)
		r.Push(5)
		if got := r.Snapshot(); !reflect.DeepEqual(got, []int{3, 4, 5}) {
			t.Fatalf("post-wrap snapshot %v, want [3 4 5]", got)
		}
		r.Push(6)
		if got := r.Snapshot(); !reflect.DeepEqual(got, []int{3, 4, 5, 6}) {
			t.Fatalf("full-ring snapshot %v, want [3 4 5 6]", got)
		}
		// The snapshot did not consume anything.
		if v, _ := r.Pop(); v != 3 {
			t.Fatalf("pop after snapshot = %d, want 3", v)
		}
		if r.Len() != 3 {
			t.Fatalf("len after snapshot+pop = %d, want 3", r.Len())
		}
	})
}

// Property: any single-goroutine interleaving of per-item and batch ops
// preserves FIFO order, never exceeds capacity, and keeps Stats.Pushed and
// Stats.Popped equal to the item counts moved, with Pushed-Popped == Len.
func TestRingFIFOInterleavingProperty(t *testing.T) {
	eachRing(t, func(t *testing.T, k ringKind) {
		f := func(script []uint8, capRaw uint8) bool {
			capacity := int(capRaw%16) + 1
			r := k.mk(capacity)
			next, expect := 0, 0
			dst := make([]int, capacity+4)
			for _, op := range script {
				switch op % 4 {
				case 0: // per-item push, only with space so it cannot block
					if r.Len() < r.Cap() {
						if r.Push(next) != nil {
							return false
						}
						next++
					}
				case 1: // per-item pop
					if v, err := r.TryPop(); err == nil {
						if v != expect {
							return false
						}
						expect++
					} else if !errors.Is(err, ErrEmpty) || r.Len() != 0 {
						return false
					}
				case 2: // batch push, sized to free space so it cannot block
					n := min(r.Cap()-r.Len(), int(op/4)%4+1)
					batch := make([]int, n)
					for i := range batch {
						batch[i] = next + i
					}
					if r.PushBatch(batch) != nil {
						return false
					}
					next += n
				case 3: // batch pop, only when nonempty so it cannot block
					if r.Len() == 0 {
						continue
					}
					n, err := r.PopBatch(dst, int(op/4)%len(dst)+1)
					if err != nil || n == 0 {
						return false
					}
					for _, v := range dst[:n] {
						if v != expect {
							return false
						}
						expect++
					}
				}
				if r.Len() != next-expect || r.Len() > r.Cap() {
					return false
				}
			}
			st := r.Stats()
			return st.Pushed == uint64(next) && st.Popped == uint64(expect) &&
				int(st.Pushed-st.Popped) == r.Len()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRingConcurrent streams strictly ordered per-producer sequences through
// a small ring, mixing single and batch pushes against one batch-popping
// consumer: every item arrives exactly once, per-producer order holds,
// occupancy never exceeds capacity, and the counters add up. One producer on
// SPSC, four on MPSC. Run under -race.
func TestRingConcurrent(t *testing.T) {
	for _, tc := range []struct {
		name      string
		r         *Ring[[2]int]
		producers int
	}{
		{"spsc", NewSPSC[[2]int](32), 1},
		{"mpsc", NewMPSC[[2]int](32), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const perProd = 25_000
			r := tc.r
			var wg sync.WaitGroup
			for p := 0; p < tc.producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					buf := make([][2]int, 5)
					for i := 0; i < perProd; {
						if i%2 == 0 {
							if err := r.Push([2]int{p, i}); err != nil {
								t.Errorf("Push: %v", err)
								return
							}
							i++
							continue
						}
						k := len(buf)
						if perProd-i < k {
							k = perProd - i
						}
						for j := 0; j < k; j++ {
							buf[j] = [2]int{p, i + j}
						}
						if err := r.PushBatch(buf[:k]); err != nil {
							t.Errorf("PushBatch: %v", err)
							return
						}
						i += k
					}
				}(p)
			}
			go func() {
				wg.Wait()
				r.Close()
			}()
			nextPer := make([]int, tc.producers)
			seen := 0
			dst := make([][2]int, 11)
			for {
				n, err := r.PopBatch(dst, len(dst))
				if errors.Is(err, ErrClosed) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if r.Len() > r.Cap() {
					t.Fatalf("Len %d exceeds Cap %d", r.Len(), r.Cap())
				}
				for _, v := range dst[:n] {
					p, i := v[0], v[1]
					if i != nextPer[p] {
						t.Fatalf("producer %d: got %d, want %d", p, i, nextPer[p])
					}
					nextPer[p]++
					seen++
				}
			}
			want := tc.producers * perProd
			if seen != want {
				t.Fatalf("consumed %d, want %d", seen, want)
			}
			st := r.Stats()
			if st.Pushed != uint64(want) || st.Popped != st.Pushed || st.HighWater > r.Cap() {
				t.Fatalf("stats %+v, want pushed = popped = %d", st, want)
			}
		})
	}
}

// TestRingSnapshotWithLiveProducers exercises the migration pattern under
// the race detector: the consumer is quiescent (paused), producers keep
// pushing until backpressure parks them, and Snapshot/Len/Stats are sampled
// concurrently.
func TestRingSnapshotWithLiveProducers(t *testing.T) {
	eachRing(t, func(t *testing.T, k ringKind) {
		r, producers := k.mk(16), min(k.producers, 3)
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; ; i++ {
					if err := r.Push(p*1_000_000 + i); err != nil {
						return // ErrClosed ends the producer
					}
				}
			}(p)
		}
		// Consumer paused: only observe.
		deadline := time.Now().Add(50 * time.Millisecond)
		for time.Now().Before(deadline) {
			snap := r.Snapshot()
			if len(snap) > r.Cap() {
				t.Fatalf("snapshot longer than capacity: %d", len(snap))
			}
			_ = r.Len()
			_ = r.Stats()
		}
		// Snapshot agrees with what a resumed consumer pops.
		snap := r.Snapshot()
		for i, want := range snap {
			v, err := r.Pop()
			if err != nil {
				t.Fatal(err)
			}
			if v != want {
				t.Fatalf("pop %d = %d, want snapshot value %d", i, v, want)
			}
		}
		r.Close()
		wg.Wait()
		if st := r.Stats(); st.BlockedPushes == 0 {
			t.Fatalf("expected backpressure on paused consumer, stats %+v", st)
		}
	})
}
