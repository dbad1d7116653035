// Package clock provides the time base used by every GATES component.
//
// The paper's experiments ran in wall-clock time on a physical cluster with
// injected network delay. To make the reproduction fast and repeatable, all
// time-dependent code in this repository (link emulation, per-item compute
// cost, adaptation intervals) is written against the Clock interface rather
// than the time package directly. Three implementations are provided:
//
//   - Real: wall-clock time, for running examples "at paper speed".
//   - Scaled: virtual time that advances k times faster than wall time, so a
//     250-virtual-second experiment completes in 250/k real seconds while
//     preserving every rate ratio (bandwidth vs. compute vs. arrival).
//   - Manual: a fully deterministic clock for unit tests; time only moves
//     when the test calls Advance.
package clock

import (
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the minimal time base the middleware needs. Durations passed to a
// Clock are in virtual time; how long they take in wall time depends on the
// implementation.
type Clock interface {
	// Now returns the current virtual time.
	Now() time.Time
	// Sleep blocks the calling goroutine for d of virtual time.
	// Non-positive durations return immediately.
	Sleep(d time.Duration)
	// After returns a channel that receives the virtual time once d of
	// virtual time has elapsed.
	After(d time.Duration) <-chan time.Time
}

// Epoch is the virtual-time origin used by the Scaled and Manual clocks.
// A fixed origin keeps experiment traces comparable across runs.
var Epoch = time.Date(2004, time.June, 7, 0, 0, 0, 0, time.UTC) // HPDC 2004 week

// Real is a Clock backed directly by the time package.
type Real struct{}

// NewReal returns a wall-clock Clock.
func NewReal() Real { return Real{} }

// realAnchor is the process-wide time.Now() reading that Real.Now offsets
// from; realAnchorMaxAge is how old it may grow before it is taken again,
// and so how long a stepped wall clock can go unfollowed.
var realAnchor atomic.Pointer[time.Time]

const realAnchorMaxAge = time.Second

// Now implements Clock. It is the anchor plus the monotonic time since it:
// one monotonic clock read where time.Now makes a wall and a monotonic one
// (every packet stamp pays this). The value carries a monotonic reading like
// time.Now's, and by monotonic comparison never runs backwards.
func (Real) Now() time.Time {
	if a := realAnchor.Load(); a != nil {
		if d := time.Since(*a); d < realAnchorMaxAge {
			return a.Add(d)
		}
	}
	now := time.Now()
	realAnchor.Store(&now)
	return now
}

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// After implements Clock.
func (r Real) After(d time.Duration) <-chan time.Time {
	if d <= 0 {
		ch := make(chan time.Time, 1)
		ch <- r.Now()
		return ch
	}
	return time.After(d)
}

// Scaled is a Clock whose virtual time advances Scale times faster than wall
// time. Scale = 1000 runs a 1000-virtual-second experiment in one real
// second. The zero value is not usable; construct with NewScaled.
type Scaled struct {
	scale float64
	start time.Time // wall-time anchor
}

// NewScaled returns a Clock that advances scale virtual seconds per real
// second. scale must be positive; NewScaled panics otherwise, because a
// silent fallback would corrupt every measurement built on top of it.
func NewScaled(scale float64) *Scaled {
	if scale <= 0 {
		panic("clock: NewScaled requires a positive scale")
	}
	return &Scaled{scale: scale, start: time.Now()}
}

// Scale returns the virtual-seconds-per-real-second factor.
func (s *Scaled) Scale() float64 { return s.scale }

// Now implements Clock.
func (s *Scaled) Now() time.Time {
	elapsed := time.Since(s.start)
	return Epoch.Add(time.Duration(float64(elapsed) * s.scale))
}

// Sleep implements Clock. It sleeps d/scale of wall time.
func (s *Scaled) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	time.Sleep(time.Duration(float64(d) / s.scale))
}

// After implements Clock.
func (s *Scaled) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- s.Now()
		return ch
	}
	go func() {
		s.Sleep(d)
		ch <- s.Now()
	}()
	return ch
}

// Manual is a deterministic Clock for tests. Virtual time stands still until
// Advance or AdvanceTo is called; sleepers whose deadlines are reached are
// woken in deadline order. The zero value is not usable; construct with
// NewManual.
//
// The current time is an atomic offset from Epoch so the hot-path Now()
// (every packet stamp reads it) never contends with sleepers; the mutex
// serializes only the waiter list and advances. The materialized time.Time
// for the current offset is cached behind an atomic pointer: between
// advances — the overwhelmingly common case on the packet path — Now() is
// two atomic loads, with Epoch.Add's wall/monotonic arithmetic paid once
// per advance instead of once per read.
type Manual struct {
	nowNS   atomic.Int64              // nanoseconds since Epoch
	cached  atomic.Pointer[manualNow] // memoized Epoch.Add for the current offset
	mu      sync.Mutex
	waiters []*manualWaiter
}

type manualNow struct {
	ns int64
	t  time.Time
}

type manualWaiter struct {
	deadline time.Time
	ch       chan time.Time
}

// NewManual returns a Manual clock positioned at Epoch.
func NewManual() *Manual {
	return &Manual{}
}

// Now implements Clock. It is lock-free. Concurrent first reads after an
// advance may each materialize and store the cache entry; every entry for
// the same offset is identical, so last-writer-wins is harmless.
func (m *Manual) Now() time.Time {
	ns := m.nowNS.Load()
	if c := m.cached.Load(); c != nil && c.ns == ns {
		return c.t
	}
	t := Epoch.Add(time.Duration(ns))
	m.cached.Store(&manualNow{ns: ns, t: t})
	return t
}

// Sleep implements Clock. It blocks until the clock has been advanced past
// the deadline by another goroutine.
func (m *Manual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-m.After(d)
}

// After implements Clock.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.Now()
	if d <= 0 {
		ch <- now
		return ch
	}
	m.waiters = append(m.waiters, &manualWaiter{deadline: now.Add(d), ch: ch})
	return ch
}

// Advance moves virtual time forward by d, waking every sleeper whose
// deadline falls within the advance. It panics on negative d: time cannot
// run backwards.
func (m *Manual) Advance(d time.Duration) {
	if d < 0 {
		panic("clock: Manual.Advance with negative duration")
	}
	m.mu.Lock()
	m.advanceToLocked(m.Now().Add(d))
	m.mu.Unlock()
}

// AdvanceTo moves virtual time forward to t. Moving to a time at or before
// the current time is a no-op.
func (m *Manual) AdvanceTo(t time.Time) {
	m.mu.Lock()
	m.advanceToLocked(t)
	m.mu.Unlock()
}

func (m *Manual) advanceToLocked(t time.Time) {
	if !t.After(m.Now()) {
		return
	}
	m.nowNS.Store(int64(t.Sub(Epoch)))
	kept := m.waiters[:0]
	for _, w := range m.waiters {
		if !w.deadline.After(t) {
			w.ch <- t
		} else {
			kept = append(kept, w)
		}
	}
	// Zero the tail so released waiters can be collected.
	for i := len(kept); i < len(m.waiters); i++ {
		m.waiters[i] = nil
	}
	m.waiters = kept
}

// Waiters reports how many goroutines are currently blocked in Sleep/After.
// Tests use it to synchronize before advancing.
func (m *Manual) Waiters() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiters)
}

// NextDeadline returns the earliest pending sleeper deadline and true, or the
// zero time and false when no goroutine is waiting. A test event loop can
// repeatedly AdvanceTo(NextDeadline()) to drain all timed work
// deterministically.
func (m *Manual) NextDeadline() (time.Time, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.waiters) == 0 {
		return time.Time{}, false
	}
	min := m.waiters[0].deadline
	for _, w := range m.waiters[1:] {
		if w.deadline.Before(min) {
			min = w.deadline
		}
	}
	return min, true
}

// Stopwatch measures elapsed virtual time on any Clock.
type Stopwatch struct {
	clk   Clock
	start time.Time
}

// NewStopwatch starts a stopwatch on clk.
func NewStopwatch(clk Clock) Stopwatch {
	return Stopwatch{clk: clk, start: clk.Now()}
}

// Elapsed returns the virtual time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration { return s.clk.Now().Sub(s.start) }
