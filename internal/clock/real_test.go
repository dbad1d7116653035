package clock

import (
	"testing"
	"time"
	"unsafe"
)

// setRealAnchor replaces the process-wide anchor for one test and puts a
// fresh one back afterwards, so a doctored wall reading cannot leak into the
// tests that follow.
func setRealAnchor(t *testing.T, a time.Time) {
	t.Helper()
	realAnchor.Store(&a)
	t.Cleanup(func() {
		now := time.Now()
		realAnchor.Store(&now)
	})
}

// shiftWall returns t with its wall reading moved by whole seconds and its
// monotonic reading left alone — what a stepped system clock does to
// time.Now(), and what no time.Time method does (Add moves both). It reaches
// into time.Time's first word (flag bit, 33 bits of seconds, 30 of
// nanoseconds) and skips the test if the result says the layout has changed.
func shiftWall(t *testing.T, at time.Time, secs int64) time.Time {
	t.Helper()
	shifted := at
	*(*uint64)(unsafe.Pointer(&shifted)) += uint64(secs) << 30
	if shifted.Sub(at) != 0 || shifted.Round(0).Sub(at.Round(0)) != time.Duration(secs)*time.Second {
		t.Skip("time.Time's layout is not the one this helper pokes at")
	}
	return shifted
}

// wallBetween reports whether got's wall reading lies within slack of the
// interval [before, after], all three compared by wall reading only.
func wallBetween(got, before, after time.Time, slack time.Duration) bool {
	g := got.Round(0)
	return !g.Before(before.Round(0).Add(-slack)) && !g.After(after.Round(0).Add(slack))
}

func TestRealNowNeverRunsBackwards(t *testing.T) {
	c := NewReal()
	stale := time.Now().Add(-2 * time.Second)
	const reads = 1_000_000
	prev := c.Now()
	for i := 0; i < reads; i++ {
		if i == reads/2 {
			setRealAnchor(t, stale)
		}
		now := c.Now()
		if now.Before(prev) {
			t.Fatalf("read %d: %v after %v", i, now, prev)
		}
		prev = now
	}
	if a := realAnchor.Load(); a.Equal(stale) {
		t.Fatal("an anchor 2 s old was not taken again")
	}
}

func TestRealNowTracksWallClock(t *testing.T) {
	c := NewReal()
	check := func(what string) {
		t.Helper()
		before := time.Now()
		got := c.Now()
		after := time.Now()
		if !wallBetween(got, before, after, time.Millisecond) {
			t.Fatalf("%s: Real.Now() = %v, time.Now() went %v .. %v", what, got, before, after)
		}
	}
	check("fresh anchor")
	for i := 0; i < 1000; i++ {
		check("within one anchor")
	}
	// An anchor whose wall reading is an hour off (the system clock has been
	// stepped since) stops being used once it is a second old.
	setRealAnchor(t, shiftWall(t, time.Now(), 3600).Add(-2*time.Second))
	check("right after a forced re-anchor")
}

func TestRealNowCarriesMonotonicReading(t *testing.T) {
	c := NewReal()
	earlier := time.Now()
	// The anchor's wall reading is an hour ahead of its monotonic one: Sub
	// must still be the monotonic elapsed time, as it is for time.Now().
	setRealAnchor(t, shiftWall(t, time.Now(), 3600))
	got := c.Now()
	elapsed := time.Since(earlier)
	if got == got.Round(0) {
		t.Fatalf("Real.Now() = %v has no monotonic reading", got)
	}
	if d := got.Sub(earlier); d < 0 || d > elapsed {
		t.Fatalf("Now().Sub(earlier) = %v, monotonic elapsed %v", d, elapsed)
	}
	if d := got.Round(0).Sub(earlier.Round(0)); d < time.Hour-time.Second {
		t.Fatalf("wall readings differ by %v: the anchor was not the doctored one", d)
	}
}

func TestRealAfterZeroHandsBackRealNow(t *testing.T) {
	c := NewReal()
	// With the anchor's wall reading an hour ahead, Real.Now() and
	// time.Now() are told apart by their wall readings.
	setRealAnchor(t, shiftWall(t, time.Now(), 3600))
	before := c.Now()
	got := <-c.After(0)
	after := c.Now()
	if got.Before(before) || got.After(after) || !wallBetween(got, before, after, 0) {
		t.Fatalf("After(0) sent %v, Real.Now() went %v .. %v", got, before, after)
	}
}

var sinkTime time.Time

// BenchmarkRealNow beside BenchmarkTimeNow is the clock layer's share of a
// default hop (DESIGN.md §6): one monotonic read against a wall and a
// monotonic one.
func BenchmarkRealNow(b *testing.B) {
	c := NewReal()
	for i := 0; i < b.N; i++ {
		sinkTime = c.Now()
	}
}

func BenchmarkTimeNow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkTime = time.Now()
	}
}
