package queue

import (
	"testing"
	"time"
)

// stallDelay is how long the blocked side is held parked before relief; the
// accounting only needs to register *some* wall time, so the assertion is a
// loose lower bound well under the delay.
const stallDelay = 20 * time.Millisecond

func TestRingUncontendedNoStall(t *testing.T) {
	eachRing(t, func(t *testing.T, k ringKind) {
		r := k.mk(8)
		for i := 0; i < 8; i++ {
			if err := r.Push(i); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			if _, err := r.Pop(); err != nil {
				t.Fatal(err)
			}
		}
		st := r.Stats()
		if st.PushStallNS != 0 || st.PopStallNS != 0 || st.BlockedPushes != 0 || st.BlockedPops != 0 {
			t.Fatalf("uncontended traffic accrued stall: %+v", st)
		}
	})
}

func TestRingStallAccounting(t *testing.T) {
	eachRing(t, func(t *testing.T, k ringKind) {
		r := k.mk(2)
		for r.Len() < r.Cap() {
			if err := r.Push(1); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan error, 1)
		go func() { done <- r.Push(2) }() // parks: ring full
		waitFor(t, func() bool { return r.Stats().BlockedPushes == 1 })
		time.Sleep(stallDelay)
		if _, err := r.Pop(); err != nil {
			t.Fatal(err)
		}
		if err := waitErr(t, done, "parked Push"); err != nil {
			t.Fatal(err)
		}
		if st := r.Stats(); st.PushStallNS < uint64(stallDelay/2) {
			t.Fatalf("PushStallNS = %d, want at least ~%d", st.PushStallNS, stallDelay/2)
		}

		// Drain everything, then park the consumer on empty.
		for r.Len() > 0 {
			if _, err := r.Pop(); err != nil {
				t.Fatal(err)
			}
		}
		popped := make(chan error, 1)
		go func() { _, err := r.Pop(); popped <- err }()
		waitFor(t, func() bool { return r.Stats().BlockedPops == 1 })
		time.Sleep(stallDelay)
		if err := r.Push(3); err != nil {
			t.Fatal(err)
		}
		if err := waitErr(t, popped, "parked Pop"); err != nil {
			t.Fatal(err)
		}
		if st := r.Stats(); st.PopStallNS < uint64(stallDelay/2) {
			t.Fatalf("PopStallNS = %d, want at least ~%d", st.PopStallNS, stallDelay/2)
		}
	})
}
