package main

import (
	"reflect"
	"testing"
)

func TestPayloadsAreSeeded(t *testing.T) {
	a := newPayloads(42, 0, 64, 16)
	b := newPayloads(42, 0, 64, 16)
	c := newPayloads(43, 0, 64, 16)
	if !reflect.DeepEqual(a.boxed, b.boxed) || !reflect.DeepEqual(a.sums, b.sums) {
		t.Fatal("the same seed gave different payloads")
	}
	if reflect.DeepEqual(a.sums, c.sums) {
		t.Fatal("a different seed gave the same payloads")
	}
	other := newPayloads(42, 1, 64, 16)
	if reflect.DeepEqual(a.sums, other.sums) {
		t.Fatal("two sources of one seed share a payload stream")
	}
	if got := other.boxed[0].([]int)[wordSrc]; got != 1 {
		t.Fatalf("source word = %d, want 1", got)
	}
}

func TestStampAndChecksum(t *testing.T) {
	g := newPayloads(7, 0, 8, 16)
	for _, idx := range []uint64{0, 5, 8, 1003} {
		vals := g.stamp(idx, 99).([]int)
		if vals[wordIndex] != int(idx) || vals[wordStamp] != 99 {
			t.Fatalf("packet %d: header %v", idx, vals[:headWords])
		}
		if checksum(vals) != g.want(idx) {
			t.Fatalf("packet %d: data does not hash to the generator's sum", idx)
		}
		// The header is not covered: stamping must not change the sum.
		vals[wordStamp] = 12345
		if checksum(vals) != g.want(idx) {
			t.Fatalf("packet %d: the stamp leaked into the checksum", idx)
		}
		vals[headWords] ^= 1
		if checksum(vals) == g.want(idx) {
			t.Fatalf("packet %d: a damaged data word went unnoticed", idx)
		}
		vals[headWords] ^= 1
	}
	// Packets a ring apart share a slot, and so a checksum.
	if g.want(3) != g.want(11) {
		t.Fatal("slot reuse changed the expected checksum")
	}
}

func TestPacingSchedule(t *testing.T) {
	const rate = 4000
	if dueNS(0, rate) != 0 {
		t.Fatal("the first packet is due at once")
	}
	// No accumulated rounding: after exactly one second's packets, exactly
	// one second, however far out.
	for _, secs := range []uint64{1, 60, 3600} {
		if got := dueNS(secs*rate, rate); got != int64(secs)*1e9 {
			t.Fatalf("packet %d due at %d ns, want %d", secs*rate, got, int64(secs)*1e9)
		}
	}
	for k := uint64(0); k < 10000; k++ {
		if gap := dueNS(k+1, rate) - dueNS(k, rate); gap < 249_999 || gap > 250_001 {
			t.Fatalf("gap after packet %d is %d ns, want 250000", k, gap)
		}
	}
	// A rate that does not divide a second still never drifts.
	if got := dueNS(3*7000, 7000); got != 3e9 {
		t.Fatalf("7000/s: packet 21000 due at %d", got)
	}
}

func TestWaitUntilIsNotEarly(t *testing.T) {
	for i := 0; i < 20; i++ {
		due := nanos() + 300_000
		late := waitUntil(due)
		if now := nanos(); now < due {
			t.Fatalf("woke %d ns early", due-now)
		}
		if late < 0 {
			t.Fatalf("negative lateness %v", late)
		}
	}
	if late := waitUntil(nanos() - 1000); late < 1000 {
		t.Fatalf("a past due time reported lateness %v", late)
	}
}
