package obs

import (
	"math"
	"testing"

	"github.com/gates-middleware/gates/internal/clock"
)

func TestLatencyBucketsShape(t *testing.T) {
	want := (latencyMaxExp-latencyMinExp)*latencyBucketsPerDecade + 1
	if len(LatencyBuckets) != want {
		t.Fatalf("got %d bounds, want %d", len(LatencyBuckets), want)
	}
	if got := LatencyBuckets[0]; math.Abs(got-1e-5) > 1e-12 {
		t.Fatalf("first bound = %g, want 1e-5", got)
	}
	last := LatencyBuckets[len(LatencyBuckets)-1]
	if math.Abs(last-1e3)/1e3 > 1e-9 {
		t.Fatalf("last bound = %g, want 1e3", last)
	}
	factor := math.Pow(10, 1.0/latencyBucketsPerDecade)
	for i := 1; i < len(LatencyBuckets); i++ {
		if LatencyBuckets[i] <= LatencyBuckets[i-1] {
			t.Fatalf("bounds not increasing at %d: %g <= %g", i, LatencyBuckets[i], LatencyBuckets[i-1])
		}
		ratio := LatencyBuckets[i] / LatencyBuckets[i-1]
		if math.Abs(ratio-factor) > 1e-9 {
			t.Fatalf("growth factor at %d = %g, want %g", i, ratio, factor)
		}
	}
}

// TestHistogramQuantileAccuracy checks interpolated quantiles stay within
// one bucket's relative width (~±16%) of the exact sample quantile.
func TestHistogramQuantileAccuracy(t *testing.T) {
	reg := NewRegistry(clock.NewManual())
	h := reg.Histogram("lat", "", LatencyBuckets, nil)
	// 1000 observations spread over two decades.
	var vals []float64
	for i := 1; i <= 1000; i++ {
		vals = append(vals, 0.001*float64(i)) // 1ms .. 1s
	}
	for _, v := range vals {
		h.Observe(v)
	}
	factor := math.Pow(10, 1.0/latencyBucketsPerDecade)
	for _, tc := range []struct {
		q     float64
		exact float64
	}{{0.50, 0.500}, {0.95, 0.950}, {0.99, 0.990}} {
		_, count, buckets := h.State()
		got := QuantileFromBuckets(buckets, count, tc.q)
		if got < tc.exact/factor || got > tc.exact*factor {
			t.Errorf("q=%.2f: got %g, want within one bucket of %g", tc.q, got, tc.exact)
		}
	}
}

func TestQuantileFromBucketsEdges(t *testing.T) {
	if got := QuantileFromBuckets(nil, 0, 0.99); got != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", got)
	}
	// All observations in the +Inf overflow bucket clamp to the last
	// finite bound.
	buckets := []BucketCount{
		{UpperBound: 1, Count: 0},
		{UpperBound: JSONFloat(math.Inf(1)), Count: 10},
	}
	if got := QuantileFromBuckets(buckets, 10, 0.99); got != 1 {
		t.Fatalf("overflow quantile = %g, want clamp to 1", got)
	}
	// A single observation defines every quantile.
	one := []BucketCount{
		{UpperBound: 1, Count: 1},
		{UpperBound: JSONFloat(math.Inf(1)), Count: 1},
	}
	lo := QuantileFromBuckets(one, 1, 0.01)
	hi := QuantileFromBuckets(one, 1, 0.99)
	if lo != hi {
		t.Fatalf("single-sample quantiles differ: %g vs %g", lo, hi)
	}
}

func TestMergeBuckets(t *testing.T) {
	inf := JSONFloat(math.Inf(1))
	a := []BucketCount{{UpperBound: 1, Count: 2}, {UpperBound: inf, Count: 5}}
	b := []BucketCount{{UpperBound: 1, Count: 3}, {UpperBound: inf, Count: 4}}
	if !mergeBuckets(a, b) {
		t.Fatal("aligned buckets refused")
	}
	if a[0].Count != 5 || a[1].Count != 9 {
		t.Fatalf("merged counts = %d/%d, want 5/9", a[0].Count, a[1].Count)
	}
	// Length mismatch.
	if mergeBuckets(a, a[:1]) {
		t.Fatal("length mismatch merged")
	}
	// Bound mismatch must refuse and leave dst untouched.
	c := []BucketCount{{UpperBound: 2, Count: 1}, {UpperBound: inf, Count: 1}}
	before := a[0].Count
	if mergeBuckets(a, c) {
		t.Fatal("misaligned bounds merged")
	}
	if a[0].Count != before {
		t.Fatalf("dst mutated on refused merge: %d", a[0].Count)
	}
}

// TestRegistryHistogramQuantile checks the quantiles a registry snapshot
// attaches: an observed histogram series carries p50/p95/p99, an empty one
// and a counter carry none.
func TestRegistryHistogramQuantile(t *testing.T) {
	reg := NewRegistry(clock.NewManual())
	reg.Histogram(MetricE2ELatency, "", LatencyBuckets, map[string]string{"stage": "sink"}).Observe(0.1)
	reg.Histogram(MetricE2ELatency, "", LatencyBuckets, map[string]string{"stage": "other"})
	reg.Counter("plain", "", nil).Add(1)
	for _, p := range reg.Snapshot() {
		switch {
		case p.Name == "plain" || p.Labels["stage"] == "other":
			if p.Quantiles != nil {
				t.Errorf("%s %v carries quantiles %v", p.Name, p.Labels, p.Quantiles)
			}
		default:
			if v := float64(p.Quantiles["p99"]); v <= 0 {
				t.Errorf("observed histogram p99 = %g, quantiles %v", v, p.Quantiles)
			}
		}
	}
}

// TestScratchMatchesObserve pins the hot-path integer-nanosecond bucketing
// (Scratch.ObserveNS via the exponent table) to Observe's float semantics:
// the same durations must land in the same buckets with the same total sum,
// for values spanning below the first bound, above the last, and every
// decade between.
func TestScratchMatchesObserve(t *testing.T) {
	direct := newHistogram(LatencyBuckets)
	scratched := newHistogram(LatencyBuckets)
	scr := scratched.Scratch()

	// A deterministic spread: sub-bucket, mid-range, overflow, and a dense
	// sweep that crosses every binary octave the table indexes.
	var durs []int64
	for ns := int64(1); ns < int64(5e12); ns = ns*3/2 + 7 {
		durs = append(durs, ns)
	}
	durs = append(durs, 0, -5, 1, 999, int64(1e15))
	for _, ns := range durs {
		direct.Observe(float64(ns) * 1e-9)
		scr.ObserveNS(ns)
	}
	scr.Flush()

	_, dc, db := direct.State()
	ss, sc, sb := scratched.State()
	if dc != sc {
		t.Fatalf("counts differ: direct %d, scratch %d", dc, sc)
	}
	for i := range db {
		if db[i].Count != sb[i].Count {
			t.Fatalf("bucket %d (<= %g): direct %d, scratch %d",
				i, float64(db[i].UpperBound), db[i].Count, sb[i].Count)
		}
	}
	var wantSum float64
	for _, ns := range durs {
		wantSum += float64(ns) * 1e-9
	}
	if math.Abs(ss-wantSum) > math.Abs(wantSum)*1e-9 {
		t.Fatalf("scratch sum = %g, want %g", ss, wantSum)
	}
}

// TestScratchFlushIdempotent checks Flush is a no-op with nothing buffered
// and that interleaved observe/flush rounds accumulate correctly.
func TestScratchFlushIdempotent(t *testing.T) {
	h := newHistogram(LatencyBuckets)
	scr := h.Scratch()
	scr.Flush() // empty flush must not publish anything
	if _, c, _ := h.State(); c != 0 {
		t.Fatalf("empty flush published %d observations", c)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			scr.ObserveNS(int64(1e6)) // 1ms
		}
		scr.Flush()
	}
	scr.Flush()
	_, c, _ := h.State()
	if c != 30 {
		t.Fatalf("count = %d, want 30", c)
	}
}
