package obs

import (
	"maps"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/gates-middleware/gates/internal/clock"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry(clock.NewManual())
	c := r.Counter("reqs_total", "requests", map[string]string{"stage": "a"})
	c.Inc()
	c.Add(2.5)
	c.Add(-10) // ignored: counters never go down
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	// Idempotent re-registration returns the same instrument.
	if again := r.Counter("reqs_total", "requests", map[string]string{"stage": "a"}); again != c {
		t.Fatal("re-registration returned a different counter")
	}

	g := r.Gauge("depth", "queue depth", nil)
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %v, want 4", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry(clock.NewManual())
	r.Counter("x_total", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("gauge re-registration of a counter name did not panic")
		}
	}()
	r.Gauge("x_total", "", nil)
}

// snapshotValue reads one series out of r's snapshot, and whether it is
// there.
func snapshotValue(r *Registry, name string, labels map[string]string) (float64, bool) {
	for _, p := range r.Snapshot() {
		if p.Name == name && maps.Equal(p.Labels, labels) {
			return float64(p.Value), true
		}
	}
	return 0, false
}

func TestFuncReplacementOnReregistration(t *testing.T) {
	r := NewRegistry(clock.NewManual())
	labels := map[string]string{"stage": "s", "instance": "0"}
	r.CounterFunc("items_total", "", labels, func() float64 { return 100 })
	if v, ok := snapshotValue(r, "items_total", labels); !ok || v != 100 {
		t.Fatalf("snapshot value = %v, %v", v, ok)
	}
	// A restarted component re-registers: the new callback must win so the
	// series follows the live counters, and the family keeps one series.
	r.CounterFunc("items_total", "", labels, func() float64 { return 5 })
	if v, _ := snapshotValue(r, "items_total", labels); v != 5 {
		t.Fatalf("after replacement snapshot value = %v, want 5", v)
	}
	if n := len(r.Snapshot()); n != 1 {
		t.Fatalf("re-registration left %d series, want 1", n)
	}
}

func TestValueMissingSeries(t *testing.T) {
	r := NewRegistry(clock.NewManual())
	if _, ok := snapshotValue(r, "nope", nil); ok {
		t.Fatal("missing family reported present")
	}
	r.Counter("present", "", map[string]string{"a": "1"})
	if _, ok := snapshotValue(r, "present", map[string]string{"a": "2"}); ok {
		t.Fatal("missing series reported present")
	}
	if _, ok := snapshotValue(r, "present", map[string]string{"a": "1"}); !ok {
		t.Fatal("registered series missing from the snapshot")
	}
}

func TestHistogramBucketsAndTiming(t *testing.T) {
	r := NewRegistry(clock.NewManual())
	h := r.Histogram("latency_seconds", "", []float64{0.1, 1, 10}, nil)
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	sum, count, buckets := h.State()
	if count != 5 {
		t.Fatalf("count = %d", count)
	}
	if sum != 56.05 {
		t.Fatalf("sum = %v", sum)
	}
	wantCum := []uint64{1, 3, 4, 5}
	for i, b := range buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket %d = %d, want %d", i, b.Count, wantCum[i])
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry(clock.NewManual())
	r.Counter("gates_items_total", "items processed", map[string]string{"stage": "sink", "instance": "0"}).Add(42)
	r.GaugeFunc("gates_depth", "queue depth", map[string]string{"stage": "sink"}, func() float64 { return 7 })
	h := r.Histogram("gates_batch_seconds", "batch time", []float64{0.5}, nil)
	h.Observe(0.25)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP gates_items_total items processed",
		"# TYPE gates_items_total counter",
		`gates_items_total{instance="0",stage="sink"} 42`,
		"# TYPE gates_depth gauge",
		`gates_depth{stage="sink"} 7`,
		"# TYPE gates_batch_seconds histogram",
		`gates_batch_seconds_bucket{le="0.5"} 1`,
		`gates_batch_seconds_bucket{le="+Inf"} 2`,
		"gates_batch_seconds_sum 2.25",
		"gates_batch_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotSortedAndLabeled(t *testing.T) {
	r := NewRegistry(clock.NewManual())
	r.Counter("b_total", "", nil).Inc()
	r.Counter("a_total", "", map[string]string{"k": "v"}).Add(3)
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d points", len(snap))
	}
	if snap[0].Name != "a_total" || snap[0].Value != 3 || snap[0].Labels["k"] != "v" {
		t.Fatalf("first point = %+v", snap[0])
	}
	if snap[1].Name != "b_total" || snap[1].Value != 1 {
		t.Fatalf("second point = %+v", snap[1])
	}
}

// TestLabelSetsNeverShareASeries registers label sets whose values hold the
// separators a flat "k=v," key would use: each must stay its own series.
func TestLabelSetsNeverShareASeries(t *testing.T) {
	r := NewRegistry(clock.NewManual())
	sets := []map[string]string{
		{"a": "1,b=2"},
		{"a": "1", "b": "2"},
		{"a": "1=", "b": "2"},
		{"a=1,b": "2"},
		{"a": `1",b="2`},
	}
	for i, labels := range sets {
		r.Counter("clash_total", "", labels).Add(float64(i + 1))
	}
	snap := r.Snapshot()
	if len(snap) != len(sets) {
		t.Fatalf("%d label sets gave %d series: %+v", len(sets), len(snap), snap)
	}
	for i, labels := range sets {
		if v, ok := snapshotValue(r, "clash_total", labels); !ok || v != float64(i+1) {
			t.Errorf("series %v = %g (present %v), want %d", labels, v, ok, i+1)
		}
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry(clock.NewManual())
	c := r.Counter("c_total", "", nil)
	g := r.Gauge("g", "", nil)
	h := r.Histogram("h_seconds", "", nil, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || g.Value() != 8000 {
		t.Fatalf("counter %v gauge %v, want 8000", c.Value(), g.Value())
	}
	if _, count, _ := h.State(); count != 8000 {
		t.Fatalf("histogram count %v, want 8000", count)
	}
}

// TestScratchMemoDifferential drives the one-entry bucket memo in front of
// bucketIndexNS through a stream that keeps hitting and missing it — each
// bound's neighbours, the ends, zero, negatives, then seeded random durations
// — and checks that every observation lands in the bucket sort.SearchFloat64s
// names over the nanosecond bounds: through ObserveNS and through
// ObserveNSBoth, on a zero-value memo and right after a Flush. What Flush
// publishes must equal a plain Histogram.Observe replay.
func TestScratchMemoDifferential(t *testing.T) {
	linear := make([]float64, 40)
	for i := range linear {
		linear[i] = float64(i+1) * 250e-6
	}
	for _, layout := range []struct {
		name   string
		bounds []float64
	}{{"latency", LatencyBuckets}, {"linear", linear}} {
		t.Run(layout.name, func(t *testing.T) {
			ref := newHistogram(layout.bounds)
			nb := ref.nsBounds
			nsf := make([]float64, len(nb))
			for i, b := range nb {
				nsf[i] = float64(b)
			}
			first, last := nb[0], nb[len(nb)-1]
			stream := []int64{0, -1, -1e6, first - 5, first / 2, last + 5}
			for _, b := range nb {
				stream = append(stream, b-1, b, b+1, b, b-1) // up across the bound and back down
			}
			rng := rand.New(rand.NewSource(20260101))
			for i := 0; i < 10000; i++ {
				// Log-uniform from well under the first bound to past the
				// last, in runs of one to four near-equal values, so
				// consecutive draws share a bucket about as often as not.
				ns := int64(math.Exp(rng.Float64() * math.Log(float64(2*last))))
				for n := rng.Intn(4); n >= 0; n-- {
					stream = append(stream, ns+int64(n))
				}
			}

			single := newHistogram(layout.bounds)
			pairA, pairB := newHistogram(layout.bounds), newHistogram(layout.bounds)
			one, a, b := single.Scratch(), pairA.Scratch(), pairB.Scratch()
			landed := func(how string, ns int64, want int, observe func(), scrs ...*Scratch) {
				t.Helper()
				before := make([]uint32, len(scrs))
				for k, scr := range scrs {
					before[k] = scr.counts[want]
				}
				observe()
				for k, scr := range scrs {
					if scr.counts[want] != before[k]+1 {
						t.Fatalf("%s(%d) did not land in bucket %d (bounds %v..%v)",
							how, ns, want, nsf[max(want-1, 0)], nsf[min(want, len(nsf)-1)])
					}
				}
			}
			// The memo's open ends are the int64 extremes (kept out of the stream:
			// they would swamp the float sum the replay is compared on).
			ends := newHistogram(layout.bounds).Scratch()
			for _, ns := range []int64{first, math.MinInt64, last + 1, math.MaxInt64, math.MinInt64} {
				want := sort.SearchFloat64s(nsf, float64(ns))
				landed("ObserveNS", ns, want, func() { ends.ObserveNS(ns) }, ends)
			}
			var hits int
			for k, ns := range stream {
				want := sort.SearchFloat64s(nsf, float64(ns))
				if ns > one.lo && ns <= one.hi {
					hits++
				}
				landed("ObserveNS", ns, want, func() { one.ObserveNS(ns) }, one)
				landed("ObserveNSBoth", ns, want, func() { ObserveNSBoth(a, b, ns) }, a, b)
				fresh := single.Scratch() // zero-value memo; never flushed
				landed("fresh ObserveNS", ns, want, func() { fresh.ObserveNS(ns) }, fresh)
				if k%97 == 0 {
					one.Flush()
					a.Flush()
					b.Flush()
				}
				v := float64(ns) * 1e-9
				if want < len(nb) && ns == nb[want] {
					v = layout.bounds[want] // a duration on a bound is that bound, however the product rounds
				}
				ref.Observe(v)
			}
			if misses := len(stream) - hits; hits < len(stream)/10 || misses < len(stream)/10 {
				t.Fatalf("stream does not exercise the memo: %d hits, %d misses", hits, misses)
			}
			one.Flush()
			a.Flush()
			b.Flush()

			wantSum, wantCount, wantBuckets := ref.State()
			for name, h := range map[string]*Histogram{"ObserveNS": single, "Both/a": pairA, "Both/b": pairB} {
				sum, count, buckets := h.State()
				if count != wantCount {
					t.Fatalf("%s: count %d, Observe replay %d", name, count, wantCount)
				}
				for i := range buckets {
					if buckets[i].Count != wantBuckets[i].Count {
						t.Fatalf("%s: cumulative bucket %d (<= %g) = %d, Observe replay %d",
							name, i, float64(buckets[i].UpperBound), buckets[i].Count, wantBuckets[i].Count)
					}
				}
				if math.Abs(sum-wantSum) > math.Abs(wantSum)*1e-9 {
					t.Fatalf("%s: sum %g, Observe replay %g", name, sum, wantSum)
				}
			}
		})
	}
}
