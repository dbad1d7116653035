package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); !near(got, 2.5) {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("an empty sample must not read as a number")
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
}

// The quartile rule must be the acceptance harness's: Python's
// statistics.quantiles(xs, n=4) with its default (exclusive) method.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 20, 40, 80, 160, 320}, 17.5, 200},
		{[]float64{3, 1}, 0.5, 3.5}, // two points: Python extrapolates, so do we
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpreadAndSummary(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{4, 4, 4, 4, 4}); got != 0 {
		t.Errorf("constant sample has spread %v", got)
	}
	s := summarize(xs, "ms")
	if s.Value != 5.5 || s.Unit != "ms" || s.N != 10 || s.Q1 != 2.75 || s.Q3 != 8.25 {
		t.Errorf("summary = %+v", s)
	}
	if got := blockMedians([]float64{1, 2, 3, 10, 20, 30, 7}, 3); len(got) != 2 || got[0] != 2 || got[1] != 20 {
		t.Errorf("blockMedians = %v, want [2 20] (the short tail dropped)", got)
	}
	if got := blockMedians([]float64{5, 1}, 3); len(got) != 1 || got[0] != 3 {
		t.Errorf("blockMedians of a short sample = %v, want its one median", got)
	}
}

func TestCompareJudgesLikeTheHarness(t *testing.T) {
	lower := metricDef{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 102}
	if r := compare("w", lower, tight, tight); !r.OK || r.Worse != 0 {
		t.Errorf("identical sets: %+v", r)
	}
	worse := []float64{115, 116, 114, 115, 117}
	if r := compare("w", lower, tight, worse); r.OK || r.Worse < 0.14 {
		t.Errorf("15%% worse second set passed: %+v", r)
	}
	if r := compare("w", lower, worse, tight); !r.OK {
		t.Errorf("a better second set failed: %+v", r)
	}
	wide := []float64{80, 120, 100, 70, 130}
	if r := compare("w", lower, wide, wide); r.OK {
		t.Errorf("spread beyond the bound passed: %+v", r)
	}
	setup := metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.10}
	if r := compare("w", setup, wide, wide); !r.OK {
		t.Errorf("set-up time is exempt from the spread rule: %+v", r)
	}
	higher := metricDef{Name: "throughput_pps", Unit: "pkt/s", Better: "higher", Bound: 0.10}
	if r := compare("w", higher, worse, tight); r.OK {
		t.Errorf("a 13%% throughput drop passed: %+v", r)
	}
}
