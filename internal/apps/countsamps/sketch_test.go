package countsamps

import (
	"testing"
	"testing/quick"

	"github.com/gates-middleware/gates/internal/metrics"
	"github.com/gates-middleware/gates/internal/workload"
)

func TestNewSketchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSketch(0) did not panic")
		}
	}()
	NewSketch(0, 1)
}

func TestSketchExactWhileUnderFootprint(t *testing.T) {
	s := NewSketch(100, 1)
	stream := []int{1, 1, 2, 3, 3, 3}
	for _, v := range stream {
		s.Observe(v)
	}
	// τ stays 1 (no overflow), so every value is tracked exactly.
	if s.Tau() != 1 {
		t.Fatalf("τ = %v, want 1", s.Tau())
	}
	want := map[int]float64{1: 2, 2: 1, 3: 3}
	for v, c := range want {
		est, ok := s.Estimate(v)
		if !ok {
			t.Fatalf("value %d not tracked", v)
		}
		if est != c+EstimateBias { // τ=1 bias
			t.Fatalf("Estimate(%d) = %v, want %v", v, est, c+EstimateBias)
		}
	}
	if _, ok := s.Estimate(99); ok {
		t.Fatal("untracked value has an estimate")
	}
	if s.Observed() != uint64(len(stream)) {
		t.Fatalf("Observed = %d, want %d", s.Observed(), len(stream))
	}
}

func TestSketchFootprintBound(t *testing.T) {
	s := NewSketch(10, 42)
	for _, v := range workload.Take(workload.NewUniform(1, 10_000), 20_000) {
		s.Observe(v)
		if s.Len() > 10 {
			t.Fatalf("sketch grew to %d entries with footprint 10", s.Len())
		}
	}
	if s.Tau() <= 1 {
		t.Fatal("τ never rose despite constant overflow")
	}
}

func TestSketchSetFootprintShrinks(t *testing.T) {
	s := NewSketch(100, 7)
	for _, v := range workload.Take(workload.NewUniform(2, 1000), 5_000) {
		s.Observe(v)
	}
	s.SetFootprint(5)
	if s.Len() > 5 {
		t.Fatalf("Len = %d after SetFootprint(5)", s.Len())
	}
	s.SetFootprint(0) // clamps to 1
	if s.Footprint() != 1 {
		t.Fatalf("Footprint = %d, want 1", s.Footprint())
	}
}

func TestSketchTopKOrdering(t *testing.T) {
	s := NewSketch(100, 1)
	for v, n := range map[int]int{1: 50, 2: 30, 3: 10} {
		for i := 0; i < n; i++ {
			s.Observe(v)
		}
	}
	top := s.TopK(2)
	if len(top) != 2 || top[0].Value != 1 || top[1].Value != 2 {
		t.Fatalf("TopK = %v", top)
	}
	if got := s.TopK(100); len(got) != 3 {
		t.Fatalf("TopK(100) = %v", got)
	}
}

func TestSketchAccuracyOnZipf(t *testing.T) {
	stream := workload.Take(workload.NewZipf(11, 1.3, 50_000), 25_000)
	s := NewSketch(100, 3)
	for _, v := range stream {
		s.Observe(v)
	}
	acc := metrics.TopKAccuracy(workload.Counts(stream), s.TopK(10), 10)
	if acc.Membership < 0.8 {
		t.Fatalf("membership %v too low for footprint 100 on Zipf", acc.Membership)
	}
	if acc.Frequency < 0.7 {
		t.Fatalf("frequency fidelity %v too low", acc.Frequency)
	}
}

// Property: a tracked value's raw sampled count never exceeds its true
// occurrence count (counts are exact from admission onward), and Len never
// exceeds the footprint.
func TestSketchCountUpperBoundProperty(t *testing.T) {
	f := func(raw []uint8, fpRaw uint8, seed int64) bool {
		fp := int(fpRaw%20) + 1
		s := NewSketch(fp, seed)
		truth := map[int]int{}
		for _, r := range raw {
			v := int(r % 32)
			truth[v]++
			s.Observe(v)
			if s.Len() > fp {
				return false
			}
		}
		for _, vc := range s.TopK(fp) {
			rawCount := vc.Count - EstimateBias*s.Tau()
			if rawCount > float64(truth[vc.Value])+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryWireSize(t *testing.T) {
	sm := &Summary{Entries: make([]workload.ValueCount, 5)}
	if got := sm.WireSize(100); got != 532 {
		t.Fatalf("WireSize = %d, want 532", got)
	}
	if sm.String() == "" {
		t.Fatal("empty String")
	}
}

func TestMergerSupersedesPerSource(t *testing.T) {
	m := NewMerger()
	m.AddSummary(&Summary{SourceInstance: 0, Span: 100,
		Entries: []workload.ValueCount{{Value: 1, Count: 10}}})
	m.AddSummary(&Summary{SourceInstance: 0, Span: 200,
		Entries: []workload.ValueCount{{Value: 1, Count: 25}}})
	top := m.TopK(1)
	if top[0].Count != 25 {
		t.Fatalf("newer summary did not supersede: %v", top)
	}
	// A stale (smaller-span) summary must be ignored.
	m.AddSummary(&Summary{SourceInstance: 0, Span: 150,
		Entries: []workload.ValueCount{{Value: 1, Count: 99}}})
	if m.TopK(1)[0].Count != 25 {
		t.Fatal("stale summary overwrote newer state")
	}
	if m.Sources() != 1 {
		t.Fatalf("Sources = %d, want 1", m.Sources())
	}
}

func TestMergerSumsAcrossSources(t *testing.T) {
	m := NewMerger()
	m.AddSummary(&Summary{SourceInstance: 0, Span: 10,
		Entries: []workload.ValueCount{{Value: 7, Count: 4}}})
	m.AddSummary(&Summary{SourceInstance: 1, Span: 10,
		Entries: []workload.ValueCount{{Value: 7, Count: 6}, {Value: 8, Count: 1}}})
	top := m.TopK(2)
	if top[0].Value != 7 || top[0].Count != 10 {
		t.Fatalf("cross-source sum wrong: %v", top)
	}
	if m.Distinct() != 2 {
		t.Fatalf("Distinct = %d, want 2", m.Distinct())
	}
}

func TestMergerRawPath(t *testing.T) {
	m := NewMerger()
	for i := 0; i < 5; i++ {
		m.AddRaw(3)
	}
	m.AddRaw(4)
	top := m.TopK(10)
	if top[0].Value != 3 || top[0].Count != 5 {
		t.Fatalf("raw totals wrong: %v", top)
	}
}

// Property: merging k single-source summaries yields totals equal to the
// sum of entries per value.
func TestMergerSumProperty(t *testing.T) {
	f := func(counts []uint8) bool {
		m := NewMerger()
		want := map[int]float64{}
		for i, c := range counts {
			v := i % 8
			e := []workload.ValueCount{{Value: v, Count: float64(c)}}
			m.AddSummary(&Summary{SourceInstance: i, Span: 1, Entries: e})
			want[v] += float64(c)
		}
		for _, vc := range m.TopK(100) {
			if want[vc.Value] != vc.Count {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSketchObserve measures the counting-samples ingest path.
func BenchmarkSketchObserve(b *testing.B) {
	vals := workload.Take(workload.NewZipf(1, 1.5, 50_000), 1<<16)
	s := NewSketch(100, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(vals[i&(1<<16-1)])
	}
}

// BenchmarkSketchTopK measures the query path.
func BenchmarkSketchTopK(b *testing.B) {
	s := NewSketch(240, 1)
	for _, v := range workload.Take(workload.NewZipf(1, 1.5, 50_000), 100_000) {
		s.Observe(v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TopK(10)
	}
}
