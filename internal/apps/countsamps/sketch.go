// Package countsamps implements the paper's first application template:
// a distributed version of the counting samples problem.
//
// The classical problem (Gibbons & Matias, the paper's [18]): a stream of
// integers arrives; report the n most frequently occurring values and their
// frequencies at any point, using bounded memory. The counting samples
// sketch keeps a sample of values with exact counts from the moment of
// admission: a new value enters the sample with probability 1/τ, and when
// the sample outgrows its footprint the threshold τ is raised and every
// sampled value must survive a sequence of coin flips or have its count
// decremented.
//
// The distributed version (this package's stages) runs one sketch near each
// sub-stream's source and periodically forwards the top-n entries to a
// central merger; n — how many frequently occurring values each sub-stream
// maintains and communicates — is the application's adjustment parameter.
package countsamps

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"github.com/gates-middleware/gates/internal/workload"
)

// EstimateBias is the compensation added to a sampled count when estimating
// a value's true frequency: Gibbons & Matias show the expected number of
// occurrences missed before a value's admission is ≈ 0.418·τ.
const EstimateBias = 0.418

// Sketch is a counting samples summary with a bounded footprint.
// It is not safe for concurrent use; each stage instance owns one.
type Sketch struct {
	footprint int
	tau       float64
	counts    map[int]int
	rng       *rand.Rand
	seed      int64
	draws     uint64
	observed  uint64
}

// NewSketch returns a sketch tracking at most footprint values. The seed
// makes runs reproducible.
func NewSketch(footprint int, seed int64) *Sketch {
	if footprint < 1 {
		panic("countsamps: footprint must be >= 1")
	}
	return &Sketch{
		footprint: footprint,
		tau:       1,
		counts:    make(map[int]int, footprint+1),
		rng:       rand.New(rand.NewSource(seed)),
		seed:      seed,
	}
}

// flip draws the next coin from the seeded RNG, counting draws so a
// serialized sketch can replay the RNG to the same position on restore —
// the property that makes a migrated sketch bit-identical to one that
// never moved.
func (s *Sketch) flip() float64 {
	s.draws++
	return s.rng.Float64()
}

// Footprint returns the current maximum number of tracked values.
func (s *Sketch) Footprint() int { return s.footprint }

// SetFootprint changes the footprint at runtime — the hook the adjustment
// parameter drives. Shrinking evicts via threshold raising, exactly as an
// overflow would.
func (s *Sketch) SetFootprint(n int) {
	if n < 1 {
		n = 1
	}
	s.footprint = n
	for len(s.counts) > s.footprint {
		s.raiseTau()
	}
}

// Tau returns the current admission threshold τ (values enter the sample
// with probability 1/τ).
func (s *Sketch) Tau() float64 { return s.tau }

// Len returns the number of values currently tracked.
func (s *Sketch) Len() int { return len(s.counts) }

// Observed returns how many stream values the sketch has consumed.
func (s *Sketch) Observed() uint64 { return s.observed }

// Observe feeds one stream value.
func (s *Sketch) Observe(v int) {
	s.observed++
	if _, ok := s.counts[v]; ok {
		s.counts[v]++
		return
	}
	if s.flip() < 1/s.tau {
		s.counts[v] = 1
		for len(s.counts) > s.footprint {
			s.raiseTau()
		}
	}
}

// raiseTau increases τ and makes every tracked value re-earn its place:
// each flips a coin with heads probability τ/τ'; on tails its count is
// decremented and the (now unbiased) coin is flipped again, until heads or
// the count reaches zero, in which case the value is evicted. This is the
// eviction procedure of Gibbons & Matias.
//
// Entries are visited in sorted value order: Go randomizes map iteration,
// and consuming the seeded RNG in a random order would make two runs over
// the same stream diverge — reproducibility the experiments rely on.
func (s *Sketch) raiseTau() {
	oldTau := s.tau
	s.tau = nextTau(oldTau)
	keepFirst := oldTau / s.tau
	values := make([]int, 0, len(s.counts))
	for v := range s.counts {
		values = append(values, v)
	}
	sort.Ints(values)
	for _, v := range values {
		// First flip with probability τ/τ'; subsequent flips with
		// probability 1/τ' (the value must behave as if re-admitted).
		if s.flip() < keepFirst {
			continue
		}
		c := s.counts[v]
		for c > 0 {
			c--
			if s.flip() < 1/s.tau {
				break
			}
		}
		if c == 0 {
			delete(s.counts, v)
		} else {
			s.counts[v] = c
		}
	}
}

// nextTau is the threshold one raise moves τ to: ×1.25, and at least +1.
func nextTau(tau float64) float64 {
	return math.Max(tau*1.25, tau+1)
}

// raisesTo returns how many raises take τ from 1 to exactly tau, and false
// when none do: a finite τ a running sketch can hold is one of nextTau's
// iterates from 1, and the iteration is the one raiseTau performs.
func raisesTo(tau float64) (int, bool) {
	raises, t := 0, 1.0
	for ; t < tau; t = nextTau(t) {
		raises++
	}
	return raises, t == tau && !math.IsInf(tau, 1)
}

// sketchWire is the serialized form of a Sketch. Values/Counts are
// parallel slices in sorted value order so encoding is deterministic.
type sketchWire struct {
	Footprint int     `json:"footprint"`
	Tau       float64 `json:"tau"`
	Seed      int64   `json:"seed"`
	Draws     uint64  `json:"draws"`
	Observed  uint64  `json:"observed"`
	Values    []int   `json:"values"`
	Counts    []int   `json:"counts"`
}

// MarshalBinary serializes the sketch, including enough RNG provenance
// (seed plus draw count) that UnmarshalBinary reproduces the exact
// generator position: a restored sketch continues the same coin-flip
// sequence the original would have.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	w := sketchWire{
		Footprint: s.footprint,
		Tau:       s.tau,
		Seed:      s.seed,
		Draws:     s.draws,
		Observed:  s.observed,
		Values:    make([]int, 0, len(s.counts)),
		Counts:    make([]int, 0, len(s.counts)),
	}
	for v := range s.counts {
		w.Values = append(w.Values, v)
	}
	sort.Ints(w.Values)
	for _, v := range w.Values {
		w.Counts = append(w.Counts, s.counts[v])
	}
	return json.Marshal(w)
}

// UnmarshalBinary replaces the sketch's state with a serialized one,
// replaying the RNG to the recorded draw position. It refuses state no
// running sketch reaches, and then leaves the sketch unchanged: a τ that no
// number of raises gives (below 1, NaN and infinite among them), more values
// than the footprint, values out of order or repeated, a count below 1, a
// count total above Observed, or more draws than Observed permits.
//
// The draw bound, for a sketch that observed O values and raised τ R times.
// Observe draws once for each value it does not already track; a raise draws
// once per tracked value (its first flip) and once more per decrement. Of the
// O observations, those that draw and those that add a count overlap only in
// admissions, and every decrement takes back a count an Observe added, so
// Observe's draws plus the decrements are at most 2·O. A raise sees at most O
// tracked values, so the first flips are at most R·O. Hence Draws ≤ (R + 2)·O,
// and so is the number of steps the replay takes.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	var w sketchWire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("countsamps: unmarshal sketch: %w", err)
	}
	if w.Footprint < 1 || len(w.Values) != len(w.Counts) || len(w.Values) > w.Footprint {
		return fmt.Errorf("countsamps: unmarshal sketch: malformed state")
	}
	raises, ok := raisesTo(w.Tau)
	if !ok {
		return fmt.Errorf("countsamps: unmarshal sketch: τ %v is not reachable", w.Tau)
	}
	var total uint64
	for i, c := range w.Counts {
		if c < 1 || (i > 0 && w.Values[i] <= w.Values[i-1]) {
			return fmt.Errorf("countsamps: unmarshal sketch: entry %d out of order or below count 1", i)
		}
		if total += uint64(c); total > w.Observed {
			return fmt.Errorf("countsamps: unmarshal sketch: counts exceed %d observed values", w.Observed)
		}
	}
	if hi, lo := bits.Mul64(uint64(raises)+2, w.Observed); hi == 0 && w.Draws > lo {
		return fmt.Errorf("countsamps: unmarshal sketch: %d draws exceed the %d that %d observed values and %d raises allow",
			w.Draws, lo, w.Observed, raises)
	}
	s.footprint = w.Footprint
	s.tau = w.Tau
	s.seed = w.Seed
	s.observed = w.Observed
	s.counts = make(map[int]int, len(w.Values)+1)
	for i, v := range w.Values {
		s.counts[v] = w.Counts[i]
	}
	s.rng = rand.New(rand.NewSource(w.Seed))
	s.draws = 0
	for s.draws < w.Draws {
		s.flip()
	}
	return nil
}

// Estimate returns the frequency estimate for a tracked value: its sampled
// count plus the admission-bias compensation. The second return is false
// for untracked values.
func (s *Sketch) Estimate(v int) (float64, bool) {
	c, ok := s.counts[v]
	if !ok {
		return 0, false
	}
	return float64(c) + EstimateBias*s.tau, true
}

// TopK returns the k tracked values with the highest estimates, descending,
// ties broken by smaller value.
func (s *Sketch) TopK(k int) []workload.ValueCount {
	all := make([]workload.ValueCount, 0, len(s.counts))
	for v := range s.counts {
		est, _ := s.Estimate(v)
		all = append(all, workload.ValueCount{Value: v, Count: est})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Value < all[j].Value
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// Summary is the unit a source-side stage ships to the merger: the top-n
// estimates of one sub-stream at one flush point. Summaries are cumulative:
// each covers the sub-stream from its beginning, so a newer summary from the
// same source supersedes the older one (the merger keeps the latest).
type Summary struct {
	// SourceInstance identifies the sub-stream.
	SourceInstance int
	// Entries are the top-n (value, estimate) pairs.
	Entries []workload.ValueCount
	// Span is how many stream values the summary covers.
	Span uint64
}

// WireSize returns the bytes a summary occupies on the network, modeling
// the paper's per-entry serialization overhead.
func (sm *Summary) WireSize(bytesPerEntry int) int {
	return len(sm.Entries)*bytesPerEntry + 32
}

// String renders a short description.
func (sm *Summary) String() string {
	return fmt.Sprintf("summary{src=%d, entries=%d, span=%d}", sm.SourceInstance, len(sm.Entries), sm.Span)
}

// Merger accumulates per-source summaries (or raw values) into the global
// estimate the central stage answers queries from.
type Merger struct {
	latest map[int]*Summary // per source instance, the newest summary
	raw    map[int]float64  // totals from raw values (centralized path)
}

// NewMerger returns an empty merger.
func NewMerger() *Merger {
	return &Merger{latest: make(map[int]*Summary), raw: make(map[int]float64)}
}

// AddSummary installs one source's newest cumulative summary, superseding
// any earlier summary from the same source.
func (m *Merger) AddSummary(sm *Summary) {
	if prev, ok := m.latest[sm.SourceInstance]; ok && prev.Span > sm.Span {
		return // stale out-of-order summary
	}
	m.latest[sm.SourceInstance] = sm
}

// AddRaw folds a raw value (the centralized version's path).
func (m *Merger) AddRaw(v int) { m.raw[v]++ }

// totals sums the latest per-source summaries and the raw counts.
func (m *Merger) totals() map[int]float64 {
	out := make(map[int]float64, len(m.raw))
	for v, c := range m.raw {
		out[v] = c
	}
	for _, sm := range m.latest {
		for _, e := range sm.Entries {
			out[e.Value] += e.Count
		}
	}
	return out
}

// TopK returns the current global top-k, descending, ties broken by smaller
// value.
func (m *Merger) TopK(k int) []workload.ValueCount {
	totals := m.totals()
	all := make([]workload.ValueCount, 0, len(totals))
	for v, c := range totals {
		all = append(all, workload.ValueCount{Value: v, Count: c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Value < all[j].Value
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// Distinct returns how many values the merger currently tracks.
func (m *Merger) Distinct() int { return len(m.totals()) }

// Sources returns how many sub-streams have delivered at least one summary.
func (m *Merger) Sources() int { return len(m.latest) }

// TotalSpan returns the number of stream values covered by the latest
// summaries across all sources — the cumulative span of a merged relay.
func (m *Merger) TotalSpan() uint64 {
	var total uint64
	for _, sm := range m.latest {
		total += sm.Span
	}
	return total
}
