// Package metrics implements the evaluation's measurement machinery:
// the count-samps accuracy score (top-k membership plus frequency fidelity,
// the paper's "how often the top 10 most frequently occurring elements were
// correctly reported, and how correctly their frequency of occurrence was
// reported") and thread-safe time series for the Figure 8/9 parameter
// convergence traces.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/gates-middleware/gates/internal/workload"
)

// Accuracy is the two-part count-samps score, each component in [0, 1].
type Accuracy struct {
	// Membership is the fraction of the true top-k present in the
	// reported top-k.
	Membership float64
	// Frequency is the mean frequency fidelity over the true top-k:
	// 1 − |est−true|/true per value, 0 for missing values, floored at 0.
	Frequency float64
}

// Score is the combined percentage the paper's Figure 5/7 style tables
// report: the mean of membership and frequency fidelity, scaled to 0–100.
func (a Accuracy) Score() float64 {
	return 100 * (a.Membership + a.Frequency) / 2
}

// String formats the accuracy like the paper's tables.
func (a Accuracy) String() string {
	return fmt.Sprintf("%.1f (membership %.2f, frequency %.2f)", a.Score(), a.Membership, a.Frequency)
}

// TopKAccuracy compares a reported top-k against ground-truth counts.
func TopKAccuracy(trueCounts map[int]int, reported []workload.ValueCount, k int) Accuracy {
	trueTop := workload.TopK(trueCounts, k)
	if len(trueTop) == 0 {
		return Accuracy{Membership: 1, Frequency: 1}
	}
	rep := make(map[int]float64, len(reported))
	n := k
	if n > len(reported) {
		n = len(reported)
	}
	for _, vc := range reported[:n] {
		rep[vc.Value] = vc.Count
	}
	var hits int
	var freq float64
	for _, tv := range trueTop {
		est, ok := rep[tv.Value]
		if !ok {
			continue
		}
		hits++
		diff := est - tv.Count
		if diff < 0 {
			diff = -diff
		}
		f := 1 - diff/tv.Count
		if f < 0 {
			f = 0
		}
		freq += f
	}
	return Accuracy{
		Membership: float64(hits) / float64(len(trueTop)),
		Frequency:  freq / float64(len(trueTop)),
	}
}

// Point is one sample of a time series, with T relative to the series
// epoch.
type Point struct {
	T time.Duration
	V float64
}

// TimeSeries records (virtual time, value) samples. It is safe for
// concurrent appends, which hooks on different engines' adaptation loops
// may perform.
type TimeSeries struct {
	mu     sync.Mutex
	epoch  time.Time
	hasE   bool
	points []Point
}

// NewTimeSeries returns a series whose first Record sets the epoch.
func NewTimeSeries() *TimeSeries { return &TimeSeries{} }

// NewTimeSeriesAt returns a series with an explicit epoch.
func NewTimeSeriesAt(epoch time.Time) *TimeSeries {
	return &TimeSeries{epoch: epoch, hasE: true}
}

// Record appends a sample taken at the given absolute (virtual) time.
func (s *TimeSeries) Record(at time.Time, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hasE {
		s.epoch = at
		s.hasE = true
	}
	s.points = append(s.points, Point{T: at.Sub(s.epoch), V: v})
}

// Len returns the number of recorded samples.
func (s *TimeSeries) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.points)
}

// Points returns a copy of the recorded samples in record order.
func (s *TimeSeries) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, len(s.points))
	copy(out, s.points)
	return out
}

// Last returns the most recent sample and true, or a zero Point and false
// when empty.
func (s *TimeSeries) Last() (Point, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.points) == 0 {
		return Point{}, false
	}
	return s.points[len(s.points)-1], true
}

// TailMean averages the last fraction (0,1] of samples — the "value the
// parameter converged to" statistic used when checking Figures 8 and 9.
func (s *TimeSeries) TailMean(fraction float64) float64 {
	if fraction <= 0 || fraction > 1 {
		panic("metrics: TailMean fraction must be in (0,1]")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.points) == 0 {
		return 0
	}
	start := int(float64(len(s.points)) * (1 - fraction))
	if start >= len(s.points) {
		start = len(s.points) - 1
	}
	var sum float64
	for _, p := range s.points[start:] {
		sum += p.V
	}
	return sum / float64(len(s.points)-start)
}

// WindowMean averages the samples with T in [from, to]. It returns 0 when
// the window holds no samples. Convergence experiments use it to read the
// settled parameter value over a mid-run window, excluding the end-of-stream
// drain during which a finite stream legitimately relaxes the parameter.
func (s *TimeSeries) WindowMean(from, to time.Duration) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum float64
	n := 0
	for _, p := range s.points {
		if p.T >= from && p.T <= to {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Downsample returns at most n points evenly spaced across the series — for
// rendering a convergence plot as a compact table.
func (s *TimeSeries) Downsample(n int) []Point {
	if n < 1 {
		panic("metrics: Downsample needs n >= 1")
	}
	pts := s.Points()
	if len(pts) <= n {
		return pts
	}
	out := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(pts) - 1) / (n - 1)
		out = append(out, pts[idx])
	}
	return out
}

// At returns the value in effect at elapsed time t (the latest sample at or
// before t), and false when t precedes the first sample.
func (s *TimeSeries) At(t time.Duration) (float64, bool) {
	pts := s.Points()
	i := sort.Search(len(pts), func(i int) bool { return pts[i].T > t })
	if i == 0 {
		return 0, false
	}
	return pts[i-1].V, true
}
