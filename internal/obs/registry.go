package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/gates-middleware/gates/internal/clock"
)

// Kind discriminates metric families.
type Kind int

const (
	// KindCounter is a monotonically non-decreasing cumulative count.
	KindCounter Kind = iota
	// KindGauge is an instantaneous value that may move either way.
	KindGauge
	// KindHistogram is a bucketed distribution with sum and count.
	KindHistogram
)

// String returns the Prometheus TYPE name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Registry is the process-wide metric store every layer publishes into.
// Instruments come in two flavors: owned (Counter/Gauge/Histogram, updated
// on the hot path with atomic operations) and callback (CounterFunc /
// GaugeFunc, evaluated only at scrape time — zero hot-path cost, which is
// how existing per-component counters like queue.Stats are exposed without
// double-counting every increment).
//
// Registration is idempotent: asking for an existing (name, labels) series
// returns the live instrument, and re-registering a callback replaces the
// function — exactly what a restarted stage needs so its fresh counters
// take over the series. Registering the same name with a different Kind
// panics, since that is always a programming error.
type Registry struct {
	clk clock.Clock

	mu       sync.RWMutex
	families map[string]*family
}

type family struct {
	name, help string
	kind       Kind

	mu     sync.Mutex
	series map[string]*series
}

type series struct {
	labels  []labelPair
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fnMu    sync.Mutex
	fn      func() float64
}

type labelPair struct{ name, value string }

func (s *series) value() float64 {
	switch {
	case s.counter != nil:
		return s.counter.Value()
	case s.gauge != nil:
		return s.gauge.Value()
	default:
		s.fnMu.Lock()
		fn := s.fn
		s.fnMu.Unlock()
		if fn == nil {
			return 0
		}
		return fn()
	}
}

// NewRegistry returns an empty registry on clk; the clock timestamps
// snapshots.
func NewRegistry(clk clock.Clock) *Registry {
	if clk == nil {
		panic("obs: NewRegistry requires a clock")
	}
	return &Registry{clk: clk, families: make(map[string]*family)}
}

// Clock returns the registry's time base.
func (r *Registry) Clock() clock.Clock { return r.clk }

func (r *Registry) familyFor(name, help string, kind Kind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, f.kind))
	}
	return f
}

// canonical returns the series key of a label set plus its pairs sorted by
// name. Names and values are quoted, so no value — a remote node's
// included — can make two distinct label sets share one key.
func canonical(labels map[string]string) (string, []labelPair) {
	if len(labels) == 0 {
		return "", nil
	}
	pairs := make([]labelPair, 0, len(labels))
	for k, v := range labels {
		pairs = append(pairs, labelPair{k, v})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].name < pairs[j].name })
	var b []byte
	for _, p := range pairs {
		b = strconv.AppendQuote(b, p.name)
		b = append(b, '=')
		b = strconv.AppendQuote(b, p.value)
		b = append(b, ',')
	}
	return string(b), pairs
}

// Counter registers (or retrieves) an owned counter series.
func (r *Registry) Counter(name, help string, labels map[string]string) *Counter {
	f := r.familyFor(name, help, KindCounter)
	key, pairs := canonical(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok && s.counter != nil {
		return s.counter
	}
	c := &Counter{}
	f.series[key] = &series{labels: pairs, counter: c}
	return c
}

// CounterFunc registers a counter series whose value is fn(), evaluated at
// scrape time. Re-registering an existing series replaces fn.
func (r *Registry) CounterFunc(name, help string, labels map[string]string, fn func() float64) {
	r.registerFunc(name, help, KindCounter, labels, fn)
}

// Gauge registers (or retrieves) an owned gauge series.
func (r *Registry) Gauge(name, help string, labels map[string]string) *Gauge {
	f := r.familyFor(name, help, KindGauge)
	key, pairs := canonical(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok && s.gauge != nil {
		return s.gauge
	}
	g := &Gauge{}
	f.series[key] = &series{labels: pairs, gauge: g}
	return g
}

// GaugeFunc registers a gauge series whose value is fn(), evaluated at
// scrape time. Re-registering an existing series replaces fn.
func (r *Registry) GaugeFunc(name, help string, labels map[string]string, fn func() float64) {
	r.registerFunc(name, help, KindGauge, labels, fn)
}

func (r *Registry) registerFunc(name, help string, kind Kind, labels map[string]string, fn func() float64) {
	f := r.familyFor(name, help, kind)
	key, pairs := canonical(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		s.fnMu.Lock()
		s.fn = fn
		s.fnMu.Unlock()
		return
	}
	f.series[key] = &series{labels: pairs, fn: fn}
}

// DefBuckets is the default histogram bucketing: virtual-second latencies
// from 100µs to ~100s in powers of ~4.6.
var DefBuckets = []float64{1e-4, 5e-4, 1e-3, 5e-3, 2.5e-2, 1e-1, 5e-1, 2.5, 10, 100}

// Histogram registers (or retrieves) a histogram series. Nil buckets select
// DefBuckets; bounds must be strictly increasing.
func (r *Registry) Histogram(name, help string, buckets []float64, labels map[string]string) *Histogram {
	f := r.familyFor(name, help, KindHistogram)
	key, pairs := canonical(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok && s.hist != nil {
		return s.hist
	}
	h := newHistogram(buckets)
	f.series[key] = &series{labels: pairs, hist: h}
	return h
}

// JSONFloat is a float64 that survives JSON encoding when non-finite:
// NaN and ±Inf — legal metric values (a d̃ gauge before its first
// observation, every histogram's +Inf bucket bound) — marshal as the
// strings "NaN", "+Inf", and "-Inf" instead of aborting the encoder.
type JSONFloat float64

// MarshalJSON implements json.Marshaler.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler, accepting both numbers and the
// non-finite string forms MarshalJSON produces.
func (f *JSONFloat) UnmarshalJSON(b []byte) error {
	var v float64
	if err := json.Unmarshal(b, &v); err == nil {
		*f = JSONFloat(v)
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "NaN":
		*f = JSONFloat(math.NaN())
	case "+Inf", "Inf":
		*f = JSONFloat(math.Inf(1))
	case "-Inf":
		*f = JSONFloat(math.Inf(-1))
	default:
		return fmt.Errorf("obs: invalid float %q", s)
	}
	return nil
}

// BucketCount is one cumulative histogram bucket in a snapshot.
type BucketCount struct {
	// UpperBound is the bucket's inclusive upper bound (+Inf last).
	UpperBound JSONFloat `json:"le"`
	// Count is the cumulative observation count at or below UpperBound.
	Count uint64 `json:"count"`
}

// MetricPoint is one series in a JSON snapshot.
type MetricPoint struct {
	Name    string            `json:"name"`
	Kind    string            `json:"kind"`
	Labels  map[string]string `json:"labels,omitempty"`
	Value   JSONFloat         `json:"value"`
	Sum     JSONFloat         `json:"sum,omitempty"`
	Buckets []BucketCount     `json:"buckets,omitempty"`
	// Quantiles carries interpolated percentiles (p50/p95/p99) for
	// histogram series, so snapshot consumers need not re-derive them.
	Quantiles map[string]JSONFloat `json:"quantiles,omitempty"`
}

// pointQuantiles derives the exposition percentiles from cumulative
// buckets; nil for empty histograms.
func pointQuantiles(buckets []BucketCount, count uint64) map[string]JSONFloat {
	if count == 0 {
		return nil
	}
	out := make(map[string]JSONFloat, len(quantilePoints))
	for _, qp := range quantilePoints {
		out[qp.Key] = JSONFloat(QuantileFromBuckets(buckets, count, qp.Q))
	}
	return out
}

// Snapshot evaluates every series (including callbacks) and returns them
// sorted by name then label key — the JSON face of the registry.
func (r *Registry) Snapshot() []MetricPoint {
	var out []MetricPoint
	for _, f := range r.sortedFamilies() {
		for _, key := range f.sortedKeys() {
			f.mu.Lock()
			s := f.series[key]
			f.mu.Unlock()
			if s == nil {
				continue
			}
			p := MetricPoint{Name: f.name, Kind: f.kind.String()}
			if len(s.labels) > 0 {
				p.Labels = make(map[string]string, len(s.labels))
				for _, lp := range s.labels {
					p.Labels[lp.name] = lp.value
				}
			}
			if s.hist != nil {
				sum, count, buckets := s.hist.State()
				p.Value = JSONFloat(count)
				p.Sum = JSONFloat(sum)
				p.Buckets = buckets
				p.Quantiles = pointQuantiles(buckets, count)
			} else {
				p.Value = JSONFloat(s.value())
			}
			out = append(out, p)
		}
	}
	return out
}

func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func (f *family) sortedKeys() []string {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	f.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): HELP and TYPE lines per family, one sample line
// per series, histogram expanded to _bucket/_sum/_count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, key := range f.sortedKeys() {
			f.mu.Lock()
			s := f.series[key]
			f.mu.Unlock()
			if s == nil {
				continue
			}
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	if s.hist == nil {
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, formatLabels(s.labels, "", 0), formatValue(s.value()))
		return err
	}
	sum, count, buckets := s.hist.State()
	for _, b := range buckets {
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, formatLabels(s.labels, "le", float64(b.UpperBound)), b.Count); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, formatLabels(s.labels, "", 0), formatValue(sum)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, formatLabels(s.labels, "", 0), count); err != nil {
		return err
	}
	// Interpolated percentiles ride along as plain samples so a curl of
	// /metrics answers "what is the p99" without a query engine.
	for _, qp := range quantilePoints {
		v := QuantileFromBuckets(buckets, count, qp.Q)
		if _, err := fmt.Fprintf(w, "%s_%s%s %s\n", f.name, qp.Key, formatLabels(s.labels, "", 0), formatValue(v)); err != nil {
			return err
		}
	}
	return nil
}

func formatLabels(pairs []labelPair, le string, bound float64) string {
	if len(pairs) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q covers the exposition format's escaping rules (backslash,
		// quote, newline).
		fmt.Fprintf(&b, "%s=%q", p.name, p.value)
	}
	if le != "" {
		if len(pairs) > 0 {
			b.WriteByte(',')
		}
		if math.IsInf(bound, +1) {
			b.WriteString(`le="+Inf"`)
		} else {
			fmt.Fprintf(&b, "le=%q", formatValue(bound))
		}
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return fmt.Sprintf("%g", v)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Counter is a monotonically non-decreasing metric. The zero value is
// usable; all methods are safe for concurrent use.
type Counter struct{ bits atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v; negative v is ignored (counters never go
// down).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an instantaneous value. The zero value is usable; all methods
// are safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add moves the gauge by v (negative moves it down).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Observations are atomic; State
// assembles a consistent-enough snapshot for exposition (counts may trail
// sum by in-flight observations, as in every lock-free histogram).
type Histogram struct {
	bounds  []float64 // strictly increasing upper bounds; +Inf is implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64

	// nsBounds are the bounds in integer nanoseconds (saturating), and
	// lut[(len<<3)|sub] is the first bucket a duration can land in given
	// its binary magnitude (bits.Len64) plus the three bits below the
	// leading one — 8 sub-cells per octave. A cell spans a ratio of 9/8 =
	// 1.125, below the ~1.155 growth of the latency buckets, so the
	// trailing linear scan almost never needs more than one step; the scan
	// remains for correctness with arbitrary (e.g. linear) bucket layouts.
	nsBounds []int64
	lut      [65 * 8]int16
}

func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram buckets must be strictly increasing")
		}
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	h.nsBounds = make([]int64, len(bounds))
	for i, b := range bounds {
		switch ns := b * 1e9; {
		case ns >= math.MaxInt64:
			h.nsBounds[i] = math.MaxInt64
		case ns <= math.MinInt64:
			h.nsBounds[i] = math.MinInt64
		default:
			h.nsBounds[i] = int64(math.Floor(ns))
		}
	}
	for l := 1; l <= 64; l++ {
		for k := 0; k < 8; k++ {
			// Lowest duration that maps to cell (l, k); octaves shorter
			// than the 3 sub-bits collapse onto their octave floor.
			cellLo := uint64(1) << (l - 1)
			if l > 3 {
				cellLo = uint64(8|k) << (l - 4)
			}
			i := sort.Search(len(h.nsBounds), func(i int) bool {
				b := h.nsBounds[i]
				return b > 0 && uint64(b) >= cellLo
			})
			h.lut[l<<3|k] = int16(i)
		}
	}
	return h
}

// bucketIndexNS returns the bucket a duration of ns nanoseconds lands in,
// matching Observe's "first bound >= value" convention.
func (h *Histogram) bucketIndexNS(ns int64) int {
	nb := h.nsBounds
	if len(nb) == 0 || ns <= nb[0] {
		return 0
	}
	if ns > nb[len(nb)-1] {
		return len(nb) // the implicit +Inf bucket
	}
	if ns <= 0 {
		// Negative-bound buckets; off the hot path.
		for i, b := range nb {
			if b >= ns {
				return i
			}
		}
		return len(nb)
	}
	u := uint64(ns)
	l := bits.Len64(u)
	k := 0
	if l > 3 {
		k = int(u>>(l-4)) & 7
	}
	i := int(h.lut[l<<3|k])
	for nb[i] < ns {
		i++
	}
	return i
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.addSum(v)
}

func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Scratch is a goroutine-local observation buffer over one histogram.
// Per-packet hot loops cannot afford the shared histogram's atomics, so a
// stage buckets every observation here — an integer subtract, two compares
// on the previous one's bucket or else a table lookup and a bounded scan, no
// atomics — and Flush folds the accumulated counts into the histogram with
// one atomic add per *touched* bucket per batch. Every observation is still
// recorded individually; only the cross-goroutine hand-off is coalesced. Not
// safe for concurrent use: one Scratch belongs to one goroutine.
type Scratch struct {
	h       *Histogram
	counts  []uint32
	touched []int32
	sumNS   int64
	// The last bucket bucketIndexNS named: durations in (lo, hi] land in at,
	// as nearly all of a run's do. The zero value matches nothing.
	lo, hi int64
	at     int
}

// Scratch returns a new observation buffer feeding this histogram.
func (h *Histogram) Scratch() *Scratch {
	return &Scratch{h: h, counts: make([]uint32, len(h.bounds)+1)}
}

// ObserveNS records a duration in nanoseconds.
func (s *Scratch) ObserveNS(ns int64) {
	s.observeAt(s.index(ns), ns)
}

// index is bucketIndexNS behind the one-entry memo.
func (s *Scratch) index(ns int64) int {
	if ns > s.lo && ns <= s.hi {
		return s.at
	}
	s.at = s.h.bucketIndexNS(ns)
	s.lo, s.hi = math.MinInt64, math.MaxInt64
	if s.at > 0 {
		s.lo = s.h.nsBounds[s.at-1]
	}
	if s.at < len(s.h.nsBounds) {
		s.hi = s.h.nsBounds[s.at]
	}
	return s.at
}

func (s *Scratch) observeAt(i int, ns int64) {
	if s.counts[i] == 0 {
		s.touched = append(s.touched, int32(i))
	}
	s.counts[i]++
	s.sumNS += ns
}

// ObserveNSBoth records one duration into both scratches, bucketing it
// once. Valid only when both scratches' histograms share identical bounds
// — as a stage's hop/e2e latency pair does — where the first hop past a
// source observes the same value twice.
func ObserveNSBoth(a, b *Scratch, ns int64) {
	i := a.index(ns)
	a.observeAt(i, ns)
	b.observeAt(i, ns)
}

// Flush publishes the buffered observations into the shared histogram.
func (s *Scratch) Flush() {
	if len(s.touched) == 0 {
		return
	}
	for _, i := range s.touched {
		s.h.counts[i].Add(uint64(s.counts[i]))
		s.counts[i] = 0
	}
	s.touched = s.touched[:0]
	s.h.addSum(float64(s.sumNS) * 1e-9)
	s.sumNS = 0
}

// State returns the sum, total count, and cumulative buckets (ending with
// the +Inf bucket).
func (h *Histogram) State() (sum float64, count uint64, buckets []BucketCount) {
	buckets = make([]BucketCount, len(h.bounds)+1)
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		bound := math.Inf(+1)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		buckets[i] = BucketCount{UpperBound: JSONFloat(bound), Count: cum}
	}
	return math.Float64frombits(h.sumBits.Load()), cum, buckets
}
