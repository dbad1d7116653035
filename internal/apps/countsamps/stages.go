package countsamps

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/pipeline"
	"github.com/gates-middleware/gates/internal/workload"
)

// CostModel carries the per-item costs and wire sizes of the count-samps
// application. The defaults are calibrated to the paper's Figure 5 (see
// DESIGN.md): its 257.5 s centralized run over 100,000 items implies
// ≈2.6 ms of JVM-era processing per raw item at the central node, and its
// 180.8 s distributed run implies ≈7.2 ms per item of summary maintenance at
// each source; the heavyweight per-item wire size models the middleware's
// per-message serialization envelope.
type CostModel struct {
	// CentralPerItem is the central node's cost to count one raw item.
	CentralPerItem time.Duration
	// SummaryPerItem is a source node's cost to feed one item through its
	// counting-samples sketch.
	SummaryPerItem time.Duration
	// MergePerEntry is the central node's cost to fold one summary entry.
	MergePerEntry time.Duration
	// ItemWireSize is the bytes one raw integer occupies on a link.
	ItemWireSize int
	// EntryWireSize is the bytes one summary entry occupies on a link.
	EntryWireSize int
}

// DefaultCostModel returns the Figure 5 calibration.
func DefaultCostModel() CostModel {
	return CostModel{
		CentralPerItem: 2570 * time.Microsecond,
		SummaryPerItem: 7200 * time.Microsecond,
		MergePerEntry:  100 * time.Microsecond,
		ItemWireSize:   256,
		EntryWireSize:  100,
	}
}

// StreamSource emits a fixed integer sub-stream in batches — one deployed
// instance per stream origin.
type StreamSource struct {
	// Values is the sub-stream.
	Values []int
	// Batch is how many items ride in one packet (default 25).
	Batch int
	// ItemWireSize sizes each item on the wire.
	ItemWireSize int
	// PerItemCost, when non-zero, charges generation cost per item.
	PerItemCost time.Duration
}

// Run implements pipeline.Source.
func (s *StreamSource) Run(ctx *pipeline.Context, out *pipeline.Emitter) error {
	batch := s.Batch
	if batch < 1 {
		batch = 25
	}
	for start := 0; start < len(s.Values); start += batch {
		end := start + batch
		if end > len(s.Values) {
			end = len(s.Values)
		}
		chunk := s.Values[start:end]
		if s.PerItemCost > 0 {
			ctx.ChargeCompute(time.Duration(len(chunk)) * s.PerItemCost)
		}
		pkt := pipeline.NewPacket(chunk, len(chunk), len(chunk)*s.ItemWireSize)
		if err := out.Emit(pkt); err != nil {
			return err
		}
	}
	return nil
}

// SummarizerConfig configures one source-side summarizing stage.
type SummarizerConfig struct {
	// Cost is the application cost model.
	Cost CostModel
	// FlushEvery emits a summary after this many items (default 1000),
	// so the central node can answer "at any given time" queries.
	FlushEvery int
	// SummarySize is the fixed n: how many frequent values to maintain
	// and forward. Ignored when Adaptive.
	SummarySize int
	// Adaptive exposes n as a middleware adjustment parameter instead.
	Adaptive bool
	// AdaptiveSpec bounds the adaptive parameter. Zero value selects the
	// paper's range: initial 100, min 10, max 240, step 2.
	AdaptiveSpec adapt.ParamSpec
	// Seed makes the sketch reproducible.
	Seed int64
}

func (c *SummarizerConfig) fill() {
	if c.FlushEvery == 0 {
		c.FlushEvery = 1000
	}
	if c.SummarySize == 0 {
		c.SummarySize = 100
	}
	if c.Adaptive && c.AdaptiveSpec.Name == "" {
		c.AdaptiveSpec = adapt.ParamSpec{
			Name:      "summary-size",
			Initial:   100,
			Min:       10,
			Max:       240,
			Step:      2,
			Direction: adapt.IncreaseSlowsProcessing,
		}
	}
}

// Summarizer is the distributed version's first stage: it maintains a
// counting-samples sketch over its sub-stream and periodically forwards the
// top-n entries. n is the adjustment parameter the middleware tunes in the
// adaptive version.
type Summarizer struct {
	cfg    SummarizerConfig
	sketch *Sketch
	param  *adapt.Param
	since  int
}

// NewSummarizer returns a summarizer stage processor.
func NewSummarizer(cfg SummarizerConfig) *Summarizer {
	cfg.fill()
	return &Summarizer{cfg: cfg}
}

// Init implements pipeline.Processor: it creates the sketch and, in
// adaptive mode, exposes the summary-size parameter.
func (s *Summarizer) Init(ctx *pipeline.Context) error {
	n := s.cfg.SummarySize
	if s.cfg.Adaptive {
		p, err := ctx.SpecifyParam(s.cfg.AdaptiveSpec)
		if err != nil {
			return err
		}
		s.param = p
		n = int(p.Value())
	}
	s.sketch = NewSketch(n, s.cfg.Seed+int64(ctx.Instance())*7919)
	return nil
}

// size returns the current summary size n (the suggested value in adaptive
// mode).
func (s *Summarizer) size() int {
	if s.param != nil {
		return int(s.param.Value())
	}
	return s.cfg.SummarySize
}

// Process implements pipeline.Processor.
func (s *Summarizer) Process(ctx *pipeline.Context, pkt *pipeline.Packet, out *pipeline.Emitter) error {
	chunk, ok := pkt.Value.([]int)
	if !ok {
		return fmt.Errorf("countsamps: summarizer got %T, want []int", pkt.Value)
	}
	if n := s.size(); n != s.sketch.Footprint() {
		s.sketch.SetFootprint(n)
	}
	for _, v := range chunk {
		s.sketch.Observe(v)
		s.since++
		if s.since >= s.cfg.FlushEvery {
			if err := s.flush(ctx, out); err != nil {
				return err
			}
		}
	}
	ctx.ChargeCompute(time.Duration(len(chunk)) * s.cfg.Cost.SummaryPerItem)
	return nil
}

// Finish flushes the final summary.
func (s *Summarizer) Finish(ctx *pipeline.Context, out *pipeline.Emitter) error {
	return s.flush(ctx, out)
}

func (s *Summarizer) flush(ctx *pipeline.Context, out *pipeline.Emitter) error {
	s.since = 0
	sm := &Summary{
		SourceInstance: ctx.Instance(),
		Entries:        s.sketch.TopK(s.size()),
		Span:           s.sketch.Observed(),
	}
	return out.Emit(pipeline.NewPacket(sm, len(sm.Entries), sm.WireSize(s.cfg.Cost.EntryWireSize)))
}

// summarizerWire is the Summarizer's serialized migration state. The
// adjustment parameter is not part of it: the parameter object lives with
// the stage's adaptation controller, which survives a migration in place.
type summarizerWire struct {
	Since  int             `json:"since"`
	Sketch json.RawMessage `json:"sketch"`
}

// Snapshot implements pipeline.Snapshotter: it captures the sketch
// (including its RNG position) and the flush countdown, so a migrated
// summarizer continues producing the exact summaries an unmoved one would.
func (s *Summarizer) Snapshot() ([]byte, error) {
	if s.sketch == nil {
		return nil, fmt.Errorf("countsamps: summarizer snapshot before Init")
	}
	sk, err := s.sketch.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return json.Marshal(summarizerWire{Since: s.since, Sketch: sk})
}

// Restore implements pipeline.Snapshotter. A blob it refuses (see
// Sketch.UnmarshalBinary; a negative flush countdown too) leaves the
// summarizer unchanged.
func (s *Summarizer) Restore(data []byte) error {
	var w summarizerWire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("countsamps: restore summarizer: %w", err)
	}
	if w.Since < 0 {
		return fmt.Errorf("countsamps: restore summarizer: negative flush countdown %d", w.Since)
	}
	sk := new(Sketch)
	if err := sk.UnmarshalBinary(w.Sketch); err != nil {
		return err
	}
	s.sketch, s.since = sk, w.Since
	return nil
}

// RawCounter is the centralized version's analysis stage: one
// counting-samples sketch over the union stream, fed with raw items.
type RawCounter struct {
	// Cost is the application cost model.
	Cost CostModel
	// Footprint is the central sketch's capacity (default 1000).
	Footprint int
	// Seed makes the sketch reproducible.
	Seed int64

	mu     sync.Mutex
	sketch *Sketch
}

// Init implements pipeline.Processor.
func (r *RawCounter) Init(*pipeline.Context) error {
	if r.Footprint == 0 {
		r.Footprint = 1000
	}
	r.mu.Lock()
	r.sketch = NewSketch(r.Footprint, r.Seed)
	r.mu.Unlock()
	return nil
}

// Process implements pipeline.Processor.
func (r *RawCounter) Process(ctx *pipeline.Context, pkt *pipeline.Packet, _ *pipeline.Emitter) error {
	chunk, ok := pkt.Value.([]int)
	if !ok {
		return fmt.Errorf("countsamps: raw counter got %T, want []int", pkt.Value)
	}
	r.mu.Lock()
	for _, v := range chunk {
		r.sketch.Observe(v)
	}
	r.mu.Unlock()
	ctx.ChargeCompute(time.Duration(len(chunk)) * r.Cost.CentralPerItem)
	return nil
}

// Finish implements pipeline.Processor.
func (r *RawCounter) Finish(*pipeline.Context, *pipeline.Emitter) error { return nil }

// TopK answers the continuous query from the central sketch.
func (r *RawCounter) TopK(k int) []workload.ValueCount {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sketch == nil {
		return nil
	}
	return r.sketch.TopK(k)
}

// SummaryMerger folds the newest summary from each upstream into a running
// estimate. As the final stage it answers the top-k query; configured with
// RelayTopN it also works as an intermediate (regional) stage — the paper's
// "more than two stages" case — re-emitting its merged top-N upward so that
// one aggregated stream crosses the wide-area link instead of one stream
// per source.
type SummaryMerger struct {
	// Cost is the application cost model.
	Cost CostModel
	// RelayTopN, when positive, re-emits the merged top-N as a new
	// cumulative summary (making this an intermediate stage).
	RelayTopN int
	// RelayEvery batches relays: one upward summary per this many
	// received summaries (default: every receipt).
	RelayEvery int

	mu       sync.Mutex
	merger   *Merger
	received int
}

// Init implements pipeline.Processor.
func (m *SummaryMerger) Init(*pipeline.Context) error {
	m.mu.Lock()
	m.merger = NewMerger()
	m.mu.Unlock()
	return nil
}

// Process implements pipeline.Processor.
func (m *SummaryMerger) Process(ctx *pipeline.Context, pkt *pipeline.Packet, out *pipeline.Emitter) error {
	sm, ok := pkt.Value.(*Summary)
	if !ok {
		return fmt.Errorf("countsamps: merger got %T, want *Summary", pkt.Value)
	}
	m.mu.Lock()
	m.merger.AddSummary(sm)
	m.received++
	relay := m.relayDue()
	m.mu.Unlock()
	ctx.ChargeCompute(time.Duration(len(sm.Entries)) * m.Cost.MergePerEntry)
	if relay {
		return m.relay(ctx, out)
	}
	return nil
}

// Finish implements pipeline.Processor: an intermediate merger flushes its
// final aggregate upward.
func (m *SummaryMerger) Finish(ctx *pipeline.Context, out *pipeline.Emitter) error {
	if m.RelayTopN <= 0 {
		return nil
	}
	return m.relay(ctx, out)
}

func (m *SummaryMerger) relayDue() bool {
	if m.RelayTopN <= 0 {
		return false
	}
	every := m.RelayEvery
	if every < 1 {
		every = 1
	}
	return m.received%every == 0
}

// relay re-emits the merged top-N as a cumulative summary whose span is the
// total coverage of this merger's region, so the global merger's
// latest-wins rule applies across relays.
func (m *SummaryMerger) relay(ctx *pipeline.Context, out *pipeline.Emitter) error {
	m.mu.Lock()
	sm := &Summary{
		SourceInstance: ctx.Instance(),
		Entries:        m.merger.TopK(m.RelayTopN),
		Span:           m.merger.TotalSpan(),
	}
	m.mu.Unlock()
	return out.Emit(pipeline.NewPacket(sm, len(sm.Entries), sm.WireSize(m.Cost.EntryWireSize)))
}

// TopK answers the continuous query from the merged summaries.
func (m *SummaryMerger) TopK(k int) []workload.ValueCount {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.merger == nil {
		return nil
	}
	return m.merger.TopK(k)
}

// Sources reports how many sub-streams have delivered summaries.
func (m *SummaryMerger) Sources() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.merger == nil {
		return 0
	}
	return m.merger.Sources()
}
