package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Metric names shared between the publishing side (internal/pipeline) and
// the consuming side (the SLO detector and cluster aggregator). They live
// here because obs is the layer both sides already import.
const (
	// MetricE2ELatency is the source-to-here latency histogram every
	// stage records per consumed packet, in virtual seconds since the
	// packet's lineage was born at a source stage.
	MetricE2ELatency = "gates_stage_e2e_latency_seconds"
	// MetricHopLatency is the per-stage latency histogram: virtual time
	// from a packet's emission upstream to its consumption here (queue
	// wait plus link transfer).
	MetricHopLatency = "gates_stage_hop_latency_seconds"
	// MetricFanout is the number of downstream edges of a stage
	// instance; 0 identifies a sink, where e2e latency is the paper's
	// real-time constraint.
	MetricFanout = "gates_stage_fanout"
	// MetricDTilde is the adaptation controller's smoothed queue-growth
	// rate; positive across consecutive epochs means the stage is
	// falling behind its arrival rate.
	MetricDTilde = "gates_d_tilde"
)

// DefaultSLOGrowthEpochs is how many consecutive evaluations a stage's
// d-tilde must stay positive before the detector flags queue growth.
const DefaultSLOGrowthEpochs = 3

// SLOConfig tunes the violation detector: the static way to hand it its
// objectives. Policy-driven deployments compile their policy document into
// one of these per evaluation through an SLOSource, so the numbers live in
// the (hot-reloadable) policy layer rather than here.
type SLOConfig struct {
	// TargetP99 is the sink-side end-to-end p99 latency objective in
	// virtual seconds; <= 0 disables the latency check.
	TargetP99 float64
	// GrowthEpochs is how many consecutive evaluations with d-tilde > 0
	// constitute "falling behind" (<= 0 selects
	// DefaultSLOGrowthEpochs).
	GrowthEpochs int
}

// SLOSource supplies the detector's current objectives plus the policy
// version they came from, consulted at every evaluation so a policy hot
// reload changes the very next verdict. The obs layer stays policy-agnostic:
// the policy engine provides this closure.
type SLOSource func() (SLOConfig, string)

// SLOStatus is the detector's verdict after one evaluation.
type SLOStatus struct {
	// Evaluated reports whether at least one evaluation has run.
	Evaluated bool `json:"evaluated"`
	// Violated is the flag: the pipeline is not meeting its real-time
	// constraint.
	Violated bool `json:"violated"`
	// Reasons lists the active violation causes, empty when healthy.
	Reasons []string `json:"reasons,omitempty"`
	// SinkP99 is the merged sink-side end-to-end p99 in virtual
	// seconds (0 until a sink has observations).
	SinkP99 JSONFloat `json:"sink_p99"`
	// TargetP99 echoes the configured objective (0 = latency check
	// disabled).
	TargetP99 JSONFloat `json:"target_p99,omitempty"`
	// MaxDTilde is the largest queue-growth rate seen this evaluation.
	MaxDTilde JSONFloat `json:"max_d_tilde"`
	// Since is the virtual time the current violation (or recovery)
	// began.
	Since time.Time `json:"since"`
}

// SLOMonitor turns the paper's §4 real-time constraint — "the processing
// can keep up with the arrival rate" — into a measurable objective. Each
// Evaluate inspects one metric snapshot (node-local or cluster-merged) and
// trips the violation flag when either signal says the pipeline is falling
// behind:
//
//   - the merged sink-side end-to-end p99 exceeds TargetP99, or
//   - some stage's d-tilde stays positive for GrowthEpochs consecutive
//     evaluations (queues growing without bound).
//
// With a journal attached, every evaluation is one slo event, so operators
// can see when the pipeline fell behind and when the adaptation controller
// recovered it. Safe for concurrent use: Evaluate serializes against itself
// and against Status, so a scrape (Status from an HTTP handler or gauge
// callback) can race an aggregator collect without tearing the status.
type SLOMonitor struct {
	cfg SLOConfig

	mu      sync.Mutex
	src     SLOSource      // nil = static cfg
	journal *Journal       // nil = verdicts not recorded
	growth  map[string]int // series key → consecutive positive epochs
	cur     SLOStatus
}

// NewSLOMonitor returns a detector with the given objectives.
func NewSLOMonitor(cfg SLOConfig) *SLOMonitor {
	if cfg.GrowthEpochs <= 0 {
		cfg.GrowthEpochs = DefaultSLOGrowthEpochs
	}
	return &SLOMonitor{cfg: cfg, growth: make(map[string]int)}
}

// SetSource installs the dynamic objective source the detector consults at
// every evaluation (a policy engine's SLO view). Nil reverts to the static
// SLOConfig the monitor was built with.
func (m *SLOMonitor) SetSource(src SLOSource) {
	m.mu.Lock()
	m.src = src
	m.mu.Unlock()
}

// SetJournal makes every evaluation record one slo event — the verdict,
// its evidence, and the policy version that produced the objectives — into
// j. A transition into violation also snapshots j to disk (see
// Journal.DumpToDisk). Nil stops the recording.
func (m *SLOMonitor) SetJournal(j *Journal) {
	m.mu.Lock()
	m.journal = j
	m.mu.Unlock()
}

// Evaluate runs one detection epoch over a metric snapshot and returns the
// updated status. now is the snapshot's virtual timestamp.
func (m *SLOMonitor) Evaluate(now time.Time, points []MetricPoint) SLOStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	cfg, version := m.cfg, ""
	if m.src != nil {
		cfg, version = m.src()
		if cfg.GrowthEpochs <= 0 {
			cfg.GrowthEpochs = DefaultSLOGrowthEpochs
		}
	}
	sinkP99 := SinkP99(points)

	var reasons []string
	rule := "within-objectives"
	if cfg.TargetP99 > 0 && sinkP99 > cfg.TargetP99 {
		reasons = append(reasons, fmt.Sprintf("sink p99 %.3gs exceeds target %.3gs", sinkP99, cfg.TargetP99))
		rule = "sink-p99"
	}

	maxDTilde, growing := m.trackGrowth(points, cfg.GrowthEpochs)
	if len(growing) > 0 {
		reasons = append(reasons, fmt.Sprintf("queue growth: d-tilde > 0 for %d+ epochs at %v", cfg.GrowthEpochs, growing))
		rule = "queue-growth"
		if len(reasons) > 1 {
			rule = "sink-p99+queue-growth"
		}
	}

	violated := len(reasons) > 0
	prev := m.cur
	m.cur = SLOStatus{
		Evaluated: true,
		Violated:  violated,
		Reasons:   reasons,
		SinkP99:   JSONFloat(sinkP99),
		TargetP99: JSONFloat(cfg.TargetP99),
		MaxDTilde: JSONFloat(maxDTilde),
		Since:     prev.Since,
	}
	transition := !prev.Evaluated || prev.Violated != violated
	if transition {
		m.cur.Since = now
	}
	if m.journal != nil {
		detail := "ok"
		if violated {
			detail = "violated: " + strings.Join(reasons, "; ")
		}
		m.journal.Record(Event{
			At:            now,
			Kind:          EventSLO,
			PolicyVersion: version,
			Detail:        detail,
			Payload: SLO{
				Rule:         rule,
				Violated:     violated,
				Transition:   transition,
				Reasons:      reasons,
				SinkP99:      JSONFloat(sinkP99),
				MaxDTilde:    JSONFloat(maxDTilde),
				TargetP99:    JSONFloat(cfg.TargetP99),
				GrowthEpochs: cfg.GrowthEpochs,
				Growing:      growing,
			},
		})
		if transition && violated {
			// Best-effort post-mortem snapshot; the journal remembers a
			// failed write in its JSON envelope.
			_, _ = m.journal.DumpToDisk("slo-violation")
		}
	}
	return m.cur
}

// trackGrowth updates the per-stage consecutive-positive-epoch counters
// and returns the max d-tilde plus the stages currently past the
// threshold. epochs is the currently effective GrowthEpochs objective
// (policy-resolved, so a hot reload tightens or loosens it mid-run).
func (m *SLOMonitor) trackGrowth(points []MetricPoint, epochs int) (maxDTilde float64, growing []string) {
	seen := make(map[string]bool)
	for _, p := range points {
		if p.Name != MetricDTilde {
			continue
		}
		key := p.Labels["stage"] + "/" + p.Labels["instance"] + "/" + p.Labels["node"]
		seen[key] = true
		v := float64(p.Value)
		if v > maxDTilde {
			maxDTilde = v
		}
		if v > 0 {
			m.growth[key]++
			if m.growth[key] >= epochs {
				growing = append(growing, p.Labels["stage"])
			}
		} else {
			m.growth[key] = 0
		}
	}
	// Series that vanished (stage stopped or migrated away) stop counting.
	for key := range m.growth {
		if !seen[key] {
			delete(m.growth, key)
		}
	}
	return maxDTilde, growing
}

// Status returns the result of the last evaluation.
func (m *SLOMonitor) Status() SLOStatus {
	if m == nil {
		return SLOStatus{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur
}

// SinkStages returns the set of stage names whose fanout gauge reads 0 —
// the pipeline's sinks, where end-to-end latency is judged.
func SinkStages(points []MetricPoint) map[string]bool {
	sinks := make(map[string]bool)
	for _, p := range points {
		if p.Name != MetricFanout {
			continue
		}
		stage := p.Labels["stage"]
		if float64(p.Value) == 0 {
			if _, clash := sinks[stage]; !clash {
				sinks[stage] = true
			}
		} else {
			sinks[stage] = false
		}
	}
	for s, isSink := range sinks {
		if !isSink {
			delete(sinks, s)
		}
	}
	return sinks
}

// SinkP99 merges the end-to-end latency histograms of every sink stage in
// the snapshot and returns their combined p99 (0 when no sink has
// observations). Histograms with misaligned buckets are skipped rather
// than merged wrongly.
func SinkP99(points []MetricPoint) float64 {
	sinks := SinkStages(points)
	var merged []BucketCount
	var count uint64
	for _, p := range points {
		if p.Name != MetricE2ELatency || !sinks[p.Labels["stage"]] || len(p.Buckets) == 0 {
			continue
		}
		if merged == nil {
			merged = append([]BucketCount(nil), p.Buckets...)
			count = uint64(p.Value)
			continue
		}
		if mergeBuckets(merged, p.Buckets) {
			count += uint64(p.Value)
		}
	}
	return QuantileFromBuckets(merged, count, 0.99)
}
