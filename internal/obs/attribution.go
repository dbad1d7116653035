package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
)

// Backpressure metric names shared between the publishing side
// (internal/pipeline) and the attribution engine. Like the latency names in
// slo.go, they live here because obs is the layer both sides import.
const (
	// MetricQueuePushStall is the cumulative wall-clock seconds producers
	// spent parked pushing into a stage's input buffer — the inbound
	// backpressure signal. Wall seconds, not virtual: a parked goroutine
	// advances no virtual schedule.
	MetricQueuePushStall = "gates_queue_push_stall_seconds_total"
	// MetricQueuePopStall is the cumulative wall-clock seconds the
	// stage's drain loop spent parked on an empty input buffer — the
	// starvation signal.
	MetricQueuePopStall = "gates_queue_pop_stall_seconds_total"
	// MetricQueueCapacity is the input buffer's capacity C.
	MetricQueueCapacity = "gates_queue_capacity"
	// MetricEmitStall is the cumulative wall-clock seconds a stage's emit
	// paths spent pushing into a downstream buffer that was full — the
	// outbound side of the same pressure MetricQueuePushStall charges to
	// the downstream queue.
	MetricEmitStall = "gates_stage_emit_stall_seconds_total"
	// MetricEdge is the topology gauge: one series per outbound edge,
	// labels {from, to}, constant value 1. The attribution engine walks
	// it to know each stage's downstream set.
	MetricEdge = "gates_stage_edge"
)

// DefaultBottleneckThreshold is the minimum inbound-minus-outbound stall
// fraction before a stage is named the bottleneck; below it the epoch is
// reported as unconstricted.
const DefaultBottleneckThreshold = 0.05

// StageVerdict is one stage instance's backpressure reading for an epoch.
// Fractions are of the wall-clock epoch, clamped to [0, 1].
type StageVerdict struct {
	Stage    string `json:"stage"`
	Instance string `json:"instance"`
	// InboundStallFrac is the fraction of the epoch producers spent
	// blocked pushing into this stage's input buffer: pressure arriving.
	InboundStallFrac JSONFloat `json:"inbound_stall_frac"`
	// EmitStallFrac is the fraction this stage spent blocked pushing
	// downstream: pressure passed along.
	EmitStallFrac JSONFloat `json:"emit_stall_frac"`
	// PopStallFrac is the fraction this stage's drain loop spent waiting
	// on an empty input buffer: starvation (downstream-of-a-bottleneck
	// signature).
	PopStallFrac JSONFloat `json:"pop_stall_frac"`
	// QueueFrac is the input buffer's occupancy over capacity at
	// collection time.
	QueueFrac JSONFloat `json:"queue_frac"`
	// Score is InboundStallFrac - EmitStallFrac: a true bottleneck
	// absorbs pressure without passing it on.
	Score JSONFloat `json:"score"`
	// Bottleneck marks the ranked winner; Reason explains it.
	Bottleneck bool   `json:"bottleneck,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

// AttributionReport is one epoch's ranked backpressure verdict — the
// /bottlenecks document.
type AttributionReport struct {
	// At is the virtual time of the evaluation.
	At time.Time `json:"at"`
	// EpochWallSeconds is the wall-clock length of the epoch the
	// fractions are measured against.
	EpochWallSeconds JSONFloat `json:"epoch_wall_s"`
	// Bottleneck is "stage/instance" of the ranked winner, empty when no
	// stage clears the threshold.
	Bottleneck string `json:"bottleneck,omitempty"`
	// Summary is the one-line verdict ("stage X is the bottleneck: ...").
	Summary string `json:"summary"`
	// Verdicts lists every stage instance, highest score first.
	Verdicts []StageVerdict `json:"verdicts,omitempty"`
}

// stallCum is the cumulative counters remembered per stage instance so the
// next epoch can take deltas.
type stallCum struct {
	push, pop, emit float64
}

// Attribution turns the raw backpressure counters into a named culprit. The
// heuristic walks the deployed topology (the MetricEdge gauge) with one
// observation per stage instance and epoch:
//
//   - A stage whose inbound push-stall fraction is high is under pressure:
//     its producers spend the epoch parked on its full input buffer.
//   - If the same stage's own emit-stall fraction is also high, it is not
//     the culprit — it is merely relaying pressure from further downstream.
//   - The bottleneck is therefore the stage with the highest
//     inbound-minus-outbound stall fraction, confirmed by its downstream
//     neighbors sitting idle (high pop-stall fraction).
//
// Stall counters are wall-clock, so fractions are taken against a
// wall-clock epoch; nowNS is injectable for deterministic tests. Safe for
// concurrent use. A nil *Attribution is valid and reports nothing.
type Attribution struct {
	clk   clock.Clock
	nowNS func() int64

	mu       sync.Mutex
	minFrac  float64
	prev     map[string]stallCum
	prevWall int64
	primed   bool
	last     *AttributionReport
}

// NewAttribution returns an engine stamping reports with clk's virtual time.
// The first Observe measures from construction time.
func NewAttribution(clk clock.Clock) *Attribution {
	if clk == nil {
		panic("obs: NewAttribution requires a clock")
	}
	a := &Attribution{
		clk:     clk,
		nowNS:   func() int64 { return time.Now().UnixNano() },
		minFrac: DefaultBottleneckThreshold,
	}
	a.prevWall = a.nowNS()
	return a
}

// SetNowFunc replaces the wall-clock source (tests only) and restarts the
// current epoch at its reading.
func (a *Attribution) SetNowFunc(now func() int64) {
	a.mu.Lock()
	a.nowNS = now
	a.prevWall = now()
	a.prev = nil
	a.primed = false
	a.mu.Unlock()
}

// Last returns the most recent report, or an empty one before the first
// Observe. Nil-safe.
func (a *Attribution) Last() *AttributionReport {
	if a == nil {
		return &AttributionReport{Summary: "attribution not running"}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.last == nil {
		return &AttributionReport{Summary: "no epoch observed yet"}
	}
	return a.last
}

// ObserveRegistry runs one attribution epoch over reg's current snapshot.
func (a *Attribution) ObserveRegistry(reg *Registry) *AttributionReport {
	if a == nil || reg == nil {
		return (*Attribution)(nil).Last()
	}
	return a.Observe(reg.Snapshot())
}

// Observe runs one attribution epoch over a metric snapshot (node-local or
// cluster-merged) and returns the ranked verdict. The epoch is the wall
// time since the previous Observe (or construction).
func (a *Attribution) Observe(points []MetricPoint) *AttributionReport {
	if a == nil {
		return (*Attribution)(nil).Last()
	}
	a.mu.Lock()
	defer a.mu.Unlock()

	now := a.nowNS()
	epochNS := now - a.prevWall
	a.prevWall = now
	epochSec := float64(epochNS) / 1e9

	type accum struct {
		stallCum
		depth, cap float64
	}
	cur := make(map[string]*accum)
	var order []string
	downstream := make(map[string][]string)
	touch := func(key string) *accum {
		g, ok := cur[key]
		if !ok {
			g = &accum{}
			cur[key] = g
			order = append(order, key)
		}
		return g
	}
	for _, p := range points {
		if p.Name == MetricEdge {
			from, to := p.Labels["from"], p.Labels["to"]
			if from != "" && to != "" {
				downstream[from] = append(downstream[from], to)
			}
			continue
		}
		key := p.Labels["stage"] + "/" + p.Labels["instance"]
		v := float64(p.Value)
		switch p.Name {
		case MetricQueuePushStall:
			touch(key).push += v
		case MetricQueuePopStall:
			touch(key).pop += v
		case MetricEmitStall:
			touch(key).emit += v
		case "gates_queue_depth":
			touch(key).depth += v
		case MetricQueueCapacity:
			touch(key).cap += v
		}
	}

	frac := func(deltaSec float64) float64 {
		if epochSec <= 0 {
			return 0
		}
		f := deltaSec / epochSec
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		return f
	}

	// On the first epoch after construction (or a source reset) the
	// remembered cumulative counters are zero, so deltas equal totals —
	// exactly right for a one-shot evaluation over a finished run.
	prev := a.prev
	if prev == nil {
		prev = map[string]stallCum{}
	}
	next := make(map[string]stallCum, len(cur))
	verdicts := make([]StageVerdict, 0, len(cur))
	popFracByStage := make(map[string][]float64)
	for _, key := range order {
		g := cur[key]
		was := prev[key]
		next[key] = g.stallCum
		stage, instance := splitStageKey(key)
		v := StageVerdict{
			Stage:            stage,
			Instance:         instance,
			InboundStallFrac: JSONFloat(frac(g.push - was.push)),
			EmitStallFrac:    JSONFloat(frac(g.emit - was.emit)),
			PopStallFrac:     JSONFloat(frac(g.pop - was.pop)),
		}
		if g.cap > 0 {
			v.QueueFrac = JSONFloat(g.depth / g.cap)
		}
		v.Score = v.InboundStallFrac - v.EmitStallFrac
		verdicts = append(verdicts, v)
		popFracByStage[stage] = append(popFracByStage[stage], float64(v.PopStallFrac))
	}
	a.prev = next
	a.primed = true

	sort.SliceStable(verdicts, func(i, j int) bool { return verdicts[i].Score > verdicts[j].Score })

	report := &AttributionReport{
		At:               a.clk.Now(),
		EpochWallSeconds: JSONFloat(epochSec),
		Summary:          "no bottleneck: no stage absorbs more pressure than it passes on",
		Verdicts:         verdicts,
	}
	if len(verdicts) > 0 && float64(verdicts[0].Score) >= a.minFrac {
		top := &verdicts[0]
		top.Bottleneck = true
		idle, nIdle := 0.0, 0
		for _, d := range downstream[top.Stage] {
			for _, f := range popFracByStage[d] {
				idle += f
				nIdle++
			}
		}
		reason := fmt.Sprintf("stage %s is the bottleneck: inbound ring full %d%% of epoch",
			top.Stage, pct(float64(top.InboundStallFrac)))
		if nIdle > 0 {
			reason += fmt.Sprintf(", downstream idle %d%%", pct(idle/float64(nIdle)))
		}
		top.Reason = reason
		report.Bottleneck = top.Stage + "/" + top.Instance
		report.Summary = reason
	}
	a.last = report
	return report
}

func pct(f float64) int { return int(f*100 + 0.5) }

// splitStageKey splits "stage/instance" back apart; the instance label may
// itself never contain a slash, the stage id may.
func splitStageKey(key string) (stage, instance string) {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == '/' {
			return key[:i], key[i+1:]
		}
	}
	return key, ""
}
