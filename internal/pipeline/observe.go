package pipeline

import (
	"fmt"
	"strconv"
	"time"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/obs"
)

// SetObservability attaches an observability bundle to the engine. At Run
// every stage is instrumented into the bundle's registry, hot-path spans go
// to its tracer, and adaptation epochs and lifecycle transitions land in its
// journal. Nil (the default) means unobserved: the only residual
// cost on the data path is a pair of nil checks. Calling it after Run has
// started has no effect.
func (e *Engine) SetObservability(o *obs.Observability) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return
	}
	e.o = o
}

// ObsLabels is the identity label set every metric of this stage carries in
// a registry; consumers (internal/monitor) use it to look the series up.
func (s *Stage) ObsLabels() map[string]string {
	return map[string]string{
		"stage":    s.id,
		"instance": strconv.Itoa(s.instance),
		"node":     s.Node(),
	}
}

// Instrument publishes the stage's counters into reg as scrape-time callback
// series, so the hot path keeps updating only its existing atomic stats.
// Registration is idempotent and replaces callbacks, which is exactly what a
// restarted stage instance needs: the series names stay stable while the
// callbacks follow the live (reset) counters. A nil registry is a no-op.
func (s *Stage) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	lb := s.ObsLabels()

	reg.CounterFunc("gates_stage_packets_in_total",
		"Data packets consumed by the stage.", lb,
		func() float64 { return float64(s.Stats().PacketsIn) })
	reg.CounterFunc("gates_stage_items_in_total",
		"Data items consumed by the stage.", lb,
		func() float64 { return float64(s.Stats().ItemsIn) })
	reg.CounterFunc("gates_stage_packets_out_total",
		"Data packets emitted by the stage.", lb,
		func() float64 { return float64(s.Stats().PacketsOut) })
	reg.CounterFunc("gates_stage_items_out_total",
		"Data items emitted by the stage.", lb,
		func() float64 { return float64(s.Stats().ItemsOut) })
	reg.CounterFunc("gates_stage_bytes_out_total",
		"Payload bytes emitted by the stage.", lb,
		func() float64 { return float64(s.Stats().BytesOut) })
	reg.CounterFunc("gates_stage_compute_seconds_total",
		"Virtual compute time charged by the stage's processing code.", lb,
		func() float64 { return s.Stats().ComputeCharged.Seconds() })

	// Queue series read through inq(): Engine.Run may still be swapping in
	// the SPSC ring when an external monitor instruments a stage, and
	// scrapes must follow the live buffer either way.
	reg.GaugeFunc("gates_queue_depth",
		"Current input-queue occupancy d.", lb,
		func() float64 { return float64(s.QueueLen()) })
	reg.CounterFunc("gates_queue_pushed_total",
		"Packets accepted into the input queue.", lb,
		func() float64 { return float64(s.QueueStats().Pushed) })
	reg.CounterFunc("gates_queue_popped_total",
		"Packets drained from the input queue.", lb,
		func() float64 { return float64(s.QueueStats().Popped) })
	reg.CounterFunc("gates_queue_blocked_pushes_total",
		"Pushes that blocked on a full queue (backpressure events).", lb,
		func() float64 { return float64(s.QueueStats().BlockedPushes) })
	reg.CounterFunc("gates_queue_blocked_pops_total",
		"Pops that blocked on an empty queue.", lb,
		func() float64 { return float64(s.QueueStats().BlockedPops) })
	reg.GaugeFunc("gates_queue_high_water",
		"Highest input-queue occupancy observed.", lb,
		func() float64 { return float64(s.QueueStats().HighWater) })
	reg.GaugeFunc(obs.MetricQueueCapacity,
		"Input buffer capacity C.", lb,
		func() float64 { return float64(s.inq().Cap()) })

	// Backpressure stall series for the attribution engine. These are
	// wall-clock seconds (see queue.Stats): a parked goroutine advances no
	// virtual schedule, so /bottlenecks compares them to a wall epoch.
	reg.CounterFunc(obs.MetricQueuePushStall,
		"Wall-clock seconds producers spent parked on this stage's full input buffer.", lb,
		func() float64 { return float64(s.QueueStats().PushStallNS) / 1e9 })
	reg.CounterFunc(obs.MetricQueuePopStall,
		"Wall-clock seconds the drain loop spent parked on an empty input buffer.", lb,
		func() float64 { return float64(s.QueueStats().PopStallNS) / 1e9 })
	reg.CounterFunc(obs.MetricEmitStall,
		"Wall-clock seconds the stage's emit paths spent blocked on full downstream buffers.", lb,
		func() float64 { return s.Stats().EmitStall.Seconds() })

	// Topology gauges: one constant series per outbound edge so the
	// attribution engine (and any scraper) can walk the deployed graph.
	// outs is fixed by the builder before Run, so reading it here is as
	// safe as the fanout callback below.
	for _, out := range s.outs {
		reg.GaugeFunc(obs.MetricEdge,
			"Deployed topology edge (constant 1).",
			map[string]string{"from": s.id, "to": out.to.id},
			func() float64 { return 1 })
	}

	reg.GaugeFunc(obs.MetricFanout,
		"Number of downstream edges; 0 marks a pipeline sink.", lb,
		func() float64 { return float64(len(s.outs)) })

	reg.CounterFunc("gates_adaptations_total",
		"Completed adjustment epochs (ΔP law applications).", lb,
		func() float64 { return float64(s.ctrl.Adjustments()) })
	reg.GaugeFunc("gates_d_tilde",
		"Long-term average queue size factor d̃.", lb,
		func() float64 { return s.ctrl.DTilde() })

	// Instrument runs in Engine.Run before the stage goroutine exists, and
	// again when a monitor starts watching an engine that already runs, so
	// it may not write a field the drain loops read unsynchronized. First
	// assignment wins for both hook-ups: batchSec is set under mu (the
	// loops read it only behind procOp/batchOp, which exist only when
	// Engine.Run already set it); the latency scratches go through the
	// atomic s.lat and are adopted at the stage's next run.
	h := reg.Histogram("gates_stage_batch_seconds",
		"Virtual time to process and flush one drained input batch (sampled).",
		nil, lb)
	hop := reg.Histogram(obs.MetricHopLatency,
		"Virtual time from a packet's emission upstream to its consumption here (queue wait + link transfer).",
		obs.LatencyBuckets, lb)
	e2e := reg.Histogram(obs.MetricE2ELatency,
		"Virtual time from a packet lineage's birth at a source to its consumption here (source-to-here latency).",
		obs.LatencyBuckets, lb)
	s.mu.Lock()
	if s.batchSec == nil {
		s.batchSec = h
	}
	s.mu.Unlock()
	if s.lat.Load() == nil {
		s.lat.CompareAndSwap(nil, &latencyScratch{hop: hop.Scratch(), e2e: e2e.Scratch()})
	}
}

// recordAdjustment turns one AdjustDetailed epoch into an adaptation event
// and a debug log line. λ and μ are items per virtual second measured since
// the previous adjustment epoch (zero on the first).
func (s *Stage) recordAdjustment(now time.Time, res adapt.AdjustResult, lambda, mu float64) {
	if s.o == nil {
		return
	}
	a := obs.Adaptation{
		QueueLen: s.QueueLen(),
		DTilde:   res.DTilde,
		Lambda:   lambda,
		Mu:       mu,
		T1:       res.T1,
		T2:       res.T2,
		DeltaP:   res.DeltaP,
	}
	for _, adj := range res.Adjustments {
		a.Params = append(a.Params, obs.ParamDelta{Param: adj.Param, Old: adj.Old, New: adj.New})
	}
	s.o.Journal.Record(obs.Event{
		At:       now,
		Kind:     obs.EventAdaptation,
		Stage:    s.id,
		Instance: s.instance,
		Node:     s.Node(),
		Detail:   fmt.Sprintf("d̃=%.3g ΔP=%.3g adjusted %d param(s)", res.DTilde, res.DeltaP, len(res.Adjustments)),
		Payload:  a,
	})
	s.o.Log().Debug("adaptation adjusted",
		"stage", s.id, "instance", s.instance, "node", s.Node(),
		"d_tilde", res.DTilde, "t1", res.T1, "t2", res.T2,
		"delta_p", res.DeltaP, "lambda", lambda, "mu", mu)
}

// epochRates derives λ/μ (items per virtual second) from the stage counters
// accumulated since the previous adjustment epoch, mirroring how
// internal/monitor derives rates between samples.
type epochRates struct {
	at       time.Time
	itemsIn  uint64
	itemsOut uint64
	primed   bool
}

func (r *epochRates) advance(now time.Time, stats StageStats) (lambda, mu float64) {
	if r.primed {
		if dt := now.Sub(r.at).Seconds(); dt > 0 {
			lambda = float64(stats.ItemsIn-r.itemsIn) / dt
			mu = float64(stats.ItemsOut-r.itemsOut) / dt
		}
	}
	r.at, r.itemsIn, r.itemsOut, r.primed = now, stats.ItemsIn, stats.ItemsOut, true
	return lambda, mu
}
