// Package monitor implements the observation side of the middleware that
// §1 of the paper describes: "the system monitors the arrival rate at each
// source, the available computing resources and memory, and the available
// network bandwidth".
//
// A Monitor is a consumer of the obs.Registry: watching a stage or link
// instruments it into the registry, and Sample reads the published series
// back out, deriving arrival/consumption rates λ and μ and link throughput
// from counter deltas over virtual time. Snapshots accumulate into bounded
// histories, and Render prints a dashboard. The same registry can be shared
// with an HTTP exposition endpoint (obs.Serve), so the dashboard and
// /metrics always agree.
package monitor

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/pipeline"
)

// StageSample is one observation of one stage instance.
type StageSample struct {
	// At is the virtual time of the sample.
	At time.Time
	// Stage and Instance identify the stage.
	Stage    string
	Instance int
	// Node is where the instance runs.
	Node string
	// QueueLen is the input-buffer occupancy d.
	QueueLen int
	// DTilde is the stage's long-term average queue size factor.
	DTilde float64
	// ItemsIn and ItemsOut are the lifetime counters at sample time.
	ItemsIn, ItemsOut uint64
	// ArrivalRate (λ) and ServiceRate (μ) are items per virtual second
	// since the previous sample; zero on the first sample. A counter that
	// moved backwards (stage restart) contributes its post-reset value, not
	// a negative delta.
	ArrivalRate, ServiceRate float64
	// E2EP99 is the 99th-percentile source-to-here latency in virtual
	// seconds, read from the stage's gates_stage_e2e_latency_seconds
	// histogram; zero when the stage has observed no lineage-stamped
	// packets yet.
	E2EP99 float64
	// PushStallS is the stage's lifetime inbound-backpressure counter at
	// sample time: wall-clock seconds producers spent parked on its full
	// input buffer (gates_queue_push_stall_seconds_total).
	PushStallS float64
	// BackpressureFrac is the fraction of the wall-clock time since the
	// previous sample that producers spent parked pushing into this stage
	// — the dashboard's slice of the attribution engine's inbound signal.
	// Wall, not virtual: a parked goroutine advances no virtual schedule.
	// Zero on the first sample.
	BackpressureFrac float64
	// Params holds the current value of every adjustment parameter.
	Params map[string]float64

	wallAt time.Time // wall-clock sample time, for BackpressureFrac deltas
}

// LinkSample is one observation of one link.
type LinkSample struct {
	At    time.Time
	Name  string
	Bytes int64
	// Throughput is bytes per virtual second since the previous sample.
	Throughput float64
}

// Snapshot is one synchronized pass over everything watched.
type Snapshot struct {
	At     time.Time
	Stages []StageSample
	Links  []LinkSample
}

// watched is one stage under observation plus the label set its series were
// instrumented with.
type watched struct {
	st     *pipeline.Stage
	labels map[string]string
}

// Monitor samples watched stages and links on a fixed virtual interval.
// Construct with New (private registry) or NewWithRegistry (shared with an
// exposition endpoint), add subjects with Watch*, then run Start or Run in a
// goroutine (or call Sample directly for on-demand observation).
type Monitor struct {
	clk      clock.Clock
	interval time.Duration
	reg      *obs.Registry

	mu      sync.Mutex
	stages  []watched
	links   map[string]*netsim.Link
	prev    map[string]StageSample // keyed by stage/instance
	prevLnk map[string]LinkSample
	history []Snapshot
	maxHist int
}

// New returns a monitor sampling every interval of virtual time into a
// private registry.
func New(clk clock.Clock, interval time.Duration) *Monitor {
	if clk == nil {
		panic("monitor: New requires a clock")
	}
	return NewWithRegistry(clk, interval, obs.NewRegistry(clk))
}

// NewWithRegistry returns a monitor publishing into (and sampling from) a
// shared registry — typically the one an obs HTTP endpoint exposes, so the
// dashboard and /metrics read the same series.
func NewWithRegistry(clk clock.Clock, interval time.Duration, reg *obs.Registry) *Monitor {
	if clk == nil {
		panic("monitor: NewWithRegistry requires a clock")
	}
	if reg == nil {
		panic("monitor: NewWithRegistry requires a registry")
	}
	if interval <= 0 {
		interval = time.Second
	}
	return &Monitor{
		clk:      clk,
		interval: interval,
		reg:      reg,
		links:    make(map[string]*netsim.Link),
		prev:     make(map[string]StageSample),
		prevLnk:  make(map[string]LinkSample),
		maxHist:  1024,
	}
}

// Registry returns the registry the monitor publishes into and reads from.
func (m *Monitor) Registry() *obs.Registry { return m.reg }

// WatchStage adds one stage instance, instrumenting it into the registry.
// Watching a new instance object with the same id/instance replaces the old
// one (a restarted stage takes over its series; rate derivation treats the
// counter reset as a restart, not a negative delta).
func (m *Monitor) WatchStage(st *pipeline.Stage) {
	if st == nil {
		return
	}
	st.Instrument(m.reg)
	w := watched{st: st, labels: st.ObsLabels()}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, old := range m.stages {
		if old.st.ID() == st.ID() && old.st.Instance() == st.Instance() {
			m.stages[i] = w
			return
		}
	}
	m.stages = append(m.stages, w)
}

// WatchStages adds every instance of a deployment's stage map.
func (m *Monitor) WatchStages(stages map[string][]*pipeline.Stage) {
	ids := make([]string, 0, len(stages))
	for id := range stages {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for _, st := range stages[id] {
			m.WatchStage(st)
		}
	}
}

// WatchLink adds a named link, instrumenting it into the registry.
func (m *Monitor) WatchLink(name string, l *netsim.Link) {
	if l == nil {
		return
	}
	l.Instrument(m.reg, name)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.links[name] = l
}

// counterDelta returns how much a monotone counter advanced between samples.
// A current value below the previous one means the counter restarted (a
// stage instance was replaced); everything since the reset is the delta.
func counterDelta(cur, prev float64) float64 {
	if cur < prev {
		return cur
	}
	return cur - prev
}

// stageValue reads one of the stage's registry series (zero when absent).
func (m *Monitor) stageValue(name string, w watched) float64 {
	v, _ := m.reg.Value(name, w.labels)
	return v
}

// Sample takes one synchronized snapshot now and appends it to the history.
// Counters come from the registry (the same series /metrics exposes);
// adaptation state (d̃, parameter values) comes from the stage's controller.
func (m *Monitor) Sample() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.clk.Now()
	snap := Snapshot{At: now}
	for _, w := range m.stages {
		st := w.st
		key := fmt.Sprintf("%s/%d", st.ID(), st.Instance())
		itemsIn := m.stageValue("gates_stage_items_in_total", w)
		itemsOut := m.stageValue("gates_stage_items_out_total", w)
		pushStall := m.stageValue(obs.MetricQueuePushStall, w)
		s := StageSample{
			At:         now,
			Stage:      st.ID(),
			Instance:   st.Instance(),
			Node:       st.Node(),
			QueueLen:   int(m.stageValue("gates_queue_depth", w)),
			DTilde:     st.Controller().DTilde(),
			ItemsIn:    uint64(itemsIn),
			ItemsOut:   uint64(itemsOut),
			PushStallS: pushStall,
			Params:     make(map[string]float64),
			wallAt:     time.Now(),
		}
		if p99, ok := m.reg.HistogramQuantile(obs.MetricE2ELatency, w.labels, 0.99); ok {
			s.E2EP99 = p99
		}
		for _, p := range st.Controller().Params() {
			s.Params[p.Spec().Name] = p.Value()
		}
		if prev, ok := m.prev[key]; ok {
			if dt := now.Sub(prev.At).Seconds(); dt > 0 {
				s.ArrivalRate = counterDelta(itemsIn, float64(prev.ItemsIn)) / dt
				s.ServiceRate = counterDelta(itemsOut, float64(prev.ItemsOut)) / dt
			}
			// Stall counters advance on the wall clock, so the fraction
			// is taken against the wall interval between samples, not the
			// (possibly compressed) virtual one.
			if dw := s.wallAt.Sub(prev.wallAt).Seconds(); dw > 0 {
				f := counterDelta(pushStall, prev.PushStallS) / dw
				if f > 1 {
					f = 1
				}
				s.BackpressureFrac = f
			}
		}
		m.prev[key] = s
		snap.Stages = append(snap.Stages, s)
	}
	names := make([]string, 0, len(m.links))
	for name := range m.links {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		bytes, _ := m.reg.Value("gates_link_bytes_total", map[string]string{"link": name})
		ls := LinkSample{At: now, Name: name, Bytes: int64(bytes)}
		if prev, ok := m.prevLnk[name]; ok {
			if dt := now.Sub(prev.At).Seconds(); dt > 0 {
				ls.Throughput = counterDelta(bytes, float64(prev.Bytes)) / dt
			}
		}
		m.prevLnk[name] = ls
		snap.Links = append(snap.Links, ls)
	}
	m.history = append(m.history, snap)
	if len(m.history) > m.maxHist {
		m.history = m.history[len(m.history)-m.maxHist:]
	}
	return snap
}

// Run samples on the monitor's interval until stop is closed, rendering a
// dashboard to w after every sample when w is non-nil — the streaming mode
// behind gates-launcher -monitor. It is intended to run in its own goroutine
// alongside an application.
func (m *Monitor) Run(stop <-chan struct{}, w io.Writer) {
	for {
		select {
		case <-stop:
			return
		case <-m.clk.After(m.interval):
			m.Sample()
			if w != nil {
				m.Render(w)
			}
		}
	}
}

// Start samples on the monitor's interval until stop is closed, without
// rendering; use Run to stream dashboards.
func (m *Monitor) Start(stop <-chan struct{}) {
	m.Run(stop, nil)
}

// Latest returns the most recent snapshot (zero value when none taken).
func (m *Monitor) Latest() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.history) == 0 {
		return Snapshot{}
	}
	return m.history[len(m.history)-1]
}

// History returns all retained snapshots in order.
func (m *Monitor) History() []Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Snapshot, len(m.history))
	copy(out, m.history)
	return out
}

// StageSeries extracts one stage instance's samples across the history. It
// scans under the lock rather than copying every retained snapshot first.
func (m *Monitor) StageSeries(stage string, instance int) []StageSample {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []StageSample
	for i := range m.history {
		for _, s := range m.history[i].Stages {
			if s.Stage == stage && s.Instance == instance {
				out = append(out, s)
			}
		}
	}
	return out
}

// Render prints the latest snapshot as a dashboard.
func (m *Monitor) Render(w io.Writer) {
	snap := m.Latest()
	if len(snap.Stages) == 0 && len(snap.Links) == 0 {
		fmt.Fprintln(w, "monitor: no samples")
		return
	}
	fmt.Fprintf(w, "monitor snapshot @ %s\n", snap.At.Format("15:04:05.000"))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "stage\tnode\tqueue\tbackpr\td~\tλ/s\tμ/s\te2e-p99\tparams")
	for _, s := range snap.Stages {
		params := ""
		names := make([]string, 0, len(s.Params))
		for name := range s.Params {
			names = append(names, name)
		}
		sort.Strings(names)
		for i, name := range names {
			if i > 0 {
				params += " "
			}
			params += fmt.Sprintf("%s=%.3g", name, s.Params[name])
		}
		e2e := "-"
		if s.E2EP99 > 0 {
			e2e = fmt.Sprintf("%.3gs", s.E2EP99)
		}
		backpr := "-"
		if s.BackpressureFrac > 0 {
			backpr = fmt.Sprintf("%d%%", int(s.BackpressureFrac*100+0.5))
		}
		fmt.Fprintf(tw, "%s/%d\t%s\t%d\t%s\t%.1f\t%.1f\t%.1f\t%s\t%s\n",
			s.Stage, s.Instance, s.Node, s.QueueLen, backpr, s.DTilde, s.ArrivalRate, s.ServiceRate, e2e, params)
	}
	tw.Flush()
	if len(snap.Links) > 0 {
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "link\tbytes\tB/s")
		for _, l := range snap.Links {
			fmt.Fprintf(tw, "%s\t%d\t%.0f\n", l.Name, l.Bytes, l.Throughput)
		}
		tw.Flush()
	}
}
