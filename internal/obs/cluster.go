package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
)

// NodeSnapshot is the JSON document one node's /snapshot endpoint serves:
// every metric series plus the adaptation, migration, and lifecycle trails,
// so the cluster aggregator sees the node's full story in a single scrape.
type NodeSnapshot struct {
	// Node is the aggregator-assigned source name; empty in a node's
	// own /snapshot output.
	Node string `json:"node,omitempty"`
	// At is the node's virtual time when the snapshot was taken.
	At time.Time `json:"at"`
	// Metrics is every series, histograms carried as buckets.
	Metrics []MetricPoint `json:"metrics"`
	// Adaptations, Migrations, Lifecycle, Decisions are the node's
	// retained event trails.
	Adaptations []AdaptationEvent `json:"adaptations,omitempty"`
	Migrations  []MigrationEvent  `json:"migrations,omitempty"`
	Lifecycle   []LifecycleEvent  `json:"lifecycle,omitempty"`
	Decisions   []DecisionEvent   `json:"decisions,omitempty"`
}

// NodeSnapshot assembles the bundle's current snapshot document.
func (o *Observability) NodeSnapshot() NodeSnapshot {
	s := NodeSnapshot{At: o.Clock.Now()}
	if o.Registry != nil {
		s.Metrics = o.Registry.Snapshot()
	}
	s.Adaptations = o.Audit.Events()
	s.Migrations = o.Migrations.Events()
	s.Lifecycle = o.Lifecycle.Events()
	s.Decisions = o.Decisions.Events()
	return s
}

// SnapshotFunc fetches one node's snapshot; the aggregator calls it every
// collection round.
type SnapshotFunc func() (NodeSnapshot, error)

// LocalSource snapshots an in-process bundle — the launcher's own registry,
// which in simulated deployments already carries every node's series
// (distinguished by the "node" label).
func LocalSource(o *Observability) SnapshotFunc {
	return func() (NodeSnapshot, error) {
		if o == nil {
			return NodeSnapshot{}, fmt.Errorf("obs: nil bundle")
		}
		return o.NodeSnapshot(), nil
	}
}

// HTTPSource scrapes a remote node's /snapshot endpoint. base is the
// node's observability address ("host:port" or "http://host:port").
func HTTPSource(client *http.Client, base string) SnapshotFunc {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	url := strings.TrimRight(base, "/") + "/snapshot"
	return func() (NodeSnapshot, error) {
		resp, err := client.Get(url)
		if err != nil {
			return NodeSnapshot{}, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return NodeSnapshot{}, fmt.Errorf("obs: scrape %s: %s", url, resp.Status)
		}
		var s NodeSnapshot
		if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
			return NodeSnapshot{}, fmt.Errorf("obs: scrape %s: %w", url, err)
		}
		return s, nil
	}
}

// MergeMetrics folds the series of several node snapshots into one
// pipeline-wide list: series are grouped by name plus labels with "node"
// dropped, counters and gauges sum, histogram buckets add bucket-by-bucket
// (their bounds must align — all histograms in this codebase share either
// DefBuckets or LatencyBuckets per family). Misaligned histograms are
// reported rather than silently merged into a wrong distribution.
func MergeMetrics(snaps []NodeSnapshot) ([]MetricPoint, error) {
	type group struct {
		point MetricPoint
		count uint64
	}
	merged := make(map[string]*group)
	var order []string
	var mergeErr error
	for _, snap := range snaps {
		for _, p := range snap.Metrics {
			// Pool stats are per-process resources, not per-stage work:
			// summing them across nodes would hide which node's pool is
			// exhausted, so their node label survives the merge (injected
			// from the source name when the series has none).
			keepNode := strings.HasPrefix(p.Name, "gates_pool_")
			labels := make(map[string]string, len(p.Labels)+1)
			for k, v := range p.Labels {
				if k == "node" && !keepNode {
					continue
				}
				labels[k] = v
			}
			if keepNode && labels["node"] == "" && snap.Node != "" {
				labels["node"] = snap.Node
			}
			key, _ := canonical(labels)
			key = p.Name + "{" + key + "}"
			g, ok := merged[key]
			if !ok {
				cp := p
				cp.Labels = labels
				if len(labels) == 0 {
					cp.Labels = nil
				}
				cp.Buckets = append([]BucketCount(nil), p.Buckets...)
				merged[key] = &group{point: cp, count: uint64(p.Value)}
				order = append(order, key)
				continue
			}
			switch p.Kind {
			case "histogram":
				if !mergeBuckets(g.point.Buckets, p.Buckets) {
					if mergeErr == nil {
						mergeErr = fmt.Errorf("obs: histogram %s: bucket bounds differ across nodes", p.Name)
					}
					continue
				}
				g.count += uint64(p.Value)
				g.point.Value = JSONFloat(float64(g.count))
				g.point.Sum += p.Sum
			default:
				g.point.Value += p.Value
			}
		}
	}
	sort.Strings(order)
	out := make([]MetricPoint, 0, len(order))
	for _, key := range order {
		g := merged[key]
		if g.point.Kind == "histogram" {
			g.point.Quantiles = pointQuantiles(g.point.Buckets, g.count)
		}
		out = append(out, g.point)
	}
	return out, mergeErr
}

// NodeStatus reports one source's health in a cluster view.
type NodeStatus struct {
	Name string    `json:"name"`
	OK   bool      `json:"ok"`
	Err  string    `json:"err,omitempty"`
	At   time.Time `json:"at"`
}

// StagePlacement is one stage instance's location, read off the metric
// labels.
type StagePlacement struct {
	Stage    string `json:"stage"`
	Instance string `json:"instance"`
	Node     string `json:"node,omitempty"`
	// Depth is the instance's current input-queue depth.
	Depth float64 `json:"depth"`
}

// LatencySummary is the merged latency distribution of one stage.
type LatencySummary struct {
	Stage string    `json:"stage"`
	Count uint64    `json:"count"`
	P50   JSONFloat `json:"p50"`
	P95   JSONFloat `json:"p95"`
	P99   JSONFloat `json:"p99"`
	// Sink marks the stage as a pipeline sink (fanout 0), where the
	// end-to-end objective is judged.
	Sink bool `json:"sink,omitempty"`
}

// ClusterView is the merged, pipeline-wide picture served at /cluster.
type ClusterView struct {
	// At is the aggregator's virtual collection time.
	At time.Time `json:"at"`
	// Nodes lists every configured source and whether its last scrape
	// succeeded.
	Nodes []NodeStatus `json:"nodes"`
	// Metrics is the merged series (the "node" label dropped, values
	// summed, histograms bucket-merged).
	Metrics []MetricPoint `json:"metrics"`
	// Placements maps stage instances to grid nodes with their queue
	// depths.
	Placements []StagePlacement `json:"placements,omitempty"`
	// Latency summarizes each stage's source-to-here distribution.
	Latency []LatencySummary `json:"latency,omitempty"`
	// SLO is the violation detector's verdict for this collection.
	SLO SLOStatus `json:"slo"`
	// SLOEvents are the retained flag transitions.
	SLOEvents []SLOEvent `json:"slo_events,omitempty"`
	// Bottlenecks is the cluster-wide backpressure attribution verdict
	// for this collection epoch, ranked over the merged series.
	Bottlenecks *AttributionReport `json:"bottlenecks,omitempty"`
	// Adaptations, Migrations, and Decisions are the most recent events
	// across all nodes, newest last.
	Adaptations []AdaptationEvent `json:"adaptations,omitempty"`
	Migrations  []MigrationEvent  `json:"migrations,omitempty"`
	Decisions   []DecisionEvent   `json:"decisions,omitempty"`
	// MergeErr reports a histogram bucket misalignment, if any.
	MergeErr string `json:"merge_err,omitempty"`
}

// recentTail bounds the event lists carried in a cluster view.
const recentTail = 20

// Aggregator periodically folds every node's snapshot into a ClusterView
// — the MonALISA-style aggregated monitoring plane: one place that shows
// the whole deployed pipeline. Sources are either the launcher's own
// in-process bundle (LocalSource) or remote gates-node /snapshot endpoints
// (HTTPSource). Safe for concurrent use.
type Aggregator struct {
	clk clock.Clock

	// violated mirrors the SLO detector's flag. It is atomic — not under
	// mu — because registry gauge callbacks read it at scrape time, and a
	// LocalSource scrape happens while Collect holds mu.
	violated atomic.Bool

	mu        sync.Mutex
	sources   []aggSource
	slo       *SLOMonitor
	attr      *Attribution
	flight    *FlightRecorder
	sloPrimed bool
	last      *ClusterView
}

type aggSource struct {
	name string
	fn   SnapshotFunc
}

// NewAggregator returns an empty aggregator on clk with the given SLO
// objectives.
func NewAggregator(clk clock.Clock, slo SLOConfig) *Aggregator {
	if clk == nil {
		panic("obs: NewAggregator requires a clock")
	}
	return &Aggregator{clk: clk, slo: NewSLOMonitor(slo, 0), attr: NewAttribution(clk)}
}

// SetSLOSource makes the aggregator's SLO detector resolve its objectives
// through the given source (a policy engine's SLO view) on every
// collection, instead of the static SLOConfig it was built with.
func (a *Aggregator) SetSLOSource(src SLOSource) {
	a.slo.SetSource(src)
}

// SetDecisionLog makes every SLO evaluation the aggregator runs record its
// verdict into the given decision log.
func (a *Aggregator) SetDecisionLog(t *DecisionTrail) {
	a.slo.SetDecisionLog(t)
}

// SetFlightRecorder attaches the flight recorder SLO transitions are
// recorded into; a transition into violation also triggers DumpToDisk
// ("slo-violation"), so the recorder's dump path decides whether a snapshot
// lands on disk. Nil detaches.
func (a *Aggregator) SetFlightRecorder(f *FlightRecorder) {
	a.mu.Lock()
	a.flight = f
	a.mu.Unlock()
}

// AddSource registers one node snapshot source under name.
func (a *Aggregator) AddSource(name string, fn SnapshotFunc) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sources = append(a.sources, aggSource{name: name, fn: fn})
}

// Collect scrapes every source, merges, runs one SLO evaluation, and
// returns the new view. Failed sources appear in Nodes with their error;
// their series simply drop out of the merge for this round.
func (a *Aggregator) Collect() *ClusterView {
	a.mu.Lock()
	defer a.mu.Unlock()

	now := a.clk.Now()
	view := &ClusterView{At: now}
	var snaps []NodeSnapshot
	for _, src := range a.sources {
		snap, err := src.fn()
		st := NodeStatus{Name: src.name, OK: err == nil, At: snap.At}
		if err != nil {
			st.Err = err.Error()
		} else {
			snap.Node = src.name
			snaps = append(snaps, snap)
		}
		view.Nodes = append(view.Nodes, st)
	}

	merged, err := MergeMetrics(snaps)
	if err != nil {
		view.MergeErr = err.Error()
	}
	view.Metrics = merged
	view.Placements = placements(snaps)
	view.Latency = latencySummaries(merged)
	prevViolated := a.violated.Load()
	view.SLO = a.slo.Evaluate(now, merged)
	a.violated.Store(view.SLO.Violated)
	view.SLOEvents = a.slo.Events()
	view.Bottlenecks = a.attr.Observe(merged)
	if view.SLO.Violated != prevViolated || (!a.sloPrimed && view.SLO.Violated) {
		detail := "recovered"
		if view.SLO.Violated {
			detail = strings.Join(view.SLO.Reasons, "; ")
		}
		a.flight.Record(FlightEvent{
			Kind: FlightSLO, Detail: detail, Value: float64(view.SLO.SinkP99),
		})
		if view.SLO.Violated {
			// Best-effort post-mortem snapshot; the recorder remembers
			// the error in its JSON envelope if the write fails.
			_, _ = a.flight.DumpToDisk("slo-violation")
		}
	}
	a.sloPrimed = true
	for _, snap := range snaps {
		view.Adaptations = append(view.Adaptations, snap.Adaptations...)
		view.Migrations = append(view.Migrations, snap.Migrations...)
		view.Decisions = append(view.Decisions, snap.Decisions...)
	}
	sort.Slice(view.Adaptations, func(i, j int) bool { return view.Adaptations[i].At.Before(view.Adaptations[j].At) })
	sort.Slice(view.Migrations, func(i, j int) bool { return view.Migrations[i].At.Before(view.Migrations[j].At) })
	sort.SliceStable(view.Decisions, func(i, j int) bool { return view.Decisions[i].At.Before(view.Decisions[j].At) })
	if n := len(view.Adaptations); n > recentTail {
		view.Adaptations = view.Adaptations[n-recentTail:]
	}
	if n := len(view.Migrations); n > recentTail {
		view.Migrations = view.Migrations[n-recentTail:]
	}
	if n := len(view.Decisions); n > recentTail {
		view.Decisions = view.Decisions[n-recentTail:]
	}

	a.last = view
	return view
}

// View returns the last collected view, collecting once if none exists
// yet.
func (a *Aggregator) View() *ClusterView {
	a.mu.Lock()
	last := a.last
	a.mu.Unlock()
	if last != nil {
		return last
	}
	return a.Collect()
}

// SLOStatus returns the detector's current verdict without collecting.
func (a *Aggregator) SLOStatus() SLOStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.slo.Status()
}

// Violated reports the SLO flag as of the last collection, lock-free — the
// form safe to publish as a registry gauge (SLOStatus would deadlock there:
// the gauge fires while Collect scrapes the local registry under mu).
func (a *Aggregator) Violated() bool { return a.violated.Load() }

// placements reads stage → node assignments off the per-node snapshots'
// queue-depth gauges (the one series every running instance publishes).
func placements(snaps []NodeSnapshot) []StagePlacement {
	var out []StagePlacement
	for _, snap := range snaps {
		for _, p := range snap.Metrics {
			if p.Name != "gates_queue_depth" {
				continue
			}
			node := p.Labels["node"]
			if node == "" {
				node = snap.Node
			}
			out = append(out, StagePlacement{
				Stage:    p.Labels["stage"],
				Instance: p.Labels["instance"],
				Node:     node,
				Depth:    float64(p.Value),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		return out[i].Instance < out[j].Instance
	})
	return out
}

// latencySummaries folds the merged e2e histograms down to one summary per
// stage.
func latencySummaries(merged []MetricPoint) []LatencySummary {
	sinks := SinkStages(merged)
	byStage := make(map[string]*struct {
		buckets []BucketCount
		count   uint64
	})
	var order []string
	for _, p := range merged {
		if p.Name != MetricE2ELatency || len(p.Buckets) == 0 {
			continue
		}
		stage := p.Labels["stage"]
		g, ok := byStage[stage]
		if !ok {
			g = &struct {
				buckets []BucketCount
				count   uint64
			}{buckets: append([]BucketCount(nil), p.Buckets...), count: uint64(p.Value)}
			byStage[stage] = g
			order = append(order, stage)
			continue
		}
		if mergeBuckets(g.buckets, p.Buckets) {
			g.count += uint64(p.Value)
		}
	}
	sort.Strings(order)
	out := make([]LatencySummary, 0, len(order))
	for _, stage := range order {
		g := byStage[stage]
		out = append(out, LatencySummary{
			Stage: stage,
			Count: g.count,
			P50:   JSONFloat(QuantileFromBuckets(g.buckets, g.count, 0.50)),
			P95:   JSONFloat(QuantileFromBuckets(g.buckets, g.count, 0.95)),
			P99:   JSONFloat(QuantileFromBuckets(g.buckets, g.count, 0.99)),
			Sink:  sinks[stage],
		})
	}
	return out
}

// Render writes the gates-top style text dashboard: placements, per-stage
// latency percentiles, SLO verdict, and the most recent adaptations and
// migrations.
func (v *ClusterView) Render(w io.Writer) {
	fmt.Fprintf(w, "== gates cluster @ %s ==\n", v.At.Format("15:04:05.000"))
	for _, n := range v.Nodes {
		mark := "up"
		if !n.OK {
			mark = "DOWN " + n.Err
		}
		fmt.Fprintf(w, "node %-12s %s\n", n.Name, mark)
	}
	if len(v.Placements) > 0 {
		verdicts := make(map[string]StageVerdict)
		if v.Bottlenecks != nil {
			for _, sv := range v.Bottlenecks.Verdicts {
				verdicts[sv.Stage+"/"+sv.Instance] = sv
			}
		}
		fmt.Fprintf(w, "%-14s %-4s %-12s %8s %8s\n", "STAGE", "INST", "NODE", "QUEUE", "BACKPR")
		for _, p := range v.Placements {
			backpr := "-"
			if sv, ok := verdicts[p.Stage+"/"+p.Instance]; ok {
				backpr = fmt.Sprintf("%d%%", pct(float64(sv.InboundStallFrac)))
				if sv.Bottleneck {
					backpr += " *"
				}
			}
			fmt.Fprintf(w, "%-14s %-4s %-12s %8.0f %8s\n", p.Stage, p.Instance, p.Node, p.Depth, backpr)
		}
	}
	if len(v.Latency) > 0 {
		fmt.Fprintf(w, "%-14s %10s %10s %10s %10s\n", "LATENCY", "COUNT", "P50", "P95", "P99")
		for _, l := range v.Latency {
			name := l.Stage
			if l.Sink {
				name += " (sink)"
			}
			fmt.Fprintf(w, "%-14s %10d %9.3gs %9.3gs %9.3gs\n",
				name, l.Count, float64(l.P50), float64(l.P95), float64(l.P99))
		}
	}
	switch {
	case !v.SLO.Evaluated:
		fmt.Fprintln(w, "slo: not evaluated")
	case v.SLO.Violated:
		fmt.Fprintf(w, "slo: VIOLATED since %s: %s\n",
			v.SLO.Since.Format("15:04:05.000"), strings.Join(v.SLO.Reasons, "; "))
	default:
		fmt.Fprintf(w, "slo: ok (sink p99 %.3gs, max d-tilde %.3g)\n",
			float64(v.SLO.SinkP99), float64(v.SLO.MaxDTilde))
	}
	if v.Bottlenecks != nil {
		fmt.Fprintf(w, "bottleneck: %s\n", v.Bottlenecks.Summary)
	}
	for _, ev := range v.Adaptations {
		fmt.Fprintf(w, "adapt %s %s/%d d̃=%.3g ΔP=%.3g\n",
			ev.At.Format("15:04:05.000"), ev.Stage, ev.Instance, ev.DTilde, ev.DeltaP)
	}
	for _, ev := range v.Migrations {
		fmt.Fprintf(w, "moved %s %s/%d %s→%s drain=%s\n",
			ev.At.Format("15:04:05.000"), ev.Stage, ev.Instance, ev.From, ev.To, ev.Drain)
	}
	for _, ev := range v.Decisions {
		target := ev.Stage
		if target != "" {
			target = fmt.Sprintf(" %s/%d", ev.Stage, ev.Instance)
		}
		fmt.Fprintf(w, "decide %s %s%s %s [rule %s, policy %s]\n",
			ev.At.Format("15:04:05.000"), ev.Kind, target, ev.Outcome, ev.Rule, ev.PolicyVersion)
	}
	if v.MergeErr != "" {
		fmt.Fprintf(w, "merge error: %s\n", v.MergeErr)
	}
}
