package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
)

// NodeSnapshot is the JSON document one node's /snapshot endpoint serves:
// every metric series plus the event journal, so the cluster aggregator
// sees the node's full story in a single scrape.
type NodeSnapshot struct {
	// Node is the aggregator-assigned source name; empty in a node's
	// own /snapshot output.
	Node string `json:"node,omitempty"`
	// At is the node's virtual time when the snapshot was taken.
	At time.Time `json:"at"`
	// Metrics is every series, histograms carried as buckets.
	Metrics []MetricPoint `json:"metrics"`
	// Events are the node's retained journal events, oldest first.
	Events []Event `json:"events,omitempty"`
}

// NodeSnapshot assembles the bundle's current snapshot document.
func (o *Observability) NodeSnapshot() NodeSnapshot {
	s := NodeSnapshot{At: o.Clock.Now()}
	if o.Registry != nil {
		s.Metrics = o.Registry.Snapshot()
	}
	s.Events = o.Journal.Events(EventFilter{})
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
			key, labels := mergeKey(p, snap.Node)
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

// mergeKey names the series p of node's snapshot folds into: its name plus
// its labels with "node" dropped. Pool stats are per-process resources, not
// per-stage work: summing them across nodes would hide which node's pool is
// exhausted, so their node label survives the merge (injected from the
// source name when the series has none).
func mergeKey(p MetricPoint, node string) (string, map[string]string) {
	keepNode := strings.HasPrefix(p.Name, "gates_pool_")
	labels := make(map[string]string, len(p.Labels)+1)
	for k, v := range p.Labels {
		if k == "node" && !keepNode {
			continue
		}
		labels[k] = v
	}
	if keepNode && labels["node"] == "" && node != "" {
		labels["node"] = node
	}
	key, _ := canonical(labels)
	return p.Name + "{" + key + "}", labels
}

// NodeStatus reports one source's health in a cluster view.
type NodeStatus struct {
	Name string    `json:"name"`
	OK   bool      `json:"ok"`
	Err  string    `json:"err,omitempty"`
	At   time.Time `json:"at"`
}

// StagePlacement is one stage instance's location and adaptation state, read
// off the labels and values of the series its node publishes.
type StagePlacement struct {
	Stage    string `json:"stage"`
	Instance string `json:"instance"`
	Node     string `json:"node,omitempty"`
	// Depth is the instance's current input-queue depth.
	Depth float64 `json:"depth"`
	// DTilde is the controller's long-term queue size factor d̃.
	DTilde JSONFloat `json:"d_tilde"`
	// ItemsIn and ItemsOut are the instance's lifetime item counters.
	ItemsIn  float64 `json:"items_in"`
	ItemsOut float64 `json:"items_out"`
	// Lambda and Mu are the arrival and service rates λ and μ: items per
	// virtual second since the previous collection, zero on the first. A
	// counter that moved backwards (a restarted instance) counts its
	// post-reset value, not a negative delta.
	Lambda float64 `json:"lambda"`
	Mu     float64 `json:"mu"`
	// Params holds each adjustment parameter's current value.
	Params map[string]float64 `json:"params,omitempty"`
}

func (p *StagePlacement) key() string { return p.Stage + "/" + p.Instance + "@" + p.Node }

// LinkRate is one emulated link's traffic.
type LinkRate struct {
	Link  string  `json:"link"`
	Bytes float64 `json:"bytes"`
	// Rate is bytes per virtual second since the previous collection.
	Rate float64 `json:"rate"`
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
	// depths, d̃, λ/μ and parameter values.
	Placements []StagePlacement `json:"placements,omitempty"`
	// Links is the traffic on each emulated link.
	Links []LinkRate `json:"links,omitempty"`
	// Latency summarizes each stage's source-to-here distribution.
	Latency []LatencySummary `json:"latency,omitempty"`
	// SLO is the violation detector's verdict for this collection.
	SLO SLOStatus `json:"slo"`
	// Bottlenecks is the cluster-wide backpressure attribution verdict
	// for this collection epoch, ranked over the merged series.
	Bottlenecks *AttributionReport `json:"bottlenecks,omitempty"`
	// Events are the newest recentTail events of each kind across all
	// nodes, ordered by (At, Node, Seq), newest last. An event that names
	// no node carries the name of the source it was scraped from.
	Events []Event `json:"events,omitempty"`
	// MergeErr reports a histogram bucket misalignment, if any.
	MergeErr string `json:"merge_err,omitempty"`
}

// recentTail bounds the events of each kind carried in a cluster view.
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

	mu      sync.Mutex
	sources []aggSource
	slo     *sloMonitor
	attr    *Attribution
	last    *ClusterView
}

type aggSource struct {
	name string
	fn   SnapshotFunc
}

// NewAggregator returns an empty aggregator on clk whose SLO detector
// reads its objectives from slo at every collection (a policy engine's
// SLOSource).
func NewAggregator(clk clock.Clock, slo SLOSource) *Aggregator {
	if clk == nil {
		panic("obs: NewAggregator requires a clock")
	}
	return &Aggregator{clk: clk, slo: newSLOMonitor(slo), attr: NewAttribution(clk)}
}

// SetJournal makes every SLO evaluation the aggregator runs record one slo
// event into j, and a transition into violation snapshot j to disk, so j's
// dump path decides whether a snapshot lands there. When j is also a
// source's journal (the launcher's own bundle), an evaluation's event
// reaches the cluster view at the next collection. Nil detaches.
func (a *Aggregator) SetJournal(j *Journal) {
	a.mu.Lock()
	a.slo.journal = j
	a.mu.Unlock()
}

// AddSource registers one node snapshot source under name.
func (a *Aggregator) AddSource(name string, fn SnapshotFunc) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sources = append(a.sources, aggSource{name: name, fn: fn})
}

// Collect scrapes every source, merges, runs one SLO evaluation, and
// returns the new view. Rates (λ, μ, link bytes/s) are counter deltas since
// the previous collection, whoever asked for it. Failed sources appear in
// Nodes with their error; their series simply drop out of the merge for
// this round.
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
	view.Links = linkRates(merged)
	deriveRates(view, a.last)
	view.Latency = latencySummaries(merged)
	view.SLO = a.slo.Evaluate(now, merged)
	a.violated.Store(view.SLO.Violated)
	view.Bottlenecks = a.attr.Observe(merged)
	view.Events = recentEvents(snaps)

	a.last = view
	return view
}

// Violated reports the SLO flag as of the last collection, lock-free — the
// form safe to publish as a registry gauge (anything taking mu would
// deadlock there: the gauge fires while Collect scrapes the local registry
// under mu).
func (a *Aggregator) Violated() bool { return a.violated.Load() }

// recentEvents merges every snapshot's journal into one timeline ordered by
// (At, Node, Seq) and keeps the newest recentTail events of each kind.
func recentEvents(snaps []NodeSnapshot) []Event {
	var all []Event
	for _, snap := range snaps {
		for _, ev := range snap.Events {
			if ev.Node == "" {
				ev.Node = snap.Node
			}
			all = append(all, ev)
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if !a.At.Equal(b.At) {
			return a.At.Before(b.At)
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Seq < b.Seq
	})
	perKind := make(map[EventKind]int)
	var out []Event
	for i := len(all) - 1; i >= 0; i-- {
		if perKind[all[i].Kind]++; perKind[all[i].Kind] <= recentTail {
			out = append(out, all[i])
		}
	}
	slices.Reverse(out)
	return out
}

// placements reads stage → node assignments and per-instance state off the
// per-node snapshots: one row per (stage, instance, node) that publishes a
// queue depth, the one series every running instance has.
func placements(snaps []NodeSnapshot) []StagePlacement {
	ident := func(snap NodeSnapshot, p MetricPoint) StagePlacement {
		node := p.Labels["node"]
		if node == "" {
			node = snap.Node
		}
		return StagePlacement{Stage: p.Labels["stage"], Instance: p.Labels["instance"], Node: node}
	}
	rows := make(map[string]*StagePlacement)
	for _, snap := range snaps {
		for _, p := range snap.Metrics {
			if p.Name == "gates_queue_depth" {
				r := ident(snap, p)
				r.Depth = float64(p.Value)
				rows[r.key()] = &r
			}
		}
	}
	for _, snap := range snaps {
		for _, p := range snap.Metrics {
			id := ident(snap, p)
			r := rows[id.key()]
			if r == nil {
				continue
			}
			switch p.Name {
			case MetricDTilde:
				r.DTilde = p.Value
			case "gates_stage_items_in_total":
				r.ItemsIn = float64(p.Value)
			case "gates_stage_items_out_total":
				r.ItemsOut = float64(p.Value)
			case MetricParamValue:
				if r.Params == nil {
					r.Params = make(map[string]float64)
				}
				r.Params[p.Labels["param"]] = float64(p.Value)
			}
		}
	}
	out := make([]StagePlacement, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		if out[i].Instance != out[j].Instance {
			return out[i].Instance < out[j].Instance
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// linkRates lists the merged per-link byte counters.
func linkRates(merged []MetricPoint) []LinkRate {
	var out []LinkRate
	for _, p := range merged {
		if p.Name == "gates_link_bytes_total" {
			out = append(out, LinkRate{Link: p.Labels["link"], Bytes: float64(p.Value)})
		}
	}
	return out
}

// deriveRates fills v's λ, μ and link rates from the counter deltas since
// prev, over virtual time. Nothing is derived without a previous view or
// when no virtual time has passed.
func deriveRates(v, prev *ClusterView) {
	if prev == nil {
		return
	}
	dt := v.At.Sub(prev.At).Seconds()
	if dt <= 0 {
		return
	}
	stages := make(map[string]*StagePlacement, len(prev.Placements))
	for i := range prev.Placements {
		stages[prev.Placements[i].key()] = &prev.Placements[i]
	}
	for i := range v.Placements {
		p := &v.Placements[i]
		if b := stages[p.key()]; b != nil {
			p.Lambda = counterDelta(p.ItemsIn, b.ItemsIn) / dt
			p.Mu = counterDelta(p.ItemsOut, b.ItemsOut) / dt
		}
	}
	links := make(map[string]float64, len(prev.Links))
	for _, l := range prev.Links {
		links[l.Link] = l.Bytes
	}
	for i := range v.Links {
		if b, ok := links[v.Links[i].Link]; ok {
			v.Links[i].Rate = counterDelta(v.Links[i].Bytes, b) / dt
		}
	}
}

// counterDelta returns how much a monotone counter advanced between two
// collections. A value below the previous one means the counter restarted
// (a stage instance was replaced), so everything since the reset counts.
func counterDelta(cur, prev float64) float64 {
	if cur < prev {
		return cur
	}
	return cur - prev
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

// Render writes the dashboard gates-launcher -top streams: per-instance
// placement, queue, backpressure, d̃, λ/μ and parameter values; link
// traffic; per-stage latency percentiles; the SLO verdict; and the most
// recent journal events.
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
		fmt.Fprintf(w, "%-14s %-4s %-12s %8s %8s %8s %10s %10s  %s\n",
			"STAGE", "INST", "NODE", "QUEUE", "BACKPR", "D~", "λ/s", "μ/s", "PARAMS")
		for _, p := range v.Placements {
			backpr := "-"
			if sv, ok := verdicts[p.Stage+"/"+p.Instance]; ok {
				backpr = fmt.Sprintf("%d%%", pct(float64(sv.InboundStallFrac)))
				if sv.Bottleneck {
					backpr += " *"
				}
			}
			dTilde := "-"
			if d := float64(p.DTilde); !math.IsNaN(d) {
				dTilde = fmt.Sprintf("%.3g", d)
			}
			fmt.Fprintf(w, "%-14s %-4s %-12s %8.0f %8s %8s %10.1f %10.1f  %s\n",
				p.Stage, p.Instance, p.Node, p.Depth, backpr, dTilde, p.Lambda, p.Mu, formatParams(p.Params))
		}
	}
	if len(v.Links) > 0 {
		fmt.Fprintf(w, "%-28s %12s %12s\n", "LINK", "BYTES", "B/s")
		for _, l := range v.Links {
			fmt.Fprintf(w, "%-28s %12.0f %12.0f\n", l.Link, l.Bytes, l.Rate)
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
	for _, ev := range v.Events {
		target := ev.Stage
		if target != "" {
			target = fmt.Sprintf("%s/%d", ev.Stage, ev.Instance)
		}
		if ev.Node != "" {
			target += "@" + ev.Node
		}
		fmt.Fprintf(w, "%s %-10s %s %s", ev.At.Format("15:04:05.000"), ev.Kind, target, ev.Detail)
		if ev.PolicyVersion != "" {
			fmt.Fprintf(w, " [policy %s]", ev.PolicyVersion)
		}
		fmt.Fprintln(w)
	}
	if v.MergeErr != "" {
		fmt.Fprintf(w, "merge error: %s\n", v.MergeErr)
	}
}

// formatParams renders parameter values as "name=value" pairs sorted by
// name.
func formatParams(params map[string]float64) string {
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		names[i] = fmt.Sprintf("%s=%.3g", name, params[name])
	}
	return strings.Join(names, " ")
}
