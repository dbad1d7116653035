package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
)

func counterPoint(name, node string, v float64) MetricPoint {
	labels := map[string]string{"node": node}
	return MetricPoint{Name: name, Kind: "counter", Labels: labels, Value: JSONFloat(v)}
}

func TestMergeMetricsDisjointNodes(t *testing.T) {
	snaps := []NodeSnapshot{
		{Node: "n1", Metrics: []MetricPoint{
			counterPoint("gates_items_total", "n1", 10),
			e2ePoint("sink", "n1", 50, 10, 0),
		}},
		{Node: "n2", Metrics: []MetricPoint{
			counterPoint("gates_items_total", "n2", 32),
			e2ePoint("sink", "n2", 20, 0, 5),
		}},
	}
	merged, err := MergeMetrics(snaps)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	byName := make(map[string]MetricPoint)
	for _, p := range merged {
		byName[p.Name] = p
		if _, ok := p.Labels["node"]; ok {
			t.Fatalf("%s kept its node label: %v", p.Name, p.Labels)
		}
	}
	if len(merged) != 2 {
		t.Fatalf("got %d series, want 2 (counters and histograms folded): %v", len(merged), merged)
	}
	if got := float64(byName["gates_items_total"].Value); got != 42 {
		t.Fatalf("counter sum = %g, want 42", got)
	}

	h := byName[MetricE2ELatency]
	if got := float64(h.Value); got != 85 {
		t.Fatalf("histogram count = %g, want 85", got)
	}
	// Count/sum invariants: cumulative buckets end at the total count, and
	// the merged Sum is the sum of the parts.
	if last := h.Buckets[len(h.Buckets)-1].Count; last != 85 {
		t.Fatalf("last cumulative bucket = %d, want total 85", last)
	}
	for i := 1; i < len(h.Buckets); i++ {
		if h.Buckets[i].Count < h.Buckets[i-1].Count {
			t.Fatalf("buckets not cumulative at %d: %+v", i, h.Buckets)
		}
	}
	wantSum := float64(snaps[0].Metrics[1].Sum + snaps[1].Metrics[1].Sum)
	if got := float64(h.Sum); math.Abs(got-wantSum) > 1e-9 {
		t.Fatalf("merged sum = %g, want %g", got, wantSum)
	}
	if h.Quantiles == nil || float64(h.Quantiles["p99"]) <= 0 {
		t.Fatalf("merged histogram missing quantiles: %+v", h.Quantiles)
	}
}

func TestMergeMetricsMisalignedBuckets(t *testing.T) {
	bad := e2ePoint("sink", "n2", 1, 0, 0)
	bad.Buckets[0].UpperBound = 0.2
	snaps := []NodeSnapshot{
		{Node: "n1", Metrics: []MetricPoint{e2ePoint("sink", "n1", 5, 0, 0)}},
		{Node: "n2", Metrics: []MetricPoint{bad}},
	}
	merged, err := MergeMetrics(snaps)
	if err == nil || !strings.Contains(err.Error(), "bucket bounds differ") {
		t.Fatalf("misalignment not reported: %v", err)
	}
	// The first node's distribution survives unmerged.
	if len(merged) != 1 || merged[0].Buckets[0].Count != 5 {
		t.Fatalf("merged = %+v", merged)
	}
}

// TestMergeMetricsKeepsLabelSetsApart folds remote series whose label
// values hold a flat key's separators: the two nodes' series differ, so the
// merge must keep both rather than sum them into one.
func TestMergeMetricsKeepsLabelSetsApart(t *testing.T) {
	snaps := []NodeSnapshot{
		{Node: "n1", Metrics: []MetricPoint{{Name: "x_total", Kind: "counter",
			Labels: map[string]string{"a": "1,b=2", "node": "n1"}, Value: 3}}},
		{Node: "n2", Metrics: []MetricPoint{{Name: "x_total", Kind: "counter",
			Labels: map[string]string{"a": "1", "b": "2", "node": "n2"}, Value: 4}}},
	}
	merged, err := MergeMetrics(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 2 {
		t.Fatalf("two distinct label sets merged into %d series: %+v", len(merged), merged)
	}
	for _, p := range merged {
		if want := map[string]float64{"1,b=2": 3, "1": 4}[p.Labels["a"]]; float64(p.Value) != want {
			t.Errorf("series %v = %g, want %g", p.Labels, float64(p.Value), want)
		}
	}
}

// TestAggregatorSLOTripAndClear scripts a deployment that falls behind —
// arrival rate above processing rate shows up as positive d-tilde — and
// then recovers after adaptation: the cluster flag must trip after the
// configured epochs and clear once growth stops.
func TestAggregatorSLOTripAndClear(t *testing.T) {
	clk := clock.NewManual()
	agg := NewAggregator(clk, objectives(SLOConfig{GrowthEpochs: 3}))
	j := NewJournal(clk, 16)
	agg.SetJournal(j)
	dTilde := 4.0
	agg.AddSource("n1", func() (NodeSnapshot, error) {
		return NodeSnapshot{At: clk.Now(), Metrics: []MetricPoint{dTildePoint("filter", "n1", dTilde)}}, nil
	})

	for epoch := 1; epoch <= 2; epoch++ {
		if v := agg.Collect(); v.SLO.Violated || agg.Violated() {
			t.Fatalf("flag tripped after %d epochs", epoch)
		}
		clk.Advance(time.Second)
	}
	view := agg.Collect()
	if !view.SLO.Violated || !agg.Violated() {
		t.Fatalf("flag not tripped on epoch 3: %+v", view.SLO)
	}

	// Adaptation converges: d-tilde drops to zero and the flag clears.
	dTilde = 0
	clk.Advance(time.Second)
	view = agg.Collect()
	if view.SLO.Violated || agg.Violated() {
		t.Fatalf("flag did not clear after convergence: %+v", view.SLO)
	}
	// The journal's transitions: the initial healthy baseline, the trip,
	// and the clear.
	var flips []bool
	for _, ev := range j.Events(EventFilter{Kind: EventSLO}) {
		if p := ev.Payload.(SLO); p.Transition {
			flips = append(flips, p.Violated)
		}
	}
	if len(flips) != 3 || flips[0] || !flips[1] || flips[2] {
		t.Fatalf("SLO transitions = %v, want healthy, trip, clear", flips)
	}
}

// TestClusterEventsKeepNodeSeqOrder gives two nodes events stamped at the
// same instant: the merged timeline must order them by (at, node, seq) —
// each node's events in its own sequence order — on every collection.
func TestClusterEventsKeepNodeSeqOrder(t *testing.T) {
	clk := clock.NewManual()
	at := clk.Now()
	journals := map[string]*Journal{"n1": NewJournal(clk, 64), "n2": NewJournal(clk, 64)}
	agg := NewAggregator(clk, nil)
	for _, name := range []string{"n2", "n1"} {
		j := journals[name]
		for i := 0; i < 10; i++ {
			j.Record(Event{At: at, Kind: EventLifecycle, Stage: "s", Instance: i})
		}
		agg.AddSource(name, func() (NodeSnapshot, error) {
			return NodeSnapshot{At: clk.Now(), Events: j.Events(EventFilter{})}, nil
		})
	}
	for round := 0; round < 50; round++ {
		evs := agg.Collect().Events
		if len(evs) != 20 {
			t.Fatalf("round %d: %d events, want 20", round, len(evs))
		}
		for i, ev := range evs {
			node, seq := "n1", uint64(i)
			if i >= 10 {
				node, seq = "n2", uint64(i-10)
			}
			if ev.Node != node || ev.Seq != seq {
				t.Fatalf("round %d: event %d is %s/%d, want %s/%d", round, i, ev.Node, ev.Seq, node, seq)
			}
		}
	}
}

// TestClusterEventsNewestPerKind: the view keeps the newest recentTail
// events of each kind, so a chatty kind does not push a rare one out.
func TestClusterEventsNewestPerKind(t *testing.T) {
	clk := clock.NewManual()
	j := NewJournal(clk, 256)
	j.Record(Event{Kind: EventMigration, Stage: "m"})
	for i := 0; i < 3*recentTail; i++ {
		clk.Advance(time.Second)
		j.Record(Event{Kind: EventAdaptation, Instance: i})
	}
	agg := NewAggregator(clk, nil)
	agg.AddSource("n1", func() (NodeSnapshot, error) {
		return NodeSnapshot{At: clk.Now(), Events: j.Events(EventFilter{})}, nil
	})
	evs := agg.Collect().Events
	if len(evs) != recentTail+1 || evs[0].Kind != EventMigration {
		t.Fatalf("view kept %d events starting %+v, want the migration plus %d adaptations", len(evs), evs[0], recentTail)
	}
	if last := evs[len(evs)-1]; last.Instance != 3*recentTail-1 || last.Node != "n1" {
		t.Fatalf("newest event %+v, want the last adaptation tagged with its source", last)
	}
}

func TestAggregatorFailedSource(t *testing.T) {
	clk := clock.NewManual()
	agg := NewAggregator(clk, nil)
	agg.AddSource("good", func() (NodeSnapshot, error) {
		return NodeSnapshot{At: clk.Now(), Metrics: []MetricPoint{counterPoint("gates_items_total", "n1", 7)}}, nil
	})
	agg.AddSource("bad", func() (NodeSnapshot, error) {
		return NodeSnapshot{}, fmt.Errorf("connection refused")
	})
	view := agg.Collect()
	if len(view.Nodes) != 2 || !view.Nodes[0].OK || view.Nodes[1].OK {
		t.Fatalf("nodes = %+v", view.Nodes)
	}
	if view.Nodes[1].Err == "" {
		t.Fatal("failed source's error not reported")
	}
	if len(view.Metrics) != 1 || float64(view.Metrics[0].Value) != 7 {
		t.Fatalf("healthy node's series lost: %+v", view.Metrics)
	}
	var buf strings.Builder
	view.Render(&buf)
	if !strings.Contains(buf.String(), "DOWN") {
		t.Fatalf("render hides the down node:\n%s", buf.String())
	}
}

func TestHTTPSource(t *testing.T) {
	want := NodeSnapshot{
		At:      time.Date(2000, 1, 1, 0, 0, 5, 0, time.UTC),
		Metrics: []MetricPoint{counterPoint("gates_items_total", "n1", 3)},
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/snapshot" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(want)
	}))
	defer srv.Close()

	// Bare host:port must gain the http:// scheme.
	fn := HTTPSource(srv.Client(), strings.TrimPrefix(srv.URL, "http://"))
	got, err := fn()
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	if !got.At.Equal(want.At) || len(got.Metrics) != 1 || got.Metrics[0].Name != "gates_items_total" {
		t.Fatalf("snapshot = %+v", got)
	}

	bad := HTTPSource(srv.Client(), srv.URL+"/missing")
	if _, err := bad(); err == nil {
		t.Fatal("non-200 scrape did not error")
	}
}

func TestClusterViewRender(t *testing.T) {
	clk := clock.NewManual()
	agg := NewAggregator(clk, objectives(SLOConfig{TargetP99: 10}))
	agg.AddSource("n1", func() (NodeSnapshot, error) {
		return NodeSnapshot{At: clk.Now(), Metrics: []MetricPoint{
			{Name: "gates_queue_depth", Kind: "gauge",
				Labels: map[string]string{"stage": "sink", "instance": "0", "node": "n1"},
				Value:  3},
			fanoutPoint("sink", "0", 0),
			e2ePoint("sink", "n1", 90, 10, 0),
		}, Events: []Event{{At: clk.Now(), Kind: EventPlacement, Stage: "sink", Node: "n1",
			PolicyVersion: "v7", Detail: "placed (rule pin-sink)"}}}, nil
	})
	view := agg.Collect()
	if len(view.Placements) != 1 || view.Placements[0].Node != "n1" || view.Placements[0].Depth != 3 {
		t.Fatalf("placements = %+v", view.Placements)
	}
	if len(view.Latency) != 1 || !view.Latency[0].Sink || view.Latency[0].Count != 100 {
		t.Fatalf("latency = %+v", view.Latency)
	}

	var buf strings.Builder
	view.Render(&buf)
	out := buf.String()
	for _, want := range []string{"gates cluster", "node n1", "STAGE", "sink (sink)", "slo: ok",
		"placement  sink/0@n1 placed (rule pin-sink) [policy v7]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// fakeStage publishes one stage instance's dashboard series the way
// pipeline.Stage.Instrument does, read at scrape time from its fields.
type fakeStage struct {
	depth, in, out, dTilde, rate float64
	withParam                    bool
}

func (s *fakeStage) publish(reg *Registry, stage, node string) {
	lb := map[string]string{"stage": stage, "instance": "0", "node": node}
	reg.GaugeFunc("gates_queue_depth", "", lb, func() float64 { return s.depth })
	reg.CounterFunc("gates_stage_items_in_total", "", lb, func() float64 { return s.in })
	reg.CounterFunc("gates_stage_items_out_total", "", lb, func() float64 { return s.out })
	reg.GaugeFunc(MetricDTilde, "", lb, func() float64 { return s.dTilde })
	if s.withParam {
		reg.GaugeFunc(MetricParamValue, "",
			map[string]string{"stage": stage, "instance": "0", "node": node, "param": "rate"},
			func() float64 { return s.rate })
	}
}

// localAggregator collects one in-process bundle, as the launcher does.
func localAggregator(clk clock.Clock) (*Aggregator, *Registry) {
	ob := New(clk, Config{})
	agg := NewAggregator(clk, nil)
	agg.AddSource("local", LocalSource(ob))
	return agg, ob.Registry
}

// TestClusterPlacementCarriesStageState: each instance's row gathers its
// node, queue depth, d̃, lifetime item counters and parameter values from
// the series labelled with its identity; a series of an instance that
// publishes no queue depth adds no row.
func TestClusterPlacementCarriesStageState(t *testing.T) {
	clk := clock.NewManual()
	agg, reg := localAggregator(clk)
	(&fakeStage{depth: 7, in: 40, out: 38, dTilde: 0.25, rate: 0.6, withParam: true}).publish(reg, "filter", "edge")
	(&fakeStage{depth: 1, in: 38}).publish(reg, "sink", "hub")
	reg.GaugeFunc(MetricParamValue, "",
		map[string]string{"stage": "ghost", "instance": "0", "node": "edge", "param": "rate"},
		func() float64 { return 1 })

	view := agg.Collect()
	if len(view.Placements) != 2 {
		t.Fatalf("placements = %+v, want filter and sink", view.Placements)
	}
	f, s := view.Placements[0], view.Placements[1]
	if f.Stage != "filter" || f.Node != "edge" || f.Depth != 7 || float64(f.DTilde) != 0.25 ||
		f.ItemsIn != 40 || f.ItemsOut != 38 || f.Params["rate"] != 0.6 || len(f.Params) != 1 {
		t.Fatalf("filter row = %+v", f)
	}
	if s.Stage != "sink" || s.Node != "hub" || s.ItemsIn != 38 || s.Params != nil {
		t.Fatalf("sink row = %+v", s)
	}
	if f.Lambda != 0 || f.Mu != 0 {
		t.Fatalf("first collection derived rates λ=%v μ=%v without a baseline", f.Lambda, f.Mu)
	}
}

// TestClusterRatesZeroWithoutElapsedTime: the first collection has no
// baseline and a collection at the same virtual instant has no interval, so
// both report zero λ and μ rather than dividing by zero, while the lifetime
// counters already read their values.
func TestClusterRatesZeroWithoutElapsedTime(t *testing.T) {
	clk := clock.NewManual()
	agg, reg := localAggregator(clk)
	st := &fakeStage{in: 10, out: 10}
	st.publish(reg, "p", "n1")

	if p := agg.Collect().Placements[0]; p.Lambda != 0 || p.Mu != 0 || p.ItemsIn != 10 {
		t.Fatalf("first collection: λ=%v μ=%v in=%v, want 0, 0, 10", p.Lambda, p.Mu, p.ItemsIn)
	}
	st.in, st.out = 100, 100
	if p := agg.Collect().Placements[0]; p.Lambda != 0 || p.Mu != 0 || p.ItemsIn != 100 {
		t.Fatalf("zero-dt collection: λ=%v μ=%v in=%v, want 0, 0, 100", p.Lambda, p.Mu, p.ItemsIn)
	}
}

// TestClusterRatesFromCounterDeltas: λ and μ are counter deltas over the
// virtual time between collections, and read zero again once the counters
// stop, while the lifetime counters hold.
func TestClusterRatesFromCounterDeltas(t *testing.T) {
	clk := clock.NewManual()
	agg, reg := localAggregator(clk)
	st := &fakeStage{}
	st.publish(reg, "mid", "n1")

	agg.Collect() // baseline: everything zero
	st.in, st.out = 100, 100
	clk.Advance(4 * time.Second)
	if p := agg.Collect().Placements[0]; p.Lambda != 25 || p.Mu != 25 {
		t.Fatalf("λ, μ = %v, %v, want 25, 25", p.Lambda, p.Mu)
	}

	st.in, st.out = 200, 180
	clk.Advance(4 * time.Second)
	if p := agg.Collect().Placements[0]; p.Lambda != 25 || p.Mu != 20 || p.ItemsOut != 180 {
		t.Fatalf("λ, μ, out = %v, %v, %v, want 25, 20, 180", p.Lambda, p.Mu, p.ItemsOut)
	}

	clk.Advance(2 * time.Second)
	if p := agg.Collect().Placements[0]; p.Lambda != 0 || p.Mu != 0 || p.ItemsIn != 200 {
		t.Fatalf("idle window: λ=%v μ=%v in=%v, want 0, 0, 200", p.Lambda, p.Mu, p.ItemsIn)
	}
}

// TestClusterLinkRates: each link row carries its lifetime byte counter and
// the bytes per virtual second since the previous collection — zero on the
// first collection, on a zero-dt collection and once the link goes quiet.
func TestClusterLinkRates(t *testing.T) {
	clk := clock.NewManual()
	agg, reg := localAggregator(clk)
	var linkBytes float64
	reg.CounterFunc("gates_link_bytes_total", "", map[string]string{"link": "n1->n2"},
		func() float64 { return linkBytes })

	if l := agg.Collect().Links; len(l) != 1 || l[0].Rate != 0 {
		t.Fatalf("first collection links = %+v, want one at 0 B/s", l)
	}
	linkBytes = 2000
	if l := agg.Collect().Links[0]; l.Bytes != 2000 || l.Rate != 0 {
		t.Fatalf("zero-dt link = %+v, want 2000 B at 0 B/s", l)
	}

	linkBytes = 4000
	clk.Advance(4 * time.Second)
	view := agg.Collect()
	if len(view.Links) != 1 || view.Links[0].Link != "n1->n2" || view.Links[0].Bytes != 4000 || view.Links[0].Rate != 500 {
		t.Fatalf("links = %+v, want n1->n2 at 4000 B and 500 B/s", view.Links)
	}

	clk.Advance(2 * time.Second)
	if l := agg.Collect().Links[0]; l.Bytes != 4000 || l.Rate != 0 {
		t.Fatalf("idle link = %+v, want 4000 B at 0 B/s", l)
	}
}

// TestClusterDashboardColumns: the rendered dashboard shows each instance's
// d̃, λ/μ and parameter values and each link's bytes and bytes/s, and
// says when it has nothing to show yet.
func TestClusterDashboardColumns(t *testing.T) {
	clk := clock.NewManual()
	agg, reg := localAggregator(clk)
	var empty strings.Builder
	agg.Collect().Render(&empty)
	if strings.Contains(empty.String(), "STAGE") || strings.Contains(empty.String(), "LINK") {
		t.Fatalf("empty view rendered stage or link tables:\n%s", empty.String())
	}

	st := &fakeStage{depth: 3, dTilde: 0.5, rate: 0.6, withParam: true}
	st.publish(reg, "sink", "n1")
	var linkBytes float64
	reg.CounterFunc("gates_link_bytes_total", "", map[string]string{"link": "n0->n1"},
		func() float64 { return linkBytes })
	agg.Collect()
	st.in, st.out, linkBytes = 40, 20, 4096
	clk.Advance(2 * time.Second)

	var buf strings.Builder
	agg.Collect().Render(&buf)
	out := buf.String()
	for _, want := range []string{"STAGE", "D~", "λ/s", "μ/s", "0.5", "20.0", "10.0", "rate=0.6",
		"LINK", "n0->n1", "4096", "2048"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestClusterRatesAcrossCounterReset: a restarted instance re-registers its
// series with fresh counters. A counter below its previous reading counts
// its post-reset value — 30 items into the new incarnation, not a negative
// delta from 100 — and the instance keeps one row.
func TestClusterRatesAcrossCounterReset(t *testing.T) {
	clk := clock.NewManual()
	agg, reg := localAggregator(clk)
	(&fakeStage{}).publish(reg, "p", "n1")
	agg.Collect()

	(&fakeStage{in: 100}).publish(reg, "p", "n1")
	clk.Advance(time.Second)
	if p := agg.Collect().Placements[0]; p.Lambda != 100 {
		t.Fatalf("pre-restart λ = %v, want 100", p.Lambda)
	}

	(&fakeStage{in: 30}).publish(reg, "p", "n1")
	clk.Advance(time.Second)
	view := agg.Collect()
	if len(view.Placements) != 1 {
		t.Fatalf("restart duplicated the instance: %+v", view.Placements)
	}
	if p := view.Placements[0]; p.ItemsIn != 30 || p.Lambda != 30 {
		t.Fatalf("post-restart in=%v λ=%v, want 30, 30", p.ItemsIn, p.Lambda)
	}
}

func TestNewAggregatorRequiresClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewAggregator(nil, ...) did not panic")
		}
	}()
	NewAggregator(nil, nil)
}
