package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
)

func TestJournalWraparound(t *testing.T) {
	clk := clock.NewManual()
	j := NewJournal(clk, 4)
	for i := 0; i < 10; i++ {
		clk.Advance(time.Second)
		j.Record(Event{Kind: EventLifecycle, Stage: "s", Instance: i})
	}
	if got := j.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	evs := j.Events(EventFilter{})
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want capacity 4", len(evs))
	}
	// Oldest first, with monotone Seq stamped at record time.
	for i, ev := range evs {
		wantSeq := uint64(6 + i)
		if ev.Seq != wantSeq {
			t.Fatalf("event %d seq = %d, want %d (oldest evicted first)", i, ev.Seq, wantSeq)
		}
		if ev.Instance != 6+i {
			t.Fatalf("event %d instance = %d, want %d", i, ev.Instance, 6+i)
		}
		if ev.At.IsZero() {
			t.Fatalf("event %d missing virtual timestamp", i)
		}
	}
	if evs[0].At.After(evs[3].At) {
		t.Fatalf("timestamps out of order: %v then %v", evs[0].At, evs[3].At)
	}
}

func TestJournalSeqAndOrder(t *testing.T) {
	j := NewJournal(clock.NewManual(), 3)
	for i := 0; i < 5; i++ {
		j.Record(Event{Kind: EventAdaptation, Stage: "s", Payload: Adaptation{QueueLen: i}})
	}
	if j.Total() != 5 {
		t.Fatalf("total = %d", j.Total())
	}
	evs := j.Events(EventFilter{})
	if len(evs) != 3 {
		t.Fatalf("retained %d", len(evs))
	}
	// Oldest first, with monotone Seq stamped at record time.
	for i, ev := range evs {
		if ev.Seq != uint64(i+2) || ev.Payload.(Adaptation).QueueLen != i+2 {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	if newest := evs[len(evs)-1]; newest.Seq != 4 {
		t.Fatalf("newest = %+v, want seq 4", newest)
	}
}

func TestJournalEventsFilter(t *testing.T) {
	j := NewJournal(clock.NewManual(), 8)
	j.Record(Event{Kind: EventAdaptation, Stage: "analyze", Instance: 0, Payload: Adaptation{DeltaP: 1}})
	j.Record(Event{Kind: EventAdaptation, Stage: "reduce", Instance: 0, Payload: Adaptation{DeltaP: 2}})
	j.Record(Event{Kind: EventAdaptation, Stage: "analyze", Instance: 1, Payload: Adaptation{DeltaP: 3}})
	j.Record(Event{Kind: EventLifecycle, Stage: "analyze", Instance: 0})
	j.Record(Event{Kind: EventAdaptation, Stage: "analyze", Instance: 0, Payload: Adaptation{DeltaP: 4}})

	zero := 0
	got := j.Events(EventFilter{Kind: EventAdaptation, Stage: "analyze", Instance: &zero})
	if len(got) != 2 || got[0].Payload.(Adaptation).DeltaP != 1 || got[1].Payload.(Adaptation).DeltaP != 4 {
		t.Fatalf("kind+stage+instance filter = %+v", got)
	}
	if got := j.Events(EventFilter{Stage: "analyze"}); len(got) != 4 {
		t.Fatalf("stage filter kept %d events, want 4 (instances 0 and 1, every kind)", len(got))
	}
	if got := j.Events(EventFilter{Instance: &zero}); len(got) != 4 {
		t.Fatalf("instance-0 filter kept %d events, want 4", len(got))
	}
	got = j.Events(EventFilter{Since: 3})
	if len(got) != 2 || got[0].Seq != 3 || got[1].Seq != 4 {
		t.Fatalf("since filter = %+v, want seqs 3 and 4", got)
	}
	if got := j.Events(EventFilter{Kind: EventMigration}); got != nil {
		t.Fatalf("unmatched kind returned %+v", got)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Record(Event{Kind: EventSLO}) // must not panic
	j.SetDumpPath("x")
	if j.Total() != 0 || j.Events(EventFilter{}) != nil {
		t.Fatal("nil journal should report nothing")
	}
	if path, err := j.DumpToDisk("x"); path != "" || err != nil {
		t.Fatalf("nil DumpToDisk = (%q, %v)", path, err)
	}
}

func TestNilJournalIsInert(t *testing.T) {
	var j *Journal
	j.Record(Event{Kind: EventAdaptation, Payload: Adaptation{}})
	if j.Total() != 0 {
		t.Fatal("nil journal counted")
	}
	if j.Events(EventFilter{}) != nil {
		t.Fatal("nil journal has events")
	}
	zero := 0
	if j.Events(EventFilter{Kind: EventAdaptation, Stage: "x", Instance: &zero}) != nil {
		t.Fatal("nil journal matched a stage")
	}
	var sb strings.Builder
	if err := j.WriteJSON(&sb, EventFilter{}); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
}

// TestEmptyTrailLast checks that a journal with nothing recorded has no
// newest event to report.
func TestEmptyTrailLast(t *testing.T) {
	j := NewJournal(clock.NewManual(), 4)
	if j.Total() != 0 || len(j.Events(EventFilter{})) != 0 {
		t.Fatal("empty journal reported a newest event")
	}
}

// TestJournalRecordAllocs pins the record path of a payload-less event —
// what the pipeline records on pool exhaustion and emit stalls — at zero
// allocations.
func TestJournalRecordAllocs(t *testing.T) {
	j := NewJournal(clock.NewManual(), 16)
	ev := Event{Kind: EventStallOnset, Stage: "relay", Instance: 1, Node: "n1", Detail: "emit blocked"}
	if n := testing.AllocsPerRun(100, func() { j.Record(ev) }); n != 0 {
		t.Fatalf("Record allocates %v times per event, want 0", n)
	}
}

func TestJournalDumpToDisk(t *testing.T) {
	clk := clock.NewManual()
	j := NewJournal(clk, 8)
	j.Record(Event{Kind: EventStallOnset, Stage: "relay", Detail: "emit blocked"})

	// No path configured: a silent no-op, not an error.
	if path, err := j.DumpToDisk("sigquit"); path != "" || err != nil {
		t.Fatalf("dump without path = (%q, %v), want no-op", path, err)
	}

	target := filepath.Join(t.TempDir(), "journal.json")
	j.SetDumpPath(target)
	path, err := j.DumpToDisk("sigquit")
	if err != nil || path != target {
		t.Fatalf("DumpToDisk = (%q, %v), want %q", path, err, target)
	}
	data, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		Total  uint64  `json:"total"`
		Dumps  uint64  `json:"dumps"`
		Events []Event `json:"events"`
	}
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("dump is not JSON: %v", err)
	}
	// The dump itself is recorded, so the snapshot contains its own cause.
	if d.Total != 2 || len(d.Events) != 2 {
		t.Fatalf("dump carries %d/%d events, want 2 (stall + dump marker)", d.Total, len(d.Events))
	}
	if d.Events[1].Kind != EventDump || d.Events[1].Detail != "sigquit" {
		t.Fatalf("last event = %+v, want the dump marker", d.Events[1])
	}

	// A failing dump is remembered in the envelope, not just returned.
	j.SetDumpPath(filepath.Join(t.TempDir(), "no-such-dir", "x", "journal.json"))
	if _, err := j.DumpToDisk("sigquit"); err == nil {
		t.Fatal("dump into a missing directory should fail")
	}
	var sb strings.Builder
	if err := j.WriteJSON(&sb, EventFilter{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "dumpErr") {
		t.Fatalf("envelope does not remember the dump error: %s", sb.String())
	}
}

// TestFlightDumpRoundTrip writes a dump and reads it back: every retained
// event must survive the disk trip (same order, same envelope fields), with
// the dump marker appended as the final event.
func TestFlightDumpRoundTrip(t *testing.T) {
	clk := clock.NewManual()
	j := NewJournal(clk, 16)
	for i := 0; i < 5; i++ {
		clk.Advance(time.Second)
		j.Record(Event{Kind: EventLifecycle, Stage: "s", Instance: i, Detail: "running",
			Payload: Lifecycle{From: "init", To: "running"}})
	}
	target := filepath.Join(t.TempDir(), "journal.json")
	j.SetDumpPath(target)
	if _, err := j.DumpToDisk("slo-violation"); err != nil {
		t.Fatal(err)
	}

	want := j.Events(EventFilter{}) // includes the dump marker
	data, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		Total  uint64  `json:"total"`
		Events []Event `json:"events"`
	}
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("dump is not JSON: %v", err)
	}
	if len(d.Events) != len(want) {
		t.Fatalf("round-trip kept %d events, want %d", len(d.Events), len(want))
	}
	for i := range want {
		g, w := d.Events[i], want[i]
		if g.Seq != w.Seq || g.Kind != w.Kind || g.Stage != w.Stage ||
			g.Instance != w.Instance || g.Detail != w.Detail || !g.At.Equal(w.At) {
			t.Fatalf("event %d round-tripped as %+v, want %+v", i, g, w)
		}
	}
	if p, ok := d.Events[0].Payload.(map[string]any); !ok || p["to"] != "running" {
		t.Fatalf("lifecycle payload round-tripped as %#v", d.Events[0].Payload)
	}
	if last := d.Events[len(d.Events)-1]; last.Kind != EventDump || last.Detail != "slo-violation" {
		t.Fatalf("last event = %+v, want the slo-violation dump marker", last)
	}
}

// TestFlightDumpConcurrentNoClobber hammers DumpToDisk from several
// goroutines — the "second violation while the first dump is still being
// written" race. The temp+rename protocol must keep every read of the
// target a complete JSON document and leave no temp files behind.
func TestFlightDumpConcurrentNoClobber(t *testing.T) {
	clk := clock.NewManual()
	j := NewJournal(clk, 64)
	dir := t.TempDir()
	target := filepath.Join(dir, "journal.json")
	j.SetDumpPath(target)
	if _, err := j.DumpToDisk("seed"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				j.Record(Event{Kind: EventSLO, Stage: "s", Instance: w, Detail: "violated"})
				if _, err := j.DumpToDisk("slo-violation"); err != nil {
					t.Errorf("dump %d/%d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	// Reader: every observation of the target must parse — a clobbered or
	// half-written file fails Unmarshal.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; i < 200; i++ {
			data, err := os.ReadFile(target)
			if err != nil {
				t.Errorf("read during dumps: %v", err)
				return
			}
			var d map[string]any
			if err := json.Unmarshal(data, &d); err != nil {
				t.Errorf("observed a torn dump (%d bytes): %v", len(data), err)
				return
			}
		}
	}()
	wg.Wait()
	<-readerDone

	// All temp files were renamed into place or cleaned up on error.
	leftovers, err := filepath.Glob(filepath.Join(dir, ".gates-journal-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("dump left temp files behind: %v", leftovers)
	}
	var sb strings.Builder
	if err := j.WriteJSON(&sb, EventFilter{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\"dumps\": 101") {
		t.Fatalf("envelope should count 101 successful dumps: %s", sb.String())
	}
}

// TestAggregatorDumpsFlightOnViolation drives the aggregator's SLO detector
// into violation on a manual clock and asserts every evaluation lands in
// the journal as one slo event, and the transition into violation on disk.
func TestAggregatorDumpsFlightOnViolation(t *testing.T) {
	clk := clock.NewManual()
	j := NewJournal(clk, 32)
	target := filepath.Join(t.TempDir(), "journal.json")
	j.SetDumpPath(target)

	agg := NewAggregator(clk, nil)
	agg.SetJournal(j)
	agg.AddSource("n1", func() (NodeSnapshot, error) {
		return NodeSnapshot{
			At:      clk.Now(),
			Metrics: []MetricPoint{dTildePoint("hot", "n1", 2.5)},
		}, nil
	})

	// d-tilde must stay positive for DefaultSLOGrowthEpochs consecutive
	// evaluations before the detector trips.
	for i := 0; i < DefaultSLOGrowthEpochs; i++ {
		clk.Advance(time.Second)
		view := agg.Collect()
		if i < DefaultSLOGrowthEpochs-1 && view.SLO.Violated {
			t.Fatalf("tripped after %d epochs, want %d", i+1, DefaultSLOGrowthEpochs)
		}
	}
	if !agg.Violated() {
		t.Fatal("detector did not trip after growth epochs")
	}

	slo := j.Events(EventFilter{Kind: EventSLO})
	if len(slo) != DefaultSLOGrowthEpochs {
		t.Fatalf("%d slo events for %d evaluations", len(slo), DefaultSLOGrowthEpochs)
	}
	trip := slo[len(slo)-1]
	if p := trip.Payload.(SLO); !p.Violated || !p.Transition || p.Rule != "queue-growth" {
		t.Fatalf("tripping evaluation = %+v, want a queue-growth violation transition", p)
	}
	if !strings.Contains(trip.Detail, "queue growth") {
		t.Fatalf("SLO event detail = %q, want the violation reason", trip.Detail)
	}
	data, err := os.ReadFile(target)
	if err != nil {
		t.Fatalf("violation did not dump to disk: %v", err)
	}
	if !strings.Contains(string(data), "slo-violation") {
		t.Fatal("disk dump missing the slo-violation marker")
	}

	// Recovery records the matching transition but does not dump again.
	before, _ := os.Stat(target)
	agg2src := func() (NodeSnapshot, error) {
		return NodeSnapshot{
			At:      clk.Now(),
			Metrics: []MetricPoint{dTildePoint("hot", "n1", -1)},
		}, nil
	}
	agg.mu.Lock()
	agg.sources[0].fn = agg2src
	agg.mu.Unlock()
	clk.Advance(time.Second)
	if view := agg.Collect(); view.SLO.Violated {
		t.Fatal("detector did not recover")
	}
	evs := j.Events(EventFilter{})
	last := evs[len(evs)-1]
	if p, ok := last.Payload.(SLO); !ok || p.Violated || !p.Transition {
		t.Fatalf("last event = %+v, want the recovery transition", last)
	}
	after, _ := os.Stat(target)
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Fatal("recovery should not rewrite the disk dump")
	}
}

// TestSLOMonitorConcurrentEvaluateStatus exercises the detector under the
// race detector: collections evaluate it and mutate its growth map while
// scrapes read the violation flag and the journal — the
// /metrics-while-collecting pattern.
func TestSLOMonitorConcurrentEvaluateStatus(t *testing.T) {
	clk := clock.NewManual()
	agg := NewAggregator(clk, objectives(SLOConfig{TargetP99: 0.5}))
	j := NewJournal(clk, 64)
	agg.SetJournal(j)
	points := []MetricPoint{
		fanoutPoint("sink", "0", 0),
		e2ePoint("sink", "", 0, 100, 0),
		dTildePoint("hot", "n1", 1),
	}
	agg.AddSource("n1", func() (NodeSnapshot, error) {
		return NodeSnapshot{At: clk.Now(), Metrics: points}, nil
	})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = agg.Violated()
					_ = j.Events(EventFilter{Kind: EventSLO})
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		clk.Advance(time.Second)
		agg.Collect()
	}
	close(stop)
	wg.Wait()
	if !agg.Violated() {
		t.Fatal("flag down after 200 evaluations of a violating snapshot")
	}
	if got := j.Total(); got != 200 {
		t.Fatalf("journal recorded %d slo events for 200 evaluations", got)
	}
}

// TestAggregatorConcurrentScrape collects in a loop while other goroutines
// scrape the aggregator and the bundle's registry — the live /cluster,
// /metrics, /bottlenecks, and /events surfaces all at once.
func TestAggregatorConcurrentScrape(t *testing.T) {
	clk := clock.NewManual()
	ob := New(clk, Config{SampleEvery: -1})
	ob.Registry.GaugeFunc(MetricDTilde, "d~", map[string]string{
		"stage": "hot", "instance": "0", "node": "n1",
	}, func() float64 { return 1 })

	agg := NewAggregator(clk, nil)
	agg.SetJournal(ob.Journal)
	agg.AddSource("local", LocalSource(ob))
	ob.Registry.GaugeFunc("gates_slo_violation", "flag", nil, func() float64 {
		if agg.Violated() {
			return 1
		}
		return 0
	})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	scrape := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					fn()
				}
			}
		}()
	}
	scrape(func() { _ = agg.Collect() })
	scrape(func() { _ = agg.Violated() })
	scrape(func() { _ = ob.Registry.Snapshot() })
	scrape(func() { _ = ob.Attr().Last() })
	scrape(func() {
		ob.Journal.Record(Event{Kind: EventStallOnset, Stage: "hot"})
		_ = ob.Journal.Events(EventFilter{})
	})
	for i := 0; i < 100; i++ {
		clk.Advance(time.Second)
		agg.Collect()
	}
	close(stop)
	wg.Wait()
	if view := agg.Collect(); view.Bottlenecks == nil {
		t.Fatal("cluster view missing the attribution report")
	}
}
