package obs

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
)

var sloBase = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// e2ePoint builds a cumulative e2e-latency histogram point with bounds
// {0.1, 1, +Inf}: low observations at or under 0.1s, mid in (0.1, 1], high
// beyond 1s.
func e2ePoint(stage, node string, low, mid, high uint64) MetricPoint {
	labels := map[string]string{"stage": stage, "instance": "0"}
	if node != "" {
		labels["node"] = node
	}
	total := low + mid + high
	return MetricPoint{
		Name: MetricE2ELatency, Kind: "histogram", Labels: labels,
		Value: JSONFloat(float64(total)),
		Sum:   JSONFloat(float64(total)) * 0.5,
		Buckets: []BucketCount{
			{UpperBound: 0.1, Count: low},
			{UpperBound: 1, Count: low + mid},
			{UpperBound: JSONFloat(math.Inf(1)), Count: total},
		},
	}
}

func fanoutPoint(stage, instance string, v float64) MetricPoint {
	return MetricPoint{Name: MetricFanout, Kind: "gauge",
		Labels: map[string]string{"stage": stage, "instance": instance},
		Value:  JSONFloat(v)}
}

func dTildePoint(stage, node string, v float64) MetricPoint {
	return MetricPoint{Name: MetricDTilde, Kind: "gauge",
		Labels: map[string]string{"stage": stage, "instance": "0", "node": node},
		Value:  JSONFloat(v)}
}

func TestSLOMonitorLatencyTripAndClear(t *testing.T) {
	m := NewSLOMonitor(SLOConfig{TargetP99: 0.5})
	j := NewJournal(clock.NewManual(), 8)
	m.SetJournal(j)

	slow := []MetricPoint{fanoutPoint("sink", "0", 0), e2ePoint("sink", "", 0, 100, 0)}
	st := m.Evaluate(sloBase, slow)
	if !st.Evaluated || !st.Violated {
		t.Fatalf("slow sink not flagged: %+v", st)
	}
	if float64(st.SinkP99) <= 0.5 {
		t.Fatalf("sink p99 = %g, want > target", float64(st.SinkP99))
	}
	if len(st.Reasons) == 0 || !strings.Contains(st.Reasons[0], "exceeds target") {
		t.Fatalf("reasons = %v", st.Reasons)
	}
	if !st.Since.Equal(sloBase) {
		t.Fatalf("since = %v, want trip time", st.Since)
	}

	fast := []MetricPoint{fanoutPoint("sink", "0", 0), e2ePoint("sink", "", 100, 0, 0)}
	st = m.Evaluate(sloBase.Add(time.Second), fast)
	if st.Violated {
		t.Fatalf("flag did not clear: %+v", st)
	}
	if !st.Since.Equal(sloBase.Add(time.Second)) {
		t.Fatalf("since not reset on recovery: %v", st.Since)
	}

	evs := j.Events(EventFilter{Kind: EventSLO})
	if len(evs) != 2 {
		t.Fatalf("journal = %+v, want one slo event per evaluation", evs)
	}
	trip, clear := evs[0].Payload.(SLO), evs[1].Payload.(SLO)
	if !trip.Violated || !trip.Transition || clear.Violated || !clear.Transition {
		t.Fatalf("slo events %+v, %+v, want trip then clear", trip, clear)
	}
	if trip.Rule != "sink-p99" || float64(trip.TargetP99) != 0.5 || !evs[0].At.Equal(sloBase) {
		t.Fatalf("trip event %+v, want the sink-p99 rule against 0.5s at the trip time", evs[0])
	}
}

func TestSLOMonitorQueueGrowthEpochs(t *testing.T) {
	m := NewSLOMonitor(SLOConfig{GrowthEpochs: 3})
	growing := []MetricPoint{dTildePoint("filter", "n1", 2.5)}
	for epoch := 1; epoch <= 2; epoch++ {
		if st := m.Evaluate(sloBase, growing); st.Violated {
			t.Fatalf("flagged after %d epochs, threshold is 3", epoch)
		}
	}
	st := m.Evaluate(sloBase, growing)
	if !st.Violated {
		t.Fatal("three consecutive positive d-tilde epochs not flagged")
	}
	if float64(st.MaxDTilde) != 2.5 {
		t.Fatalf("max d-tilde = %g, want 2.5", float64(st.MaxDTilde))
	}

	// One non-positive epoch resets the streak, clearing the flag.
	st = m.Evaluate(sloBase, []MetricPoint{dTildePoint("filter", "n1", -0.1)})
	if st.Violated {
		t.Fatalf("flag survived d-tilde <= 0: %+v", st)
	}
	// The streak really restarted: two more positive epochs stay healthy.
	for epoch := 1; epoch <= 2; epoch++ {
		if st := m.Evaluate(sloBase, growing); st.Violated {
			t.Fatalf("flagged %d epochs after reset", epoch)
		}
	}
}

func TestSLOMonitorGrowthForgetsVanishedSeries(t *testing.T) {
	m := NewSLOMonitor(SLOConfig{GrowthEpochs: 2})
	m.Evaluate(sloBase, []MetricPoint{dTildePoint("filter", "n1", 1)})
	// The stage migrates: its old series vanishes for an epoch, then a new
	// one appears on another node. The old streak must not carry over.
	m.Evaluate(sloBase, nil)
	if st := m.Evaluate(sloBase, []MetricPoint{dTildePoint("filter", "n2", 1)}); st.Violated {
		t.Fatalf("streak carried across a vanished series: %+v", st)
	}
}

func TestSinkStages(t *testing.T) {
	points := []MetricPoint{
		fanoutPoint("sink", "0", 0),
		fanoutPoint("mid", "0", 2),
		// A stage with any instance fanning out is not a sink, whatever
		// order the instances appear in.
		fanoutPoint("split", "0", 0),
		fanoutPoint("split", "1", 1),
	}
	sinks := SinkStages(points)
	if !sinks["sink"] || sinks["mid"] || sinks["split"] {
		t.Fatalf("sinks = %v", sinks)
	}
	if len(sinks) != 1 {
		t.Fatalf("extra entries: %v", sinks)
	}
}

func TestSinkP99MergesAcrossNodes(t *testing.T) {
	// The same sink stage reports from two nodes; its p99 must come from
	// the combined distribution: 100 fast + 100 slow packets put rank 198
	// in the (0.1, 1] bucket.
	points := []MetricPoint{
		fanoutPoint("sink", "0", 0),
		e2ePoint("sink", "n1", 100, 0, 0),
		e2ePoint("sink", "n2", 0, 100, 0),
		// A non-sink stage's latency must not contribute.
		fanoutPoint("mid", "0", 1),
		e2ePoint("mid", "n1", 0, 0, 100),
	}
	p99 := SinkP99(points)
	if p99 <= 0.1 || p99 > 1 {
		t.Fatalf("merged p99 = %g, want in (0.1, 1]", p99)
	}
	if got := SinkP99(nil); got != 0 {
		t.Fatalf("empty snapshot p99 = %g, want 0", got)
	}
}
