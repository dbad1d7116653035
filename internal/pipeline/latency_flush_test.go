package pipeline

import (
	"context"
	"maps"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/obs"
)

// registryValue reads one series out of reg's snapshot (a histogram's
// observation count), and whether it is there.
func registryValue(reg *obs.Registry, name string, labels map[string]string) (float64, bool) {
	for _, p := range reg.Snapshot() {
		if p.Name == name && maps.Equal(p.Labels, labels) {
			return float64(p.Value), true
		}
	}
	return 0, false
}

// TestShortRunReportsEveryE2EObservation is the scratch-flush regression
// guard: a 10-packet run must surface exactly 10 e2e latency observations
// in the registry once Run returns — no tail of a goroutine-local batch
// may be lost at stop.
func TestShortRunReportsEveryE2EObservation(t *testing.T) {
	clk := clock.NewManual()
	ob := obs.New(clk, obs.Config{SampleEvery: -1})
	e := New(clk)
	e.SetObservability(ob)

	vals := make([]int, 10)
	src, err := e.AddSourceStage("src", 0, &testSource{values: vals}, StageConfig{DisableAdaptation: true})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := e.AddProcessorStage("sink", 0, &collector{}, StageConfig{
		DisableAdaptation: true, QueueCapacity: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Connect(src, sink, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	count, ok := registryValue(ob.Registry, obs.MetricE2ELatency, sink.ObsLabels())
	if !ok {
		t.Fatal("sink has no e2e latency series")
	}
	if count != 10 {
		t.Fatalf("e2e observation count = %g, want exactly 10", count)
	}
}

// TestPausedStageLatencyScratchFlushed parks a stage mid-stream and
// asserts the registry already carries one e2e observation per consumed
// packet — the park path must flush the goroutine-local scratch before
// close(paused), or a checkpoint/migration reads an under-reported
// histogram.
func TestPausedStageLatencyScratchFlushed(t *testing.T) {
	clk := clock.NewManual()
	ob := obs.New(clk, obs.Config{SampleEvery: -1})
	e := New(clk)
	e.SetObservability(ob)

	values := make([]int, 100)
	src := &gatedTestSource{values: values, reached: make(chan struct{}), release: make(chan struct{})}
	sink, errs := func() (*Stage, error) {
		return e.AddProcessorStage("sink", 0, &collector{}, StageConfig{
			DisableAdaptation: true, QueueCapacity: 500,
		})
	}()
	if errs != nil {
		t.Fatal(errs)
	}
	s1, err := e.AddSourceStage("src", 0, src, StageConfig{DisableAdaptation: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Connect(s1, sink, nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background()) }()

	<-src.reached
	if err := sink.Pause(context.Background()); err != nil {
		t.Fatalf("pause: %v", err)
	}
	consumed := sink.Stats().PacketsIn
	count, ok := registryValue(ob.Registry, obs.MetricE2ELatency, sink.ObsLabels())
	if !ok && consumed > 0 {
		t.Fatalf("sink consumed %d packets but has no e2e latency series", consumed)
	}
	if uint64(count) != consumed {
		t.Fatalf("paused sink: registry shows %g e2e observations, stage consumed %d", count, consumed)
	}

	if err := sink.Resume(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	close(src.release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pipeline did not finish")
	}
	count, _ = registryValue(ob.Registry, obs.MetricE2ELatency, sink.ObsLabels())
	if count != 100 {
		t.Fatalf("final e2e observation count = %g, want exactly 100", count)
	}
}
