package pipeline

import (
	"context"
	"testing"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/obs"
)

// TestParamValuesPublished: a stage's adjustment parameters appear in the
// registry as gates_param_value{param=…}, whether the parameter is
// specified after the stage was instrumented (Init runs after Engine.Run
// instruments) or the stage is instrumented after the parameter exists.
func TestParamValuesPublished(t *testing.T) {
	build := func(clk clock.Clock) (*Engine, *Stage) {
		e := New(clk)
		src, err := e.AddSourceStage("src", 0, &testSource{values: make([]int, 10)}, StageConfig{DisableAdaptation: true})
		if err != nil {
			t.Fatal(err)
		}
		proc := &testProc{init: func(ctx *Context) error {
			_, err := ctx.SpecifyParam(adapt.ParamSpec{
				Name: "rate", Initial: 0.5, Min: 0.1, Max: 1, Step: 0.01,
				Direction: adapt.IncreaseSlowsProcessing,
			})
			return err
		}}
		sink, err := e.AddProcessorStage("sink", 0, proc, StageConfig{DisableAdaptation: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Connect(src, sink, nil); err != nil {
			t.Fatal(err)
		}
		return e, sink
	}
	paramValue := func(reg *obs.Registry, st *Stage) (float64, bool) {
		lb := st.ObsLabels()
		lb["param"] = "rate"
		return registryValue(reg, obs.MetricParamValue, lb)
	}

	clk := clock.NewManual()
	ob := obs.New(clk, obs.Config{})
	e, sink := build(clk)
	e.SetObservability(ob)
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v, ok := paramValue(ob.Registry, sink); !ok || v != 0.5 {
		t.Fatalf("param specified in Init: value %v, published %v; want 0.5", v, ok)
	}

	e, sink = build(clk)
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry(clk)
	sink.Instrument(reg)
	if v, ok := paramValue(reg, sink); !ok || v != 0.5 {
		t.Fatalf("late Instrument: value %v, published %v; want 0.5", v, ok)
	}
}
