package experiments

import (
	"fmt"
	"time"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/apps/compsteer"
	"github.com/gates-middleware/gates/internal/grid"
	"github.com/gates-middleware/gates/internal/metrics"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/pipeline"
	"github.com/gates-middleware/gates/internal/service"
)

// steerParams configures one comp-steer run.
type steerParams struct {
	cfg Config
	// genRate is the simulation's data generation rate (bytes/s).
	genRate int
	// packetBytes is the mesh-update granularity.
	packetBytes int
	// costPerByte is the analysis cost.
	costPerByte time.Duration
	// linkBW constrains the sampler->analysis link (0 = unconstrained).
	linkBW int64
	// initialRate seeds the sampling factor.
	initialRate float64
	// duration is the simulation length (virtual).
	duration time.Duration
	// adaptOverride mutates the sampler's adaptation options (ablations).
	adaptOverride func(*adapt.Options)
	// adaptInterval overrides the observation interval (0 = 500ms).
	adaptInterval time.Duration
}

// steerResult is one run's outcome.
type steerResult struct {
	// Trace is the sampling factor over virtual time.
	Trace *metrics.TimeSeries
	// Converged is the settled value: the trace mean over the final
	// steady window of the generation period.
	Converged float64
}

// runCompSteer deploys one comp-steer pipeline (simulation node → analysis
// node) through the middleware stack and records the sampling factor the
// middleware chooses over time.
func runCompSteer(p steerParams) (*steerResult, error) {
	// Quick mode does not shrink these runs: convergence from the
	// paper's initial rates needs the full window, and a 300-virtual-
	// second run is only ~1 wall second at the default scale.
	scale := p.cfg.scale(300)
	if p.adaptInterval == 0 {
		p.adaptInterval = 500 * time.Millisecond
	}
	f, err := newFabric(scale,
		grid.Node{Name: "sim-node", CPUPower: 2, MemoryMB: 2048, Slots: 2, Sources: []string{"mesh"}},
		grid.Node{Name: "analysis-node", CPUPower: 2, MemoryMB: 2048},
	)
	if err != nil {
		return nil, err
	}
	f.net.Connect("sim-node", "analysis-node", netsim.LinkConfig{
		Bandwidth: p.linkBW, Quantum: 100 * time.Millisecond,
	})

	spec := compsteer.DefaultSamplerSpec()
	spec.Initial = p.initialRate
	f.source("compsteer/sim", func(int) pipeline.Source {
		return &compsteer.SimulationSource{
			GenRate: p.genRate, Duration: p.duration, PacketBytes: p.packetBytes,
		}
	})
	f.processor("compsteer/sampler", func(int) pipeline.Processor {
		return &compsteer.Sampler{Spec: spec}
	})
	f.processor("compsteer/analyzer", func(int) pipeline.Processor {
		return &compsteer.Analyzer{CostPerByte: p.costPerByte}
	})

	appCfg := &service.AppConfig{
		Name: "comp-steer",
		Stages: []service.StageDef{
			{ID: "sim", Code: "compsteer/sim", Source: true, NearSources: []string{"mesh"}},
			{ID: "sampler", Code: "compsteer/sampler", NearSources: []string{"mesh"}},
			{ID: "analysis", Code: "compsteer/analyzer", Requirement: service.ReqDef{Site: ""}},
		},
		Connections: []service.ConnDef{
			{From: "sim", To: "sampler"},
			{From: "sampler", To: "analysis"},
		},
	}

	trace := metrics.NewTimeSeriesAt(f.clk.Now())
	adaptOpts := func(capacity int) adapt.Options {
		o := adapt.Options{Capacity: capacity}
		if p.adaptOverride != nil {
			o = adapt.Defaults(capacity)
			p.adaptOverride(&o)
		}
		return o
	}
	tuning := func(stageID string, _ int) pipeline.StageConfig {
		switch stageID {
		case "sim":
			return pipeline.StageConfig{
				DisableAdaptation: true,
				ComputeQuantum:    100 * time.Millisecond,
			}
		case "sampler":
			return pipeline.StageConfig{
				QueueCapacity: 100,
				Adapt:         adaptOpts(100),
				AdaptInterval: p.adaptInterval,
				AdjustEvery:   2,
				OnAdjust: func(_ *pipeline.Stage, now time.Time, adjs []adapt.Adjustment) {
					for _, a := range adjs {
						trace.Record(now, a.New)
					}
				},
			}
		default: // analysis
			return pipeline.StageConfig{
				QueueCapacity:  50,
				Adapt:          adaptOpts(50),
				AdaptInterval:  p.adaptInterval,
				AdjustEvery:    2,
				ComputeQuantum: 200 * time.Millisecond,
			}
		}
	}

	app, err := f.launch(appCfg, tuning, nil)
	if err != nil {
		return nil, err
	}
	if err := app.Wait(); err != nil {
		return nil, fmt.Errorf("comp-steer run: %w", err)
	}

	// "Converged" reads the steady tail of the generation window,
	// excluding the end-of-stream drain.
	from := p.duration * 6 / 10
	return &steerResult{
		Trace:     trace,
		Converged: trace.WindowMean(from, p.duration),
	}, nil
}
