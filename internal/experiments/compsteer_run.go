package experiments

import (
	"fmt"
	"math"
	"time"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/apps/compsteer"
	"github.com/gates-middleware/gates/internal/grid"
	"github.com/gates-middleware/gates/internal/metrics"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/pipeline"
	"github.com/gates-middleware/gates/internal/queuing"
	"github.com/gates-middleware/gates/internal/service"
)

// steerParams configures one comp-steer run. Its generation rate, analysis
// cost and link bandwidth are also the §4.1 model's inputs (see expected).
type steerParams struct {
	// genRate is the simulation's data generation rate (bytes/s).
	genRate int
	// packetBytes is the mesh-update granularity.
	packetBytes int
	// costPerByte is the analysis cost (0 = analysis is no constraint).
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

// steerCell is one comp-steer configuration of a convergence study.
type steerCell struct {
	label string
	p     steerParams
}

// settled is the window "Converged" reads: the steady tail of the generation
// period, excluding the end-of-stream drain.
func (p steerParams) settled() (from, to time.Duration) {
	return p.duration * 6 / 10, p.duration
}

// expected asks the §4.1 model for the run's sustainable sampling factor.
func (p steerParams) expected() (float64, error) {
	analysisRate := math.Inf(1)
	if p.costPerByte > 0 {
		analysisRate = 1 / p.costPerByte.Seconds()
	}
	return steeringModel(float64(p.genRate), analysisRate, float64(p.linkBW))
}

// runConvergence runs every cell on the experiment pool and returns one
// series per cell, in cell order.
func runConvergence(cfg Config, cells []steerCell) ([]ConvergenceSeries, error) {
	series := make([]ConvergenceSeries, len(cells))
	err := forEach(cfg.parallelism(), len(cells), func(i int) error {
		c := cells[i]
		trace, err := runCompSteer(cfg, c.p)
		if err != nil {
			return fmt.Errorf("%s: %w", c.label, err)
		}
		expected, err := c.p.expected()
		if err != nil {
			return err
		}
		series[i] = ConvergenceSeries{
			Label:     c.label,
			Expected:  expected,
			Converged: trace.WindowMean(c.p.settled()),
			Trace:     trace,
		}
		return nil
	})
	return series, err
}

// runCompSteer deploys one comp-steer pipeline (simulation node → analysis
// node) through the middleware stack and records the sampling factor the
// middleware chooses over time.
func runCompSteer(cfg Config, p steerParams) (*metrics.TimeSeries, error) {
	// Quick mode does not shrink these runs: convergence from the
	// paper's initial rates needs the full window, and a 300-virtual-
	// second run is only ~1 wall second at the default scale.
	scale := cfg.scale(300)
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
		o := adapt.Defaults(capacity)
		if p.adaptOverride != nil {
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
	return trace, nil
}

// steeringModel builds the §4.1 queueing network of a comp-steer run —
// generator → sampler → (link) → analysis — and asks it for the sustainable
// sampling factor. linkBW of 0 means an unconstrained link.
func steeringModel(genRate, analysisRate, linkBW float64) (float64, error) {
	stations := []queuing.Station{{Name: "sampler"}}
	if linkBW > 0 {
		stations = append(stations, queuing.Station{Name: "link", ServiceRate: linkBW})
	}
	stations = append(stations, queuing.Station{Name: "analysis", ServiceRate: analysisRate})
	n := queuing.New()
	for i, st := range stations {
		if err := n.AddStation(st); err != nil {
			return 0, err
		}
		if i > 0 {
			if err := n.Route(stations[i-1].Name, st.Name, 1); err != nil {
				return 0, err
			}
		}
	}
	if err := n.SetArrival("sampler", genRate); err != nil {
		return 0, err
	}
	return n.SustainableFraction("sampler")
}
