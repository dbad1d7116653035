package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/gates-middleware/gates/internal/apps/countsamps"
	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/grid"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/pipeline"
	"github.com/gates-middleware/gates/internal/service"
)

// The paper deploys every application the same way (§3): its configuration
// document goes to the deployer, which matches stages to the directory's
// nodes, pulls their code from the repository and wires them across the
// network, and the launcher starts the result. fabric is that stack on an
// emulated grid, so each experiment reads as nodes, links, stage codes, an
// AppConfig and a tuning.

// The helper-node grid's bandwidths (migration and policy experiments).
const (
	baseBW      = 10 * 1024   // healthy inter-node bandwidth
	fastBW      = 1 << 20     // source <-> helper LAN
	collapsedBW = baseBW / 10 // the degraded uplink
)

// centralNode hosts count-samps' central stage.
var centralNode = grid.Node{Name: "central", CPUPower: 4, MemoryMB: 4096, Slots: 4}

// fabric is one run's grid: a scaled virtual clock, the directory of nodes,
// the emulated network between them, and the repository of stage codes.
type fabric struct {
	clk  clock.Clock
	dir  *grid.Directory
	net  *netsim.Network
	repo *service.Repository
	sw   clock.Stopwatch // started by launch
	err  error           // the first failed registration; launch returns it
}

// newFabric builds a grid of nodes on a clock compressed scale times.
func newFabric(scale float64, nodes ...grid.Node) (*fabric, error) {
	clk := clock.NewScaled(scale)
	f := &fabric{clk: clk, dir: grid.NewDirectory(), net: netsim.NewNetwork(clk), repo: service.NewRepository()}
	for _, n := range nodes {
		if err := f.dir.Register(n); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// source registers a source code in the repository.
func (f *fabric) source(code string, fn service.SourceFactory) {
	if err := f.repo.RegisterSource(code, fn); err != nil && f.err == nil {
		f.err = err
	}
}

// processor registers a processor code in the repository.
func (f *fabric) processor(code string, fn service.ProcessorFactory) {
	if err := f.repo.RegisterProcessor(code, fn); err != nil && f.err == nil {
		f.err = err
	}
}

// launch deploys appCfg through a deployer and launcher over the grid and
// starts it, with the stopwatch running from launch. setup, when not nil,
// configures the deployer first (replay buffer, policy, observability).
func (f *fabric) launch(appCfg *service.AppConfig, tuning service.StageTuning, setup func(*service.Deployer)) (*service.Application, error) {
	if f.err != nil {
		return nil, f.err
	}
	dep, err := service.NewDeployer(f.clk, f.dir, f.repo, f.net)
	if err != nil {
		return nil, err
	}
	if setup != nil {
		setup(dep)
	}
	launcher, err := service.NewLauncher(dep)
	if err != nil {
		return nil, err
	}
	f.sw = clock.NewStopwatch(f.clk)
	return launcher.LaunchConfig(context.Background(), appCfg, tuning)
}

// elapsed is the virtual time since launch.
func (f *fabric) elapsed() time.Duration { return f.sw.Elapsed() }

// streamNodes returns one node per count-samps sub-stream: src-i hosts
// stream-i.
func streamNodes(n, slots int) []grid.Node {
	nodes := make([]grid.Node, n)
	for i := range nodes {
		nodes[i] = grid.Node{
			Name: fmt.Sprintf("src-%d", i+1), CPUPower: 1, MemoryMB: 512, Slots: slots,
			Sources: []string{fmt.Sprintf("stream-%d", i+1)},
		}
	}
	return nodes
}

// registerCountSamps registers count-samps' three codes: a stream source per
// sub-stream, a summarizer per instance, and a merger that every central
// instance shares. It returns the merger, whose top-k is the answer.
func (f *fabric) registerCountSamps(streams [][]int, summarizer func(inst int) countsamps.SummarizerConfig) *countsamps.SummaryMerger {
	cost := countsamps.DefaultCostModel()
	merger := &countsamps.SummaryMerger{Cost: cost}
	f.source("countsamps/stream", func(inst int) pipeline.Source {
		return &countsamps.StreamSource{Values: streams[inst], Batch: 25, ItemWireSize: cost.ItemWireSize}
	})
	f.processor("countsamps/summarize", func(inst int) pipeline.Processor {
		return countsamps.NewSummarizer(summarizer(inst))
	})
	f.processor("countsamps/merge", func(int) pipeline.Processor { return merger })
	return merger
}

// summarizerConfig is the summarizer the post-paper experiments share:
// 100-item summaries flushed every 1 000 items, seeded per instance.
func summarizerConfig(seed int64) func(inst int) countsamps.SummarizerConfig {
	return func(inst int) countsamps.SummarizerConfig {
		return countsamps.SummarizerConfig{
			Cost:        countsamps.DefaultCostModel(),
			FlushEvery:  1000,
			SummarySize: 100,
			Seed:        seed + int64(inst),
		}
	}
}

// fixedTuning is the tuning the post-paper experiments share: adaptation is
// off, so the experiment's own variable is the only thing that moves.
func fixedTuning(stageID string, _ int) pipeline.StageConfig {
	if stageID == "stream" {
		return pipeline.StageConfig{DisableAdaptation: true, ComputeQuantum: time.Second}
	}
	return pipeline.StageConfig{QueueCapacity: 50, DisableAdaptation: true, ComputeQuantum: time.Second}
}

// newHelperGrid builds the migration and policy experiments' grid: one node
// per sub-stream, a well-connected helper with no special role, and the
// central node. Everything talks at baseBW except the source-to-helper LAN.
// It also returns the src-1 -> central uplink the experiments collapse.
func newHelperGrid(scale float64, sources int) (*fabric, *netsim.Link, error) {
	nodes := append(streamNodes(sources, 2),
		grid.Node{Name: "helper", CPUPower: 1, MemoryMB: 512, Slots: 4}, centralNode)
	f, err := newFabric(scale, nodes...)
	if err != nil {
		return nil, nil, err
	}
	f.net.SetDefaultLink(netsim.LinkConfig{Bandwidth: baseBW, Quantum: time.Second})
	for _, n := range nodes[:sources] {
		f.net.InstallLink(n.Name, "helper", netsim.NewLink(f.clk, netsim.LinkConfig{Bandwidth: fastBW, Quantum: time.Second}))
		f.net.InstallLink("helper", n.Name, netsim.NewLink(f.clk, netsim.LinkConfig{Bandwidth: fastBW, Quantum: time.Second}))
	}
	return f, f.net.Link("src-1", "central"), nil
}
