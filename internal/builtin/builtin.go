// Package builtin publishes the repository codes and demo grid fabric the
// command-line tools share. It plays the role of the paper's web-hosted
// application repository: gates-launcher and gates-node resolve the stage
// codes named in XML descriptors against this registry.
package builtin

import (
	"fmt"
	"time"

	"github.com/gates-middleware/gates/internal/apps/compsteer"
	"github.com/gates-middleware/gates/internal/apps/countsamps"
	"github.com/gates-middleware/gates/internal/apps/intrusion"
	"github.com/gates-middleware/gates/internal/apps/surveillance"
	"github.com/gates-middleware/gates/internal/apps/tieredfilter"
	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/grid"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/pipeline"
	"github.com/gates-middleware/gates/internal/service"
	"github.com/gates-middleware/gates/internal/transport"
	"github.com/gates-middleware/gates/internal/workload"
)

// Register installs every built-in stage code into repo. The codes cover
// the paper's two application templates plus the two motivating-application
// demos:
//
//	workload/zipf            4×25,000-integer Zipf sub-streams (source)
//	countsamps/summarize     per-source counting-samples summaries
//	countsamps/merge         central summary merger
//	countsamps/raw           central raw-item counter (centralized version)
//	compsteer/sim            160 B/s simulation source
//	compsteer/sampler        adaptive sampler (rate 0.01–1)
//	compsteer/analyzer       8 ms/byte analysis stage
//	intrusion/log            site connection-log source (with an attacker)
//	intrusion/filter         per-site top-talker filter
//	intrusion/detector       global scan detector
//	surveillance/camera      10 fps camera source
//	surveillance/extract     adaptive feature extractor
//	surveillance/fusion      central multi-camera fusion
//	tieredfilter/detector    collision-event source (LHC motivating app)
//	tieredfilter/tier1       fixed energy cut near each detector
//	tieredfilter/tier2       adaptive quality cut
//	tieredfilter/collector   heavy per-event reconstruction
func Register(repo *service.Repository) error {
	RegisterWireTypes()
	cost := countsamps.DefaultCostModel()
	regs := []func() error{
		func() error {
			return repo.RegisterSource("workload/zipf", func(inst int) pipeline.Source {
				vals := workload.Take(workload.NewZipf(int64(inst)*101+7, 1.5, 50_000), 25_000)
				return &countsamps.StreamSource{Values: vals, Batch: 25, ItemWireSize: cost.ItemWireSize}
			})
		},
		func() error {
			return repo.RegisterProcessor("countsamps/summarize", func(inst int) pipeline.Processor {
				return countsamps.NewSummarizer(countsamps.SummarizerConfig{
					Cost: cost, Adaptive: true, Seed: int64(inst),
				})
			})
		},
		func() error {
			return repo.RegisterProcessor("countsamps/merge", func(int) pipeline.Processor {
				return &countsamps.SummaryMerger{Cost: cost}
			})
		},
		func() error {
			return repo.RegisterProcessor("countsamps/raw", func(int) pipeline.Processor {
				return &countsamps.RawCounter{Cost: cost, Seed: 1}
			})
		},
		func() error {
			return repo.RegisterSource("compsteer/sim", func(int) pipeline.Source {
				return &compsteer.SimulationSource{GenRate: 160, Duration: 300 * time.Second, PacketBytes: 16}
			})
		},
		func() error {
			return repo.RegisterProcessor("compsteer/sampler", func(int) pipeline.Processor {
				return &compsteer.Sampler{}
			})
		},
		func() error {
			return repo.RegisterProcessor("compsteer/analyzer", func(int) pipeline.Processor {
				return &compsteer.Analyzer{CostPerByte: 8 * time.Millisecond}
			})
		},
		func() error {
			return repo.RegisterSource("intrusion/log", func(inst int) pipeline.Source {
				src := &intrusion.LogSource{
					Site: inst, Background: 5000, Hosts: 2000, Seed: int64(inst + 1),
				}
				if inst == 1 {
					src.AttackerSrc = 0xBADF00D
					src.AttackRecords = 800
				}
				return src
			})
		},
		func() error {
			return repo.RegisterProcessor("intrusion/filter", func(inst int) pipeline.Processor {
				return intrusion.NewSiteFilter(intrusion.SiteFilterConfig{Adaptive: true, Seed: int64(inst)})
			})
		},
		func() error {
			return repo.RegisterProcessor("intrusion/detector", func(int) pipeline.Processor {
				return intrusion.NewDetector(intrusion.DetectorConfig{})
			})
		},
		func() error {
			return repo.RegisterSource("surveillance/camera", func(inst int) pipeline.Source {
				return &surveillance.Camera{
					ID: inst, FPS: 10, Duration: 120 * time.Second,
					SceneObjects: 8, Coverage: 0.6, Seed: int64(inst + 1),
				}
			})
		},
		func() error {
			return repo.RegisterProcessor("surveillance/extract", func(int) pipeline.Processor {
				return surveillance.NewExtractor(surveillance.ExtractorConfig{Adaptive: true})
			})
		},
		func() error {
			return repo.RegisterProcessor("surveillance/fusion", func(int) pipeline.Processor {
				return surveillance.NewFusion()
			})
		},
		func() error {
			return repo.RegisterSource("tieredfilter/detector", func(inst int) pipeline.Source {
				return &tieredfilter.DetectorSource{
					Detector: inst, Events: 60_000, Seed: int64(inst + 1),
					PerEventCost: time.Millisecond,
				}
			})
		},
		func() error {
			return repo.RegisterProcessor("tieredfilter/tier1", func(int) pipeline.Processor {
				return tieredfilter.NewFilter(tieredfilter.FilterConfig{
					Feature: tieredfilter.ByEnergy, FixedThreshold: 2,
				})
			})
		},
		func() error {
			return repo.RegisterProcessor("tieredfilter/tier2", func(int) pipeline.Processor {
				return tieredfilter.NewFilter(tieredfilter.FilterConfig{
					Feature: tieredfilter.ByQuality, Adaptive: true,
					Min: 0.5, Max: 6, Initial: 0.5,
				})
			})
		},
		func() error {
			return repo.RegisterProcessor("tieredfilter/collector", func(int) pipeline.Processor {
				return &tieredfilter.Collector{PerEventCost: 25 * time.Millisecond}
			})
		},
	}
	for _, reg := range regs {
		if err := reg(); err != nil {
			return err
		}
	}
	return nil
}

// wireTypes is the value-tag table of the built-in applications' struct
// payloads — part of the wire format (DESIGN.md §6): a tag, once shipped,
// keeps its type. Tags below 16 belong to transport's own value types.
var wireTypes = []struct {
	tag uint8
	new func() transport.WireValue
}{
	{16, func() transport.WireValue { return new(countsamps.Summary) }},
	{17, func() transport.WireValue { return new(intrusion.ConnBatch) }},
	{18, func() transport.WireValue { return new(intrusion.SiteReport) }},
	{19, func() transport.WireValue { return new(surveillance.Frame) }},
	{20, func() transport.WireValue { return new(surveillance.Detections) }},
	{21, func() transport.WireValue { return new(tieredfilter.EventBatch) }},
	{22, func() transport.WireValue { return new(compsteer.MeshChunk) }},
	{23, func() transport.WireValue { return new(compsteer.SteeringCommand) }},
}

// WireTypes returns one value of every built-in application's packet
// payload type: []int, which transport encodes itself, and everything
// RegisterWireTypes registers, in tag order.
func WireTypes() []any {
	vals := []any{[]int(nil)}
	for _, wt := range wireTypes {
		vals = append(vals, wt.new())
	}
	return vals
}

// RegisterWireTypes registers every built-in application's struct payload
// with transport under its fixed tag, so the payloads survive a TCP hop
// between gates-node processes. Registration is idempotent; callers
// composing their own repositories with built-in payload types may call it
// directly.
func RegisterWireTypes() {
	for _, wt := range wireTypes {
		transport.RegisterWireValue(wt.tag, wt.new)
	}
}

// Fabric builds the demo grid the command-line tools deploy onto: four
// stream-hosting edge nodes (src-1..src-4 hosting stream-1..stream-4, and
// doubling as mesh/camera/log sites) plus a 4-slot central node, with the
// given bandwidth on every cross-node link.
func Fabric(clk clock.Clock, bandwidth int64) (*grid.Directory, *netsim.Network, error) {
	dir := grid.NewDirectory()
	for i := 1; i <= 4; i++ {
		n := grid.Node{
			Name: fmt.Sprintf("src-%d", i), CPUPower: 1, MemoryMB: 1024, Slots: 3,
			Sources: []string{
				fmt.Sprintf("stream-%d", i),
				fmt.Sprintf("site-%d", i),
				fmt.Sprintf("camera-%d", i),
			},
		}
		if i == 1 {
			n.Sources = append(n.Sources, "mesh")
		}
		if err := dir.Register(n); err != nil {
			return nil, nil, err
		}
	}
	if err := dir.Register(grid.Node{Name: "central", CPUPower: 4, MemoryMB: 8192, Slots: 6}); err != nil {
		return nil, nil, err
	}
	net := netsim.NewNetwork(clk)
	net.SetDefaultLink(netsim.LinkConfig{Bandwidth: bandwidth, Quantum: 500 * time.Millisecond})
	for _, n := range dir.List() {
		net.AddNode(n.Name)
	}
	return dir, net, nil
}
