package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"github.com/gates-middleware/gates/internal/apps/countsamps"
	"github.com/gates-middleware/gates/internal/grid"
	"github.com/gates-middleware/gates/internal/metrics"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/pipeline"
	"github.com/gates-middleware/gates/internal/policy"
	"github.com/gates-middleware/gates/internal/service"
)

// Extension experiments: measurements the paper predicts but does not run.
//
// §5.2 closes with "with larger number of data sources and/or other
// networking configurations, a larger difference can be expected".
// ExtScalingSources quantifies the first clause (the distributed speedup as
// sources grow) and ExtHierarchy the second (a two-site WAN topology where a
// third, regional aggregation stage pays off — the "more than two stages"
// case of §3.1).

// ScalingRow is one source-count measurement.
type ScalingRow struct {
	Sources      int
	CentralizedS float64
	DistributedS float64
	// Speedup is CentralizedS / DistributedS.
	Speedup float64
}

// ScalingResult is the source-count scaling study.
type ScalingResult struct {
	Rows []ScalingRow
}

// ExtScalingSources reruns the Figure 5 comparison at 2, 4, 8 and 16
// sources (100 KB/s links). The centralized version's cost grows with the
// union stream while the distributed version parallelizes across sources,
// so the speedup must grow with the source count.
func ExtScalingSources(cfg Config) (*ScalingResult, error) {
	res := &ScalingResult{}
	for _, m := range []int{2, 4, 8, 16} {
		cen, err := runCountSamps(csParams{cfg: cfg, mode: csCentralized, bandwidth: 100_000, sources: m})
		if err != nil {
			return nil, fmt.Errorf("scaling centralized m=%d: %w", m, err)
		}
		dis, err := runCountSamps(csParams{cfg: cfg, mode: csDistributed, summarySize: 100, bandwidth: 100_000, sources: m})
		if err != nil {
			return nil, fmt.Errorf("scaling distributed m=%d: %w", m, err)
		}
		res.Rows = append(res.Rows, ScalingRow{
			Sources:      m,
			CentralizedS: cen.Elapsed.Seconds(),
			DistributedS: dis.Elapsed.Seconds(),
			Speedup:      cen.Elapsed.Seconds() / dis.Elapsed.Seconds(),
		})
	}
	return res, nil
}

// Render prints the scaling table.
func (r *ScalingResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Extension: distributed speedup vs. source count (100 KB/s links)")
	fmt.Fprintln(w, "  [paper §5.2: \"with larger number of data sources ... a larger difference can be expected\"]")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Sources\tCentralized (s)\tDistributed (s)\tSpeedup")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%d\t%.1f\t%.1f\t%.2fx\n", row.Sources, row.CentralizedS, row.DistributedS, row.Speedup)
	}
	tw.Flush()
}

// HierarchyRow is one topology's measurement.
type HierarchyRow struct {
	Topology string
	Seconds  float64
	Accuracy float64
	// WANBytes is the volume that crossed the inter-site links.
	WANBytes int64
}

// HierarchyResult compares flat and hierarchical aggregation.
type HierarchyResult struct {
	Rows []HierarchyRow
}

// ExtHierarchy runs count-samps on a two-site topology: four sources per
// site, fast intra-site links (1 MB/s), and a slow 2 KB/s wide-area link
// between the sites. The flat topology sends every remote source's
// summaries across the WAN; the hierarchical topology inserts a regional
// merger at the remote site (a third pipeline stage) so one aggregated
// stream crosses the WAN instead of four.
func ExtHierarchy(cfg Config) (*HierarchyResult, error) {
	res := &HierarchyResult{}
	for _, variant := range []struct {
		hier, auto bool
	}{
		{false, false}, // flat
		{true, false},  // hierarchical, hint-placed
		{true, true},   // hierarchical, topology-aware auto-placement
	} {
		row, err := runHierarchy(cfg, variant.hier, variant.auto)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the comparison.
func (r *HierarchyResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Extension: flat vs hierarchical aggregation (2 sites x 4 sources, 2 KB/s WAN)")
	fmt.Fprintln(w, "  [paper §3.1: \"more than two stages could also be required\"]")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Topology\tTime (s)\tAccuracy\tWAN bytes")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%d\n", row.Topology, row.Seconds, row.Accuracy, row.WANBytes)
	}
	tw.Flush()
}

// runHierarchy measures one topology. autoPlace drops the regional and
// global stages' near-source hints and lets the topology-aware planner
// derive the placement from the link bandwidths instead.
func runHierarchy(cfg Config, hierarchical, autoPlace bool) (HierarchyRow, error) {
	streams, truth := zipfStreams(cfg.seed(), 8, cfg.items())

	// Two sites, each a hub and four stream nodes: site a hosts the global
	// merger, so site b's traffic must cross the WAN.
	var nodes []grid.Node
	for s, site := range []string{"a", "b"} {
		nodes = append(nodes, grid.Node{
			Name: "hub-" + site, Site: site, CPUPower: 4, MemoryMB: 4096, Slots: 4,
			Sources: []string{"region-" + site},
		})
		for i := 1; i <= 4; i++ {
			nodes = append(nodes, grid.Node{
				Name: fmt.Sprintf("%s-src-%d", site, i), Site: site, CPUPower: 1, MemoryMB: 512, Slots: 2,
				Sources: []string{fmt.Sprintf("stream-%d", s*4+i)},
			})
		}
	}
	f, err := newFabric(cfg.scale(2000), nodes...)
	if err != nil {
		return HierarchyRow{}, err
	}
	// One shared WAN uplink per direction, keyed by the sending site: all
	// cross-site pairs compete for the same 2 KB/s, as they would on a real
	// site uplink.
	fast := netsim.LinkConfig{Bandwidth: netsim.BW1M, Quantum: time.Second}
	slow := netsim.LinkConfig{Bandwidth: 2_000, Quantum: time.Second}
	wan := map[string]*netsim.Link{"a": netsim.NewLink(f.clk, slow), "b": netsim.NewLink(f.clk, slow)}
	for _, from := range nodes {
		for _, to := range nodes {
			switch {
			case from.Name == to.Name:
			case from.Site == to.Site:
				f.net.Connect(from.Name, to.Name, fast)
			default:
				f.net.InstallLink(from.Name, to.Name, wan[from.Site])
			}
		}
	}

	merger := f.registerCountSamps(streams, summarizerConfig(cfg.seed()))
	f.processor("countsamps/regional", func(int) pipeline.Processor {
		return &countsamps.SummaryMerger{Cost: countsamps.DefaultCostModel(), RelayTopN: 100, RelayEvery: 4}
	})

	// The flat topology is count-samps' distributed version with its
	// central merger pinned to site a; the hierarchical one inserts a
	// regional merger per site between the summarizers and that merger.
	appCfg := countSampsConfig(csDistributed, 8)
	appCfg.Name = "count-samps-hierarchy"
	global := service.StageDef{ID: "global", Code: "countsamps/merge", NearSources: []string{"region-a"}}
	appCfg.Stages = appCfg.Stages[:2] // stream, summarize
	if hierarchical {
		regional := service.StageDef{ID: "regional", Code: "countsamps/regional", Instances: 2,
			NearSources: []string{"region-a", "region-b"}}
		if autoPlace {
			regional.NearSources = nil
			global.NearSources = nil
		}
		appCfg.Stages = append(appCfg.Stages, regional)
		appCfg.Connections = append(appCfg.Connections[:1],
			// Grouped fanout partitions the eight summarizers over
			// the two regional mergers: 0-3 feed site a's, 4-7 feed
			// site b's.
			service.ConnDef{From: "summarize", To: "regional", Fanout: service.FanoutGrouped},
			service.ConnDef{From: "regional", To: "global"},
		)
	} else {
		appCfg.Connections[1].To = "global"
	}
	appCfg.Stages = append(appCfg.Stages, global)

	var setup func(*service.Deployer)
	if autoPlace {
		// Topology awareness is a placement policy: the planner weighs
		// link bandwidth between communicating instances.
		doc := policy.DefaultDocument()
		doc.Placement.TopologyAware = true
		pol := policy.New(f.clk, nil)
		if err := pol.Load(doc, "experiment"); err != nil {
			return HierarchyRow{}, err
		}
		setup = func(dep *service.Deployer) { dep.SetPolicy(pol) }
	}
	tuning := func(stageID string, _ int) pipeline.StageConfig {
		if stageID == "stream" {
			return pipeline.StageConfig{DisableAdaptation: true, ComputeQuantum: time.Second}
		}
		return pipeline.StageConfig{ComputeQuantum: time.Second}
	}
	app, err := f.launch(appCfg, tuning, setup)
	if err != nil {
		return HierarchyRow{}, err
	}
	if err := app.Wait(); err != nil {
		return HierarchyRow{}, err
	}

	label := "flat (2 stages)"
	if hierarchical {
		label = "hierarchical (3 stages)"
		if autoPlace {
			label = "hierarchical (auto-placed)"
		}
	}
	return HierarchyRow{
		Topology: label,
		Seconds:  f.elapsed().Seconds(),
		Accuracy: metrics.TopKAccuracy(truth, merger.TopK(10), 10).Score(),
		WANBytes: wan["a"].Stats().Bytes + wan["b"].Stats().Bytes,
	}, nil
}
