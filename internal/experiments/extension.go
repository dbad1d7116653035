package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"github.com/gates-middleware/gates/internal/apps/countsamps"
	"github.com/gates-middleware/gates/internal/clock"
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
			CentralizedS: secondsOf(cen.Elapsed),
			DistributedS: secondsOf(dis.Elapsed),
			Speedup:      secondsOf(cen.Elapsed) / secondsOf(dis.Elapsed),
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
	scale := cfg.scale(2000)
	clk := clock.NewScaled(scale)
	cost := countsamps.DefaultCostModel()
	items := 25_000
	if cfg.Quick {
		items = 6_000
	}
	streams, truth := zipfStreams(cfg.seed(), 8, items)

	// Two sites: site-a hosts the global merger; site-b's traffic must
	// cross the WAN.
	dir := grid.NewDirectory()
	net := netsim.NewNetwork(clk)
	fast := netsim.LinkConfig{Bandwidth: netsim.BW1M, Quantum: time.Second}
	slow := netsim.LinkConfig{Bandwidth: 2_000, Quantum: time.Second}
	// One shared WAN uplink per direction: all cross-site pairs compete
	// for the same 2 KB/s, as they would on a real site uplink.
	wanAB := netsim.NewLink(clk, slow)
	wanBA := netsim.NewLink(clk, slow)
	wanLinks := []*netsim.Link{wanAB, wanBA}
	names := make([]string, 0, 10)
	for site := 0; site < 2; site++ {
		siteName := []string{"a", "b"}[site]
		hub := fmt.Sprintf("hub-%s", siteName)
		if err := dir.Register(grid.Node{
			Name: hub, Site: siteName, CPUPower: 4, MemoryMB: 4096, Slots: 4,
			Sources: []string{fmt.Sprintf("region-%s", siteName)},
		}); err != nil {
			return HierarchyRow{}, err
		}
		names = append(names, hub)
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("%s-src-%d", siteName, i+1)
			if err := dir.Register(grid.Node{
				Name: name, Site: siteName, CPUPower: 1, MemoryMB: 512, Slots: 2,
				Sources: []string{fmt.Sprintf("stream-%d", site*4+i+1)},
			}); err != nil {
				return HierarchyRow{}, err
			}
			names = append(names, name)
		}
	}
	siteOf := func(name string) byte {
		if name == "hub-a" || name[0] == 'a' {
			return 'a'
		}
		return 'b'
	}
	for _, from := range names {
		for _, to := range names {
			if from == to {
				continue
			}
			if siteOf(from) == siteOf(to) {
				net.Connect(from, to, fast)
			} else if siteOf(from) == 'a' {
				net.InstallLink(from, to, wanAB)
			} else {
				net.InstallLink(from, to, wanBA)
			}
		}
	}

	repo := service.NewRepository()
	merger := &countsamps.SummaryMerger{Cost: cost}
	if err := repo.RegisterSource("h/stream", func(inst int) pipeline.Source {
		return &countsamps.StreamSource{Values: streams[inst], Batch: 25, ItemWireSize: cost.ItemWireSize}
	}); err != nil {
		return HierarchyRow{}, err
	}
	if err := repo.RegisterProcessor("h/summarize", func(inst int) pipeline.Processor {
		return countsamps.NewSummarizer(countsamps.SummarizerConfig{
			Cost: cost, SummarySize: 100, Seed: cfg.seed() + int64(inst),
		})
	}); err != nil {
		return HierarchyRow{}, err
	}
	if err := repo.RegisterProcessor("h/regional", func(int) pipeline.Processor {
		return &countsamps.SummaryMerger{Cost: cost, RelayTopN: 100, RelayEvery: 4}
	}); err != nil {
		return HierarchyRow{}, err
	}
	if err := repo.RegisterProcessor("h/global", func(int) pipeline.Processor {
		return merger
	}); err != nil {
		return HierarchyRow{}, err
	}

	near := make([]string, 8)
	for i := range near {
		near[i] = fmt.Sprintf("stream-%d", i+1)
	}
	appCfg := &service.AppConfig{
		Name: "count-samps-hierarchy",
		Stages: []service.StageDef{
			{ID: "stream", Code: "h/stream", Source: true, Instances: 8, NearSources: near},
			{ID: "summarize", Code: "h/summarize", Instances: 8, NearSources: near},
		},
	}
	if hierarchical {
		regional := service.StageDef{ID: "regional", Code: "h/regional", Instances: 2,
			NearSources: []string{"region-a", "region-b"}}
		global := service.StageDef{ID: "global", Code: "h/global",
			NearSources: []string{"region-a"}}
		if autoPlace {
			regional.NearSources = nil
			global.NearSources = nil
		}
		appCfg.Stages = append(appCfg.Stages, regional, global)
		appCfg.Connections = []service.ConnDef{
			{From: "stream", To: "summarize", Fanout: service.FanoutPairwise},
			// Grouped fanout partitions the eight summarizers over
			// the two regional mergers: 0-3 feed site a's, 4-7 feed
			// site b's.
			{From: "summarize", To: "regional", Fanout: service.FanoutGrouped},
			{From: "regional", To: "global"},
		}
	} else {
		appCfg.Stages = append(appCfg.Stages,
			service.StageDef{ID: "global", Code: "h/global", NearSources: []string{"region-a"}},
		)
		appCfg.Connections = []service.ConnDef{
			{From: "stream", To: "summarize", Fanout: service.FanoutPairwise},
			{From: "summarize", To: "global"},
		}
	}

	dep, err := service.NewDeployer(clk, dir, repo, net)
	if err != nil {
		return HierarchyRow{}, err
	}
	if autoPlace {
		// Topology awareness is a placement policy: the planner weighs
		// link bandwidth between communicating instances.
		doc := policy.DefaultDocument()
		doc.Placement.TopologyAware = true
		pol := policy.New(clk, nil)
		if err := pol.Load(doc, "experiment"); err != nil {
			return HierarchyRow{}, err
		}
		dep.SetPolicy(pol)
	}
	launcher, err := service.NewLauncher(dep)
	if err != nil {
		return HierarchyRow{}, err
	}
	tuning := func(stageID string, _ int) pipeline.StageConfig {
		if stageID == "stream" {
			return pipeline.StageConfig{DisableAdaptation: true, ComputeQuantum: time.Second}
		}
		return pipeline.StageConfig{ComputeQuantum: time.Second}
	}
	sw := clock.NewStopwatch(clk)
	app, err := launcher.LaunchConfig(context.Background(), appCfg, tuning)
	if err != nil {
		return HierarchyRow{}, err
	}
	if err := app.Wait(); err != nil {
		return HierarchyRow{}, err
	}

	var wan int64
	for _, l := range wanLinks {
		wan += l.Stats().Bytes
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
		Seconds:  secondsOf(sw.Elapsed()),
		Accuracy: metrics.TopKAccuracy(truth, merger.TopK(10), 10).Score(),
		WANBytes: wan,
	}, nil
}
