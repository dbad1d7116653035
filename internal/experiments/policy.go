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
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/pipeline"
	"github.com/gates-middleware/gates/internal/policy"
	"github.com/gates-middleware/gates/internal/service"
)

// Policy hot-reload experiment: the declarative control plane changing a
// live run's behavior.
//
// The distributed count-samps application runs under policy v1, whose
// rebalance threshold (20x) is deliberately too lax to react when the
// first source's uplink collapses to a tenth of its bandwidth: the cost
// ratio of staying put lands near 10x, below the bar, so the rebalancer
// logs "skip: below-threshold" decisions and the placement never changes.
// In the hot-reload mode, a new document v2 with a 2x threshold is loaded
// mid-run — the same reload an operator performs with POST /policy — and
// the very next sweep crosses the bar and migrates the affected summarizer
// to the well-connected helper node. The journal is the proof: the
// move decision cites policy v2 and the rule that fired, while everything
// before the reload cites v1.

// PolicyRow is one mode's measurements.
type PolicyRow struct {
	// Mode is "static-v1" or "hot-reload".
	Mode string
	// Seconds is the virtual completion time of the whole application.
	Seconds float64
	// Migrations is how many instances moved.
	Migrations int
	// FinalNode is where summarize/0 (the affected instance) ended up.
	FinalNode string
	// MoveVersion is the policy version the move decision cites ("" when
	// nothing moved).
	MoveVersion string
	// MoveRule is the rule the move decision cites ("" when nothing moved).
	MoveRule string
	// Skips counts rebalance skip decisions (cooldown or below-threshold).
	Skips int
	// Decisions counts the control-plane decisions recorded (placement,
	// rebalance, and policy events).
	Decisions int
	// Versions lists the policy versions loaded, in order.
	Versions []string
}

// PolicyResult compares a run pinned to policy v1 with one hot-reloaded to
// v2 mid-run.
type PolicyResult struct {
	// CollapseS is when (virtual seconds) the bandwidth collapsed.
	CollapseS float64
	// ReloadS is when v2 was loaded in the hot-reload mode.
	ReloadS float64
	Rows    []PolicyRow
}

// ExpPolicy runs the distributed count-samps application through the
// bandwidth collapse twice: once staying on policy v1 (threshold 20, no
// reaction) and once hot-reloading policy v2 (threshold 2) after the
// collapse, which visibly changes placement.
func ExpPolicy(cfg Config) (*PolicyResult, error) {
	collapseAt := 60 * time.Second
	if cfg.Quick {
		collapseAt = 15 * time.Second
	}
	reloadAt := collapseAt + 4*time.Second
	res := &PolicyResult{CollapseS: collapseAt.Seconds(), ReloadS: reloadAt.Seconds()}
	rows := make([]PolicyRow, 2)
	err := forEach(cfg.parallelism(), 2, func(i int) error {
		row, err := runPolicyMode(cfg, collapseAt, reloadAt, i == 1)
		if err != nil {
			return err
		}
		rows[i] = *row
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// policyV1 is the lax starting policy: rebalancing is on but its threshold
// is far above the ~10x cost ratio the collapse produces.
func policyV1() policy.Document {
	doc := policy.Document{Version: "v1"}
	doc.Rebalance.Interval = policy.Duration(2 * time.Second)
	doc.Rebalance.Threshold = 20
	doc.Rebalance.Stages = []string{"summarize"}
	doc.Normalize()
	return doc
}

// policyV2 is the tightened document an operator would POST to /policy
// after watching the collapse: same shape, threshold 2.
func policyV2() policy.Document {
	doc := policyV1()
	doc.Version = "v2"
	doc.Rebalance.Threshold = 2
	return doc
}

// runPolicyMode executes one mode and reads its story back out of the
// journal.
func runPolicyMode(cfg Config, collapseAt, reloadAt time.Duration, hotReload bool) (*PolicyRow, error) {
	const (
		baseBW      = 10 * 1024   // healthy inter-node bandwidth
		fastBW      = 1 << 20     // source <-> helper LAN
		collapsedBW = baseBW / 10 // the degraded uplink
		sources     = 4
	)
	clk := clock.NewScaled(cfg.scale(2000))
	cost := countsamps.DefaultCostModel()
	items := 25_000
	if cfg.Quick {
		items = 6_000
	}
	streams, _ := zipfStreams(cfg.seed(), sources, items)

	// Fabric: identical to the migration experiment — one node per
	// sub-stream, a well-connected helper, and the central node.
	dir := grid.NewDirectory()
	for i := 0; i < sources; i++ {
		if err := dir.Register(grid.Node{
			Name: fmt.Sprintf("src-%d", i+1), CPUPower: 1, MemoryMB: 512, Slots: 2,
			Sources: []string{fmt.Sprintf("stream-%d", i+1)},
		}); err != nil {
			return nil, err
		}
	}
	if err := dir.Register(grid.Node{Name: "helper", CPUPower: 1, MemoryMB: 512, Slots: 4}); err != nil {
		return nil, err
	}
	if err := dir.Register(grid.Node{Name: "central", CPUPower: 4, MemoryMB: 4096, Slots: 4}); err != nil {
		return nil, err
	}
	net := netsim.NewNetwork(clk)
	net.SetDefaultLink(netsim.LinkConfig{Bandwidth: baseBW, Quantum: time.Second})
	for i := 0; i < sources; i++ {
		src := fmt.Sprintf("src-%d", i+1)
		net.InstallLink(src, "helper", netsim.NewLink(clk, netsim.LinkConfig{Bandwidth: fastBW, Quantum: time.Second}))
		net.InstallLink("helper", src, netsim.NewLink(clk, netsim.LinkConfig{Bandwidth: fastBW, Quantum: time.Second}))
	}
	uplink := net.Link("src-1", "central")

	repo := service.NewRepository()
	merger := &countsamps.SummaryMerger{Cost: cost}
	if err := repo.RegisterSource("countsamps/stream", func(inst int) pipeline.Source {
		return &countsamps.StreamSource{Values: streams[inst], Batch: 25, ItemWireSize: cost.ItemWireSize}
	}); err != nil {
		return nil, err
	}
	if err := repo.RegisterProcessor("countsamps/summarize", func(inst int) pipeline.Processor {
		return countsamps.NewSummarizer(countsamps.SummarizerConfig{
			Cost:        cost,
			FlushEvery:  1000,
			SummarySize: 100,
			Seed:        cfg.seed() + int64(inst),
		})
	}); err != nil {
		return nil, err
	}
	if err := repo.RegisterProcessor("countsamps/merge", func(int) pipeline.Processor {
		return merger
	}); err != nil {
		return nil, err
	}

	dep, err := service.NewDeployer(clk, dir, repo, net)
	if err != nil {
		return nil, err
	}
	// The observed policy engine is the run's control plane: placements,
	// rebalance verdicts, and policy loads all land in its journal.
	ob := obs.New(clk, obs.Config{})
	dep.SetObservability(ob)
	eng := policy.New(clk, ob)
	if err := eng.Load(policyV1(), "experiment"); err != nil {
		return nil, err
	}
	dep.SetPolicy(eng)
	launcher, err := service.NewLauncher(dep)
	if err != nil {
		return nil, err
	}
	tuning := func(stageID string, _ int) pipeline.StageConfig {
		switch stageID {
		case "stream":
			return pipeline.StageConfig{DisableAdaptation: true, ComputeQuantum: time.Second}
		default:
			return pipeline.StageConfig{
				QueueCapacity: 50, DisableAdaptation: true, ComputeQuantum: time.Second,
			}
		}
	}

	sw := clock.NewStopwatch(clk)
	app, err := launcher.LaunchConfig(context.Background(), countSampsConfig(csDistributed, sources), tuning)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The mid-run events: the uplink collapses; in the hot-reload mode the
	// operator answers with policy v2 a few virtual seconds later.
	go func() {
		select {
		case <-clk.After(collapseAt):
			uplink.SetBandwidth(collapsedBW)
		case <-ctx.Done():
			return
		}
		if !hotReload {
			return
		}
		select {
		case <-clk.After(reloadAt - collapseAt):
			_ = eng.Load(policyV2(), "experiment-reload")
		case <-ctx.Done():
		}
	}()

	reb := service.NewPolicyRebalancer(app.Deployment, eng)
	go reb.Run(ctx)

	if err := app.Wait(); err != nil {
		return nil, err
	}
	cancel()

	row := &PolicyRow{
		Mode:       "static-v1",
		Seconds:    secondsOf(sw.Elapsed()),
		Migrations: reb.Migrations(),
	}
	if hotReload {
		row.Mode = "hot-reload"
	}
	if node, ok := app.Deployment.NodeFor("summarize", 0); ok {
		row.FinalNode = node
	}
	for _, ev := range ob.Journal.Events(obs.EventFilter{}) {
		d, ok := ev.Payload.(obs.Decision)
		if !ok {
			continue
		}
		row.Decisions++
		switch {
		case ev.Kind == obs.EventPolicy && d.Outcome == "loaded":
			row.Versions = append(row.Versions, ev.PolicyVersion)
		case ev.Kind == obs.EventRebalance && d.Outcome == "skip":
			row.Skips++
		case ev.Kind == obs.EventRebalance && d.Outcome == "move" && row.MoveVersion == "":
			row.MoveVersion = ev.PolicyVersion
			row.MoveRule = d.Rule
		}
	}
	return row, nil
}

// Render prints the comparison table and, when the hot reload visibly
// changed placement, the one-line verdict CI greps for.
func (r *PolicyResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Extension: policy-driven control plane under a mid-run hot reload")
	fmt.Fprintf(w, "  [src-1 -> central drops 10x at t=%.0fs; at t=%.0fs the hot-reload run tightens rebalance.threshold 20 -> 2 (policy v2)]\n",
		r.CollapseS, r.ReloadS)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Mode\tTime (s)\tMigrations\tsummarize/0\tMove cites\tSkips\tDecisions\tPolicies loaded")
	for _, row := range r.Rows {
		cites := "-"
		if row.MoveVersion != "" {
			cites = fmt.Sprintf("%s/%s", row.MoveVersion, row.MoveRule)
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%d\t%s\t%s\t%d\t%d\t%v\n",
			row.Mode, row.Seconds, row.Migrations, row.FinalNode, cites, row.Skips, row.Decisions, row.Versions)
	}
	tw.Flush()
	if len(r.Rows) == 2 {
		static, hot := r.Rows[0], r.Rows[1]
		if static.Migrations == 0 && hot.Migrations > 0 && hot.FinalNode != static.FinalNode {
			fmt.Fprintf(w, "policy-hotreload: placement changed %s -> %s under %s\n",
				static.FinalNode, hot.FinalNode, hot.MoveVersion)
		}
	}
}
