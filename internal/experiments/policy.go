package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"github.com/gates-middleware/gates/internal/obs"
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

// rebalancePolicy is a document whose only section sweeps the summarizers
// every 2 s and moves one when staying put costs threshold times its best
// alternative. Policy v1 is lax (20: the collapse's ~10x cost ratio never
// crosses it); v2, the tightened document an operator would POST to /policy
// after watching the collapse, uses 2.
func rebalancePolicy(version string, threshold float64) policy.Document {
	doc := policy.Document{Version: version}
	doc.Rebalance.Interval = policy.Duration(2 * time.Second)
	doc.Rebalance.Threshold = threshold
	doc.Rebalance.Stages = []string{"summarize"}
	doc.Normalize()
	return doc
}

// runPolicyMode executes one mode and reads its story back out of the
// journal.
func runPolicyMode(cfg Config, collapseAt, reloadAt time.Duration, hotReload bool) (*PolicyRow, error) {
	const sources = 4
	streams, _ := zipfStreams(cfg.seed(), sources, cfg.items())
	f, uplink, err := newHelperGrid(cfg.scale(2000), sources)
	if err != nil {
		return nil, err
	}
	f.registerCountSamps(streams, summarizerConfig(cfg.seed()))

	// The observed policy engine is the run's control plane: placements,
	// rebalance verdicts, and policy loads all land in its journal.
	ob := obs.New(f.clk, obs.Config{})
	eng := policy.New(f.clk, ob)
	if err := eng.Load(rebalancePolicy("v1", 20), "experiment"); err != nil {
		return nil, err
	}
	app, err := f.launch(countSampsConfig(csDistributed, sources), fixedTuning, func(dep *service.Deployer) {
		dep.SetObservability(ob)
		dep.SetPolicy(eng)
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The mid-run events: the uplink collapses; in the hot-reload mode the
	// operator answers with policy v2 a few virtual seconds later.
	go func() {
		select {
		case <-f.clk.After(collapseAt):
			uplink.SetBandwidth(collapsedBW)
		case <-ctx.Done():
			return
		}
		if !hotReload {
			return
		}
		select {
		case <-f.clk.After(reloadAt - collapseAt):
			_ = eng.Load(rebalancePolicy("v2", 2), "experiment-reload")
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
		Seconds:    f.elapsed().Seconds(),
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
