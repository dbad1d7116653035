package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"
	"text/tabwriter"
	"time"

	"github.com/gates-middleware/gates/internal/grid"
	"github.com/gates-middleware/gates/internal/metrics"
	"github.com/gates-middleware/gates/internal/pipeline"
	"github.com/gates-middleware/gates/internal/service"
)

// Chaos experiment: a node crash under checkpointed recovery.
//
// The distributed count-samps application runs with every summarizer on its
// own edge node and one idle standby. Partway through, the node hosting the
// first summarizer is killed outright — links severed, health beacons gone.
// The recovery controller must detect the death from missed health epochs,
// re-place the summarizer on the standby, restore its latest checkpointed
// sketch, and replay the black-holed upstream interval from the source's
// ring. The verdict line compares the result against a fault-free run: the
// recovered stream must reach the merger with full sequence coverage and
// essentially undamaged accuracy (the restored sketch re-derives the same
// summaries it would have produced in place).

// ChaosRow is one run mode's measurements.
type ChaosRow struct {
	// Mode is "no-failure" or "kill-recover".
	Mode string
	// Seconds is the virtual completion time of the whole application.
	Seconds float64
	// Accuracy is the final top-10 membership accuracy at the merger.
	Accuracy float64
	// Recoveries is how many instances the controller moved (0 baseline).
	Recoveries int
	// DetectS is the virtual delay from the kill to recovery starting.
	DetectS float64
	// RecoverS is the virtual duration of the recovery itself.
	RecoverS float64
	// Replayed and Discarded are the recovery's packet accounting.
	Replayed  int
	Discarded int
	// Restored reports whether checkpointed state was rewound.
	Restored bool
	// Gap reports a replay interval that outran a ring's retention.
	Gap bool
	// Coverage is the minimum, over summarizer instances, of the merger's
	// received-sequence watermark over the instance's final emission
	// cursor — 1.0 means no summary was lost.
	Coverage float64
	// Dups is how many replay-overlap packets the merger's watermark
	// dropped (the at-least-once overlap made effectively-once).
	Dups uint64
}

// ChaosResult holds the fault-free and kill-recover runs.
type ChaosResult struct {
	// KillS is when (virtual seconds) the node was killed.
	KillS float64
	Rows  []ChaosRow
}

// ExpChaos runs the distributed count-samps application to completion twice:
// untouched, and with the first summarizer's node killed mid-stream under an
// armed checkpoint/recovery plane.
func ExpChaos(cfg Config) (*ChaosResult, error) {
	killAt := 60 * time.Second
	if cfg.Quick {
		killAt = 15 * time.Second
	}
	res := &ChaosResult{KillS: killAt.Seconds()}
	rows := make([]ChaosRow, 2)
	err := forEach(cfg.parallelism(), 2, func(i int) error {
		scale := cfg.scale(1000)
		for {
			row, err := runChaos(cfg, scale, killAt, i == 1)
			if err != nil {
				return err
			}
			rows[i] = *row
			// Virtual time is deterministic, but the failure detector and
			// the killer run on wall-clock goroutines: under a loaded box
			// a timer slip can let the stream finish before the missed
			// health epochs accumulate, and the kill then recovers
			// nothing. That violates the experiment's premise (a crash
			// mid-stream), so slow the compression — widening the wall
			// margin around every virtual deadline — and rerun.
			if i == 0 || row.Recoveries > 0 || scale <= 125 {
				return nil
			}
			scale /= 2
		}
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// runChaos executes one mode: chaos=false is the fault-free baseline.
func runChaos(cfg Config, scale float64, killAt time.Duration, chaos bool) (*ChaosRow, error) {
	const sources = 4
	streams, truth := zipfStreams(cfg.seed(), sources, cfg.items())

	// Grid: one node per sub-stream, one edge node per summarizer plus an
	// idle standby (the only free edge slot, so recovery's destination is
	// forced), and the central node. Links are unlimited: the failure, not
	// bandwidth, is the experiment's variable.
	nodes := streamNodes(sources, 1)
	for i := 1; i <= sources; i++ {
		nodes = append(nodes, grid.Node{Name: fmt.Sprintf("edge-%d", i), CPUPower: 1, MemoryMB: 512, Slots: 1, Site: "edge"})
	}
	nodes = append(nodes, grid.Node{Name: "edge-standby", CPUPower: 1, MemoryMB: 512, Slots: 1, Site: "edge"}, centralNode)
	f, err := newFabric(scale, nodes...)
	if err != nil {
		return nil, err
	}
	merger := f.registerCountSamps(streams, summarizerConfig(cfg.seed()))

	appCfg := countSampsConfig(csDistributed, sources)
	// Pin summarizers to the edge pool instead of near their sources: the
	// standby then is the one legal recovery destination.
	for i := range appCfg.Stages {
		if appCfg.Stages[i].ID == "summarize" {
			appCfg.Stages[i].NearSources = nil
			appCfg.Stages[i].Requirement.Site = "edge"
		}
	}
	app, err := f.launch(appCfg, fixedTuning, func(dep *service.Deployer) {
		dep.SetReplayBuffer(4096)
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	store := service.NewCheckpointStore()
	ck, err := service.NewCheckpointer(app.Deployment, store, 5*time.Second)
	if err != nil {
		return nil, err
	}
	rec, err := service.NewRecovery(app.Deployment, store, 2*time.Second, 2)
	if err != nil {
		return nil, err
	}

	var killMu sync.Mutex
	var killT time.Time
	if chaos {
		ck.Start(ctx)
		defer ck.Stop()
		rec.Start(ctx)
		defer rec.Stop()
		victim, ok := app.Deployment.NodeFor("summarize", 0)
		if !ok {
			return nil, fmt.Errorf("chaos: summarize/0 not placed")
		}
		go func() {
			select {
			case <-f.clk.After(killAt):
				killMu.Lock()
				killT = f.clk.Now()
				killMu.Unlock()
				f.net.Kill(victim)
			case <-ctx.Done():
			}
		}()
	}

	if err := app.Wait(); err != nil {
		return nil, err
	}
	cancel()

	row := &ChaosRow{
		Mode:     "no-failure",
		Seconds:  f.elapsed().Seconds(),
		Accuracy: metrics.TopKAccuracy(truth, merger.TopK(10), 10).Membership,
		Coverage: 1,
	}
	central, ok := app.Stage("central", 0)
	if !ok {
		return nil, fmt.Errorf("chaos: central/0 not deployed")
	}
	row.Dups = central.Stats().DupsDropped
	row.Coverage = sinkCoverage(app, central, sources)
	if chaos {
		row.Mode = "kill-recover"
		killMu.Lock()
		kt := killT
		killMu.Unlock()
		for _, ev := range rec.Events() {
			if ev.Err != "" {
				return nil, fmt.Errorf("chaos: recovery failed: %s", ev.Err)
			}
			row.Recoveries++
			row.Replayed += ev.Replayed
			row.Discarded += ev.Discarded
			row.Restored = row.Restored || ev.Restored
			row.Gap = row.Gap || ev.Gap
			row.DetectS = ev.At.Sub(kt).Seconds()
			row.RecoverS = ev.Duration.Seconds()
		}
	}
	return row, nil
}

// sinkCoverage reports the minimum fraction, over summarizer instances, of
// the merger's received-sequence watermark against the instance's final
// emission cursor. 1.0 means every stamped summary (or its replayed copy)
// reached the merger. Read only after the application has finished.
func sinkCoverage(app *service.Application, central *pipeline.Stage, sources int) float64 {
	marks := central.Marks()
	cov := 1.0
	for i := 0; i < sources; i++ {
		st, ok := app.Stage("summarize", i)
		if !ok {
			continue
		}
		// The last stamped emission is the end-of-stream marker, which
		// consumers count but never mark; only data emissions are owed.
		hi := st.EmitSeq()
		if hi > 0 {
			hi--
		}
		if hi == 0 {
			continue
		}
		var next uint64
		for _, m := range marks {
			if m.Stage == "summarize" && m.Instance == i {
				next = m.Next
				break
			}
		}
		if c := float64(next) / float64(hi); c < cov {
			cov = c
		}
	}
	return cov
}

// Render prints the comparison table and a greppable verdict line.
func (r *ChaosResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Chaos: node kill under checkpointed recovery")
	fmt.Fprintf(w, "  [the node hosting summarize/0 is killed at t=%.0fs; the recovery controller must detect, re-place, restore, and replay]\n", r.KillS)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Mode\tTime (s)\tAccuracy\tRecoveries\tDetect (s)\tRecover (s)\tReplayed\tRestored\tCoverage\tDups dropped")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.3f\t%d\t%.1f\t%.3f\t%d\t%v\t%.3f\t%d\n",
			row.Mode, row.Seconds, row.Accuracy, row.Recoveries,
			row.DetectS, row.RecoverS, row.Replayed, row.Restored, row.Coverage, row.Dups)
	}
	tw.Flush()
	var base, kill *ChaosRow
	for i := range r.Rows {
		switch r.Rows[i].Mode {
		case "no-failure":
			base = &r.Rows[i]
		case "kill-recover":
			kill = &r.Rows[i]
		}
	}
	if base == nil || kill == nil {
		return
	}
	drop := base.Accuracy - kill.Accuracy
	fmt.Fprintf(w, "chaos-verdict: recoveries=%d restored=%v gap=%v coverage=%.3f accuracy_drop=%.3f accuracy_ok=%v\n",
		kill.Recoveries, kill.Restored, kill.Gap, kill.Coverage, drop, drop <= 0.101)
}
