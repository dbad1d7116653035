package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"github.com/gates-middleware/gates/internal/metrics"
	"github.com/gates-middleware/gates/internal/policy"
	"github.com/gates-middleware/gates/internal/service"
)

// Migration experiment: live re-deployment under a mid-run network
// degradation.
//
// The distributed count-samps application runs with one summarizer near
// each source. Partway through, the link from the first source node to the
// central node collapses to a tenth of its bandwidth — the kind of grid
// condition change §1 says the middleware must adapt to. A static
// deployment can only push its summaries through the collapsed link; a
// deployment watched by a Rebalancer migrates the affected summarizer to a
// well-connected helper node mid-stream (state, queue and wiring move with
// it) and its throughput recovers. Accuracy must not suffer: the migrated
// sketch serializes its RNG position, so it produces the same summaries it
// would have produced in place.

// MigrationRow is one deployment mode's measurements.
type MigrationRow struct {
	// Mode is "static" or "migrating".
	Mode string
	// Seconds is the virtual completion time of the whole application.
	Seconds float64
	// Accuracy is the final top-10 membership accuracy at the merger.
	Accuracy float64
	// Migrations is how many instances moved (0 for static).
	Migrations int
	// PostCollapseRate is the affected summarizer's consumption rate
	// (items/s) from the bandwidth collapse until it finished its stream.
	PostCollapseRate float64
	// Trace is the affected summarizer's cumulative consumed items.
	Trace *metrics.TimeSeries
}

// MigrationResult compares the static and migrating deployments.
type MigrationResult struct {
	// CollapseS is when (virtual seconds) the bandwidth collapsed.
	CollapseS float64
	Rows      []MigrationRow
}

// ExpMigration runs the distributed count-samps application through a
// 10x bandwidth collapse on the first source's uplink, with and without a
// Rebalancer allowed to re-deploy summarizers.
func ExpMigration(cfg Config) (*MigrationResult, error) {
	collapseAt := 60 * time.Second
	if cfg.Quick {
		collapseAt = 15 * time.Second
	}
	res := &MigrationResult{CollapseS: collapseAt.Seconds()}
	rows := make([]MigrationRow, 2)
	err := forEach(cfg.parallelism(), 2, func(i int) error {
		row, err := runMigration(cfg, collapseAt, i == 1)
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

// runMigration executes one deployment mode.
func runMigration(cfg Config, collapseAt time.Duration, migrating bool) (*MigrationRow, error) {
	const sources = 4
	streams, truth := zipfStreams(cfg.seed(), sources, cfg.items())
	f, uplink, err := newHelperGrid(cfg.scale(2000), sources)
	if err != nil {
		return nil, err
	}
	merger := f.registerCountSamps(streams, summarizerConfig(cfg.seed()))
	app, err := f.launch(countSampsConfig(csDistributed, sources), fixedTuning, nil)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The mid-run event: the first source's uplink loses 10x bandwidth.
	go func() {
		select {
		case <-f.clk.After(collapseAt):
			uplink.SetBandwidth(collapsedBW)
		case <-ctx.Done():
		}
	}()

	var reb *service.Rebalancer
	if migrating {
		eng := policy.New(f.clk, nil)
		if err := eng.Load(rebalancePolicy("migration", 2), "experiment"); err != nil {
			return nil, err
		}
		reb = service.NewPolicyRebalancer(app.Deployment, eng)
		go reb.Run(ctx)
	}

	// Sample the affected summarizer's cumulative consumption.
	trace := metrics.NewTimeSeriesAt(f.clk.Now())
	affected, _ := app.Stage("summarize", 0)
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-f.clk.After(2 * time.Second):
				trace.Record(f.clk.Now(), float64(affected.Stats().ItemsIn))
			}
		}
	}()

	if err := app.Wait(); err != nil {
		return nil, err
	}
	cancel()
	trace.Record(f.clk.Now(), float64(affected.Stats().ItemsIn))

	row := &MigrationRow{
		Mode:             "static",
		Seconds:          f.elapsed().Seconds(),
		Accuracy:         metrics.TopKAccuracy(truth, merger.TopK(10), 10).Membership,
		PostCollapseRate: postCollapseRate(trace, collapseAt),
		Trace:            trace,
	}
	if migrating {
		row.Mode = "migrating"
		row.Migrations = reb.Migrations()
	}
	return row, nil
}

// postCollapseRate computes the consumption rate from the collapse until
// the summarizer finished its stream (its cumulative trace stops growing).
func postCollapseRate(ts *metrics.TimeSeries, collapseAt time.Duration) float64 {
	pts := ts.Points()
	if len(pts) < 2 {
		return 0
	}
	final := pts[len(pts)-1].V
	start, end := -1, -1
	for i, p := range pts {
		if start < 0 && p.T >= collapseAt {
			start = i
		}
		if end < 0 && p.V >= final {
			end = i
		}
	}
	if start < 0 || end <= start {
		return 0
	}
	dt := (pts[end].T - pts[start].T).Seconds()
	if dt <= 0 {
		return 0
	}
	return (pts[end].V - pts[start].V) / dt
}

// Render prints the comparison table.
func (r *MigrationResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Extension: live re-deployment under a mid-run bandwidth collapse")
	fmt.Fprintf(w, "  [src-1 -> central drops 10x at t=%.0fs; the rebalancer may move the affected summarizer]\n", r.CollapseS)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Mode\tTime (s)\tAccuracy\tMigrations\tPost-collapse rate (items/s)")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.3f\t%d\t%.1f\n",
			row.Mode, row.Seconds, row.Accuracy, row.Migrations, row.PostCollapseRate)
	}
	tw.Flush()
}
