package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Fig67Bandwidths are the four network configurations of §5.3, in bytes per
// second.
var Fig67Bandwidths = []int64{1_000, 10_000, 100_000, 1_000_000}

// Fig67Versions labels the five application versions: four fixed summary
// sizes and the self-adapting version.
var Fig67Versions = []string{"40", "80", "120", "160", "adaptive"}

// Fig67Cell is one (version, bandwidth) measurement.
type Fig67Cell struct {
	Seconds  float64
	Accuracy float64 // 0-100
	// AdaptiveFinalN is the converged summary size (adaptive cells only).
	AdaptiveFinalN float64
}

// Fig67Result holds the shared runs behind Figure 6 (execution time) and
// Figure 7 (accuracy): Cells[v][b] pairs Fig67Versions[v] with
// Fig67Bandwidths[b].
type Fig67Result struct {
	Cells [][]Fig67Cell
}

// Figure67 runs the §5.3 sweep: five versions of count-samps (summary size
// 40/80/120/160 and adaptive 10–240) across link bandwidths of 1 KB/s,
// 10 KB/s, 100 KB/s, and 1 MB/s.
func Figure67(cfg Config) (*Fig67Result, error) {
	res := &Fig67Result{Cells: make([][]Fig67Cell, len(Fig67Versions))}
	for v := range Fig67Versions {
		res.Cells[v] = make([]Fig67Cell, len(Fig67Bandwidths))
	}
	// The 5×4 grid is embarrassingly parallel: every cell is an isolated
	// full-stack run. Flatten it onto the worker pool; each worker writes
	// its own cell, so the table layout is deterministic.
	nCells := len(Fig67Versions) * len(Fig67Bandwidths)
	seq := cfg
	seq.Parallelism = 1 // trials nest inside the cell-level pool
	err := forEach(cfg.parallelism(), nCells, func(i int) error {
		v, b := i/len(Fig67Bandwidths), i%len(Fig67Bandwidths)
		version, bw := Fig67Versions[v], Fig67Bandwidths[b]
		p := csParams{cfg: seq, bandwidth: bw, trials: 5}
		if version == "adaptive" {
			p.mode = csAdaptive
		} else {
			p.mode = csDistributed
			fmt.Sscanf(version, "%d", &p.summarySize)
		}
		run, err := runCountSamps(p)
		if err != nil {
			return fmt.Errorf("figure6/7 version=%s bw=%d: %w", version, bw, err)
		}
		res.Cells[v][b] = Fig67Cell{
			Seconds:        run.Elapsed.Seconds(),
			Accuracy:       run.Acc.Score(),
			AdaptiveFinalN: run.FinalSummarySize,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RenderTime prints the Figure 6 table (execution time, seconds).
func (r *Fig67Result) RenderTime(w io.Writer) {
	fmt.Fprintln(w, "Figure 6: Execution time (s) of five count-samps versions across bandwidths")
	r.render(w, func(c Fig67Cell) string { return fmt.Sprintf("%.1f", c.Seconds) })
}

// RenderAccuracy prints the Figure 7 table (accuracy, 0-100).
func (r *Fig67Result) RenderAccuracy(w io.Writer) {
	fmt.Fprintln(w, "Figure 7: Accuracy of five count-samps versions across bandwidths")
	r.render(w, func(c Fig67Cell) string { return fmt.Sprintf("%.1f", c.Accuracy) })
}

func (r *Fig67Result) render(w io.Writer, cell func(Fig67Cell) string) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Version\\Bandwidth")
	for _, bw := range Fig67Bandwidths {
		fmt.Fprintf(tw, "\t%s", bwLabel(bw))
	}
	fmt.Fprintln(tw)
	for v, version := range Fig67Versions {
		fmt.Fprintf(tw, "summary=%s", version)
		for b := range Fig67Bandwidths {
			fmt.Fprintf(tw, "\t%s", cell(r.Cells[v][b]))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// Cell returns the measurement for a version label and bandwidth.
func (r *Fig67Result) Cell(version string, bw int64) (Fig67Cell, bool) {
	for v, name := range Fig67Versions {
		if name != version {
			continue
		}
		for b, width := range Fig67Bandwidths {
			if width == bw {
				return r.Cells[v][b], true
			}
		}
	}
	return Fig67Cell{}, false
}

func bwLabel(bw int64) string {
	if bw >= 1_000_000 {
		return fmt.Sprintf("%dMB/s", bw/1_000_000)
	}
	return fmt.Sprintf("%dKB/s", bw/1_000)
}
