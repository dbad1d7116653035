package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"github.com/gates-middleware/gates/internal/metrics"
)

// ConvergenceSeries is one line of a Figure 8/9-style plot: how the
// middleware-chosen sampling factor evolves for one configuration.
type ConvergenceSeries struct {
	// Label names the configuration ("8 ms/byte", "40 KB/s", ...).
	Label string
	// Expected is the sustainable sampling factor predicted by the §4.1
	// queueing-network model (internal/queuing).
	Expected float64
	// Converged is the measured settled value.
	Converged float64
	// Trace is the full sampling-factor series.
	Trace *metrics.TimeSeries
}

// ConvergenceResult reproduces Figure 8 or 9: one convergence series per
// configuration, under the figure's title and the paper's reading.
type ConvergenceResult struct {
	title, paper string
	Series       []ConvergenceSeries
}

// Render prints the convergence table.
func (r *ConvergenceResult) Render(w io.Writer) {
	fmt.Fprintln(w, r.title)
	fmt.Fprintf(w, "  [paper: %s]\n", r.paper)
	renderConvergence(w, r.Series)
}

// Fig8Costs are the five analysis costs of §5.4, in ms/byte.
var Fig8Costs = []int{1, 5, 8, 10, 20}

// fig8Cell is §5.4's comp-steer run: a 160 B/s stream, sampled from an
// initial factor of 0.13, analysed at costMs ms/byte.
func fig8Cell(costMs int) steerCell {
	return steerCell{label: fmt.Sprintf("%d ms/byte", costMs), p: steerParams{
		genRate:     160,
		packetBytes: 16,
		costPerByte: time.Duration(costMs) * time.Millisecond,
		initialRate: 0.13,
		duration:    300 * time.Second,
	}}
}

// Figure8 runs §5.4: five comp-steer versions whose post-processing costs
// 1, 5, 8, 10 and 20 ms/byte against a 160 B/s stream. The paper's factors
// converge to 1, 1, .65, .55 and .31.
func Figure8(cfg Config) (*ConvergenceResult, error) {
	cells := make([]steerCell, len(Fig8Costs))
	for i, ms := range Fig8Costs {
		cells[i] = fig8Cell(ms)
	}
	series, err := runConvergence(cfg, cells)
	if err != nil {
		return nil, fmt.Errorf("figure8 %w", err)
	}
	return &ConvergenceResult{
		title:  "Figure 8: Self-adaptation for a processing constraint (gen 160 B/s, initial 0.13)",
		paper:  "converges to 1, 1, .65, .55, .31",
		Series: series,
	}, nil
}

// Fig9GenRates are the five generation rates of §5.5, in KB/s.
var Fig9GenRates = []int{5, 10, 20, 40, 80}

// Figure9 runs §5.5: data generated at 5/10/20/40/80 KB/s, sampled from an
// initial factor of 0.01, and sent over a 10 KB/s link. The sustainable
// factors are 1, 1, .5, .25 and .125.
func Figure9(cfg Config) (*ConvergenceResult, error) {
	cells := make([]steerCell, len(Fig9GenRates))
	for i, kb := range Fig9GenRates {
		cells[i] = steerCell{label: fmt.Sprintf("%d KB/s", kb), p: steerParams{
			genRate:     kb * 1000,
			packetBytes: 500,
			linkBW:      10_000,
			initialRate: 0.01,
			duration:    300 * time.Second,
		}}
	}
	series, err := runConvergence(cfg, cells)
	if err != nil {
		return nil, fmt.Errorf("figure9 %w", err)
	}
	return &ConvergenceResult{
		title:  "Figure 9: Self-adaptation for a network constraint (10 KB/s link, initial 0.01)",
		paper:  "converges to ~1, 1, .5, .25, .125",
		Series: series,
	}, nil
}

// renderConvergence prints settled values plus a downsampled trace per
// series.
func renderConvergence(w io.Writer, series []ConvergenceSeries) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Version\tExpected\tConverged")
	for _, s := range series {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\n", s.Label, s.Expected, s.Converged)
	}
	tw.Flush()
	fmt.Fprintln(w, "Sampling factor over time:")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "t(s)")
	for _, s := range series {
		fmt.Fprintf(tw, "\t%s", s.Label)
	}
	fmt.Fprintln(tw)
	const samples = 12
	// Use the longest trace to define the time axis.
	var axis []time.Duration
	for _, s := range series {
		pts := s.Trace.Downsample(samples)
		if len(pts) > len(axis) {
			axis = axis[:0]
			for _, p := range pts {
				axis = append(axis, p.T)
			}
		}
	}
	for _, t := range axis {
		fmt.Fprintf(tw, "%.0f", t.Seconds())
		for _, s := range series {
			if v, ok := s.Trace.At(t); ok {
				fmt.Fprintf(tw, "\t%.2f", v)
			} else {
				fmt.Fprint(tw, "\t-")
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}
