package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Fig5Row is one line of the Figure 5 table.
type Fig5Row struct {
	Style    string
	Seconds  float64
	Accuracy float64 // 0-100, the paper's scale
}

// Fig5Result reproduces Figure 5: "Benefits of Distributed Processing:
// 4 Sub-streams" — centralized vs distributed count-samps at 100 KB/s.
type Fig5Result struct {
	Rows []Fig5Row
}

// Figure5 runs the experiment of §5.2: four sources × 25,000 integers,
// 100 KB/s links to the central machine, top-10 frequent-items query;
// version one forwards everything, version two forwards 100-item summaries.
func Figure5(cfg Config) (*Fig5Result, error) {
	params := []struct {
		style string
		p     csParams
	}{
		{"Centralized", csParams{cfg: cfg, mode: csCentralized, bandwidth: 100_000, trials: 3}},
		{"Distributed", csParams{cfg: cfg, mode: csDistributed, summarySize: 100, bandwidth: 100_000, trials: 3}},
	}
	rows := make([]Fig5Row, len(params))
	err := forEach(cfg.parallelism(), len(params), func(i int) error {
		run, err := runCountSamps(params[i].p)
		if err != nil {
			return fmt.Errorf("figure5 %s: %w", params[i].style, err)
		}
		rows[i] = Fig5Row{Style: params[i].style, Seconds: run.Elapsed.Seconds(), Accuracy: run.Acc.Score()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig5Result{Rows: rows}, nil
}

// Centralized and Distributed return the named rows.
func (r *Fig5Result) Centralized() Fig5Row { return r.row("Centralized") }

// Distributed returns the distributed row.
func (r *Fig5Result) Distributed() Fig5Row { return r.row("Distributed") }

func (r *Fig5Result) row(style string) Fig5Row {
	for _, row := range r.Rows {
		if row.Style == style {
			return row
		}
	}
	return Fig5Row{}
}

// Render prints the table in the paper's format.
func (r *Fig5Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 5: Benefits of Distributed Processing (4 sub-streams, 100 KB/s)")
	fmt.Fprintln(w, "  [paper: Centralized 257.5 s / 99, Distributed 180.8 s / 97]")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Processing Style\tAvg Performance (sec)\tAvg Accuracy")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\n", row.Style, row.Seconds, row.Accuracy)
	}
	tw.Flush()
}
