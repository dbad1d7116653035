package experiments

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
	"time"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/metrics"
)

// AblationRow is one variant's outcome in an ablation study.
type AblationRow struct {
	// Variant names the setting under study.
	Variant string
	// Expected is the analytically sustainable sampling factor.
	Expected float64
	// Converged is the settled value the variant reached.
	Converged float64
	// Wobble is the standard deviation of the sampling factor over the
	// convergence window — the stability of the control loop.
	Wobble float64
}

// AblationResult is a small comparison table over algorithm variants.
type AblationResult struct {
	// Name identifies the study.
	Name string `json:"name"`
	// Scenario describes the workload the variants ran against.
	Scenario string `json:"-"`
	// Rows holds one row per variant.
	Rows []AblationRow `json:"rows"`
}

// Render prints the comparison.
func (r *AblationResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablation: %s (%s)\n", r.Name, r.Scenario)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Variant\tExpected\tConverged\tWobble")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\n", row.Variant, row.Expected, row.Converged, row.Wobble)
	}
	tw.Flush()
}

// ablationVariant is one row of a study: Figure 8's 20 ms/byte cell with its
// observation interval (0 keeps 500 ms) and sampler options (nil keeps
// adapt.Defaults) changed. A variant that changes neither is the default
// cell, which every study shares.
type ablationVariant struct {
	label    string
	interval time.Duration
	mutate   func(*adapt.Options)
}

func (v ablationVariant) isDefault() bool { return v.interval == 0 && v.mutate == nil }

// ablationStudies are the design choices DESIGN.md calls out: the paper's
// two ambiguities (the Equation 4 sign and φ2), the constants of Figure 2,
// the observation interval, and the congestion gating this implementation
// adds.
var ablationStudies = []struct {
	name     string
	variants []ablationVariant
}{
	{"Equation 4 downstream-term sign", []ablationVariant{
		{label: "reinforcing (default)"},
		{label: "literal (as printed)", mutate: func(o *adapt.Options) { o.DownstreamSign = adapt.SignLiteral }},
	}},
	{"phi2 variant", []ablationVariant{
		{label: "exponential (default)"},
		{label: "linear w/W", mutate: func(o *adapt.Options) { o.Phi2 = adapt.Phi2Linear }},
	}},
	{"load-factor weights (P1, P2, P3)", []ablationVariant{
		{label: "0.2/0.3/0.5 (default)"},
		{label: "phi1 only", mutate: func(o *adapt.Options) { o.P1, o.P2, o.P3 = 1, 0, 0 }},
		{label: "phi2 only", mutate: func(o *adapt.Options) { o.P1, o.P2, o.P3 = 0, 1, 0 }},
		{label: "phi3 only", mutate: func(o *adapt.Options) { o.P1, o.P2, o.P3 = 0, 0, 1 }},
	}},
	{"window size W", []ablationVariant{
		{label: "W=4", mutate: func(o *adapt.Options) { o.Window = 4 }},
		{label: "W=16 (default)"},
		{label: "W=64", mutate: func(o *adapt.Options) { o.Window = 64 }},
	}},
	{"observation interval", []ablationVariant{
		{label: "100ms", interval: 100 * time.Millisecond},
		{label: "500ms (default)"},
		{label: "2s", interval: 2 * time.Second},
	}},
	{"congestion-priority gating", []ablationVariant{
		{label: "gated (default)"},
		{label: "ungated", mutate: func(o *adapt.Options) { o.DisableCongestionPriority = true }},
	}},
}

// Ablations runs every study of ablationStudies against Figure 8's 20 ms/byte
// cell. The default cell runs once and supplies each study's default row.
func Ablations(cfg Config) ([]*AblationResult, error) {
	base := fig8Cell(20)
	cells := []steerCell{base}
	for _, st := range ablationStudies {
		for _, v := range st.variants {
			if !v.isDefault() {
				c := base
				c.label, c.p.adaptInterval, c.p.adaptOverride = v.label, v.interval, v.mutate
				cells = append(cells, c)
			}
		}
	}
	series, err := runConvergence(cfg, cells)
	if err != nil {
		return nil, fmt.Errorf("ablation %w", err)
	}
	from, to := base.p.settled()
	scenario := fmt.Sprintf("Figure 8 workload, %s, sustainable factor %.4g", base.label, series[0].Expected)
	var out []*AblationResult
	next := 0
	for _, st := range ablationStudies {
		res := &AblationResult{Name: st.name, Scenario: scenario}
		for _, v := range st.variants {
			s := series[0]
			if !v.isDefault() {
				next++
				s = series[next]
			}
			res.Rows = append(res.Rows, AblationRow{
				Variant: v.label, Expected: s.Expected, Converged: s.Converged,
				Wobble: windowStd(s.Trace, from, to),
			})
		}
		out = append(out, res)
	}
	return out, nil
}

// windowStd is the standard deviation of the samples with T in [from, to].
func windowStd(trace *metrics.TimeSeries, from, to time.Duration) float64 {
	mean := trace.WindowMean(from, to)
	var ss float64
	n := 0
	for _, p := range trace.Points() {
		if p.T >= from && p.T <= to {
			ss += (p.V - mean) * (p.V - mean)
			n++
		}
	}
	if n < 2 {
		return 0
	}
	return math.Sqrt(ss / float64(n))
}
