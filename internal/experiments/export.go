package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/gates-middleware/gates/internal/metrics"
)

// Report is the machine-readable form of a full evaluation run: every
// figure, the ablations, and the extension studies, with convergence traces
// flattened to (seconds, value) points.
type Report struct {
	// Quick records whether workloads were shrunk.
	Quick bool `json:"quick"`
	// Seed is the workload seed used.
	Seed int64 `json:"seed"`

	Figure5   []Fig5Row         `json:"figure5"`
	Figure6   []SweepRowJSON    `json:"figure6"`
	Figure7   []SweepRowJSON    `json:"figure7"`
	Figure8   []SeriesJSON      `json:"figure8"`
	Figure9   []SeriesJSON      `json:"figure9"`
	Ablations []*AblationResult `json:"ablations"`
	Scaling   []ScalingRow      `json:"scalingSources"`
	Hierarchy []HierarchyRow    `json:"hierarchy"`
	Migration *MigrationJSON    `json:"migration"`
}

// MigrationJSON is the live re-deployment study.
type MigrationJSON struct {
	CollapseS float64            `json:"collapseS"`
	Rows      []MigrationRowJSON `json:"rows"`
}

// MigrationRowJSON is one deployment mode's row with its trace.
type MigrationRowJSON struct {
	Mode             string      `json:"mode"`
	Seconds          float64     `json:"seconds"`
	Accuracy         float64     `json:"accuracy"`
	Migrations       int         `json:"migrations"`
	PostCollapseRate float64     `json:"postCollapseRate"`
	Trace            []PointJSON `json:"trace"`
}

// SweepRowJSON is one version's row of a Figure 6/7-style sweep.
type SweepRowJSON struct {
	Version    string    `json:"version"`
	Bandwidths []int64   `json:"bandwidths"`
	Values     []float64 `json:"values"`
}

// PointJSON is one trace sample.
type PointJSON struct {
	Seconds float64 `json:"t"`
	Value   float64 `json:"v"`
}

// SeriesJSON is one convergence series with its trace.
type SeriesJSON struct {
	Label     string      `json:"label"`
	Expected  float64     `json:"expected"`
	Converged float64     `json:"converged"`
	Trace     []PointJSON `json:"trace"`
}

// tracePoints flattens a time series, downsampled to a plottable size.
func tracePoints(ts *metrics.TimeSeries) []PointJSON {
	pts := ts.Downsample(60)
	out := make([]PointJSON, len(pts))
	for i, p := range pts {
		out[i] = PointJSON{Seconds: p.T.Seconds(), Value: p.V}
	}
	return out
}

func seriesJSON(in []ConvergenceSeries) []SeriesJSON {
	out := make([]SeriesJSON, len(in))
	for i, s := range in {
		out[i] = SeriesJSON{
			Label:     s.Label,
			Expected:  s.Expected,
			Converged: s.Converged,
			Trace:     tracePoints(s.Trace),
		}
	}
	return out
}

func sweepJSON(r *Fig67Result, pick func(Fig67Cell) float64) []SweepRowJSON {
	out := make([]SweepRowJSON, len(Fig67Versions))
	for v, version := range Fig67Versions {
		row := SweepRowJSON{Version: version, Bandwidths: Fig67Bandwidths}
		for b := range Fig67Bandwidths {
			row.Values = append(row.Values, pick(r.Cells[v][b]))
		}
		out[v] = row
	}
	return out
}

// RunAll executes the complete evaluation and assembles the report.
func RunAll(cfg Config) (*Report, error) {
	rep := &Report{Quick: cfg.Quick, Seed: cfg.seed()}

	f5, err := Figure5(cfg)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	rep.Figure5 = f5.Rows

	f67, err := Figure67(cfg)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	rep.Figure6 = sweepJSON(f67, func(c Fig67Cell) float64 { return c.Seconds })
	rep.Figure7 = sweepJSON(f67, func(c Fig67Cell) float64 { return c.Accuracy })

	f8, err := Figure8(cfg)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	rep.Figure8 = seriesJSON(f8.Series)

	f9, err := Figure9(cfg)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	rep.Figure9 = seriesJSON(f9.Series)

	rep.Ablations, err = Ablations(cfg)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}

	scaling, err := ExtScalingSources(cfg)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	rep.Scaling = scaling.Rows

	hier, err := ExtHierarchy(cfg)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	rep.Hierarchy = hier.Rows

	mig, err := ExpMigration(cfg)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	rep.Migration = &MigrationJSON{CollapseS: mig.CollapseS}
	for _, row := range mig.Rows {
		rep.Migration.Rows = append(rep.Migration.Rows, MigrationRowJSON{
			Mode:             row.Mode,
			Seconds:          row.Seconds,
			Accuracy:         row.Accuracy,
			Migrations:       row.Migrations,
			PostCollapseRate: row.PostCollapseRate,
			Trace:            tracePoints(row.Trace),
		})
	}
	return rep, nil
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
