package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/metrics"
)

// TestReportJSON writes a Report holding Figure 5 and the hierarchy
// extension, the two cheapest sections, and reads it back. The shape tests
// already run every experiment RunAll assembles; scripts/ci.sh checks that a
// full -json report carries every section.
func TestReportJSON(t *testing.T) {
	cfg := Config{Quick: true}
	f5, err := Figure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := ExtHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{Quick: cfg.Quick, Seed: cfg.seed(), Figure5: f5.Rows, Hierarchy: hier.Rows}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	var keys map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &keys); err != nil {
		t.Fatalf("report is not a JSON object: %v", err)
	}
	for _, k := range []string{"quick", "seed", "figure5", "hierarchy"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("report has no %q key:\n%s", k, buf.String())
		}
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if !back.Quick || back.Seed != 20040607 {
		t.Errorf("metadata quick=%v seed=%d, want true and the default seed", back.Quick, back.Seed)
	}
	if len(back.Figure5) != 2 || !reflect.DeepEqual(back.Figure5, rep.Figure5) {
		t.Errorf("figure5 read back as %+v, wrote %+v", back.Figure5, rep.Figure5)
	}
	if len(back.Hierarchy) != 3 || !reflect.DeepEqual(back.Hierarchy, rep.Hierarchy) {
		t.Errorf("hierarchy read back as %+v, wrote %+v", back.Hierarchy, rep.Hierarchy)
	}
}

// rampTrace records n samples, value i at second i.
func rampTrace(n int) *metrics.TimeSeries {
	epoch := time.Unix(0, 0)
	ts := metrics.NewTimeSeriesAt(epoch)
	for i := 0; i < n; i++ {
		ts.Record(epoch.Add(time.Duration(i)*time.Second), float64(i))
	}
	return ts
}

// TestTracePoints: a trace keeps its endpoints and at most 60 points.
func TestTracePoints(t *testing.T) {
	for _, tc := range []struct {
		samples, want int
	}{
		{0, 0},
		{1, 1},
		{60, 60},
		{61, 60},
		{600, 60},
	} {
		t.Run(fmt.Sprint(tc.samples), func(t *testing.T) {
			pts := tracePoints(rampTrace(tc.samples))
			if len(pts) != tc.want {
				t.Fatalf("%d samples became %d points, want %d", tc.samples, len(pts), tc.want)
			}
			if tc.want == 0 {
				return
			}
			last := float64(tc.samples - 1)
			if pts[0] != (PointJSON{}) || pts[len(pts)-1] != (PointJSON{Seconds: last, Value: last}) {
				t.Errorf("endpoints %+v and %+v, want {0 0} and {%g %g}", pts[0], pts[len(pts)-1], last, last)
			}
		})
	}
}

// TestSweepAndSeriesJSON: a sweep has one row per version in Fig67Versions
// order, each with the bandwidth columns and the picked cell values; a
// series keeps its label, figures and (downsampled) trace.
func TestSweepAndSeriesJSON(t *testing.T) {
	res := &Fig67Result{Cells: make([][]Fig67Cell, len(Fig67Versions))}
	for v := range res.Cells {
		res.Cells[v] = make([]Fig67Cell, len(Fig67Bandwidths))
		for b := range res.Cells[v] {
			res.Cells[v][b] = Fig67Cell{Seconds: float64(10*v + b), Accuracy: float64(100 - 10*v - b)}
		}
	}
	for _, tc := range []struct {
		name string
		pick func(Fig67Cell) float64
		want func(v, b int) float64
	}{
		{"seconds", func(c Fig67Cell) float64 { return c.Seconds }, func(v, b int) float64 { return float64(10*v + b) }},
		{"accuracy", func(c Fig67Cell) float64 { return c.Accuracy }, func(v, b int) float64 { return float64(100 - 10*v - b) }},
	} {
		rows := sweepJSON(res, tc.pick)
		if len(rows) != len(Fig67Versions) {
			t.Fatalf("%s: %d rows, want %d", tc.name, len(rows), len(Fig67Versions))
		}
		for v, row := range rows {
			if row.Version != Fig67Versions[v] || !reflect.DeepEqual(row.Bandwidths, Fig67Bandwidths) {
				t.Errorf("%s row %d: version %q bandwidths %v", tc.name, v, row.Version, row.Bandwidths)
			}
			for b, got := range row.Values {
				if got != tc.want(v, b) {
					t.Errorf("%s cell [%d][%d] = %g, want %g", tc.name, v, b, got, tc.want(v, b))
				}
			}
			if len(row.Values) != len(Fig67Bandwidths) {
				t.Errorf("%s row %d has %d values", tc.name, v, len(row.Values))
			}
		}
	}

	series := seriesJSON([]ConvergenceSeries{
		{Label: "8 ms/byte", Expected: 0.5, Converged: 0.48, Trace: rampTrace(300)},
		{Label: "40 KB/s", Expected: 1, Converged: 0.97, Trace: rampTrace(2)},
	})
	want := []SeriesJSON{
		{Label: "8 ms/byte", Expected: 0.5, Converged: 0.48},
		{Label: "40 KB/s", Expected: 1, Converged: 0.97},
	}
	if len(series) != 2 || len(series[0].Trace) != 60 || len(series[1].Trace) != 2 {
		t.Fatalf("series traces not downsampled to at most 60 points: %+v", series)
	}
	for i, s := range series {
		s.Trace = nil
		if !reflect.DeepEqual(s, want[i]) {
			t.Errorf("series %d = %+v, want %+v", i, s, want[i])
		}
	}
}
