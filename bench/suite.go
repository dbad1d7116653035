package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
)

// child runs one workload in a fresh process — fresh heap, fresh packet
// pool, its own CPU confinement — passes its report through, and returns
// the extract on its last line.
func child(o options, workload string, seed int64, trace bool) (extract, error) {
	self, err := os.Executable()
	if err != nil {
		return extract{}, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", t, "-out", o.outDir,
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	os.Stdout.Write(out)
	if err != nil {
		return extract{}, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var e extract
	if err := json.Unmarshal(lines[len(lines)-1], &e); err != nil {
		return extract{}, fmt.Errorf("%s: last line of output: %w", workload, err)
	}
	return e, nil
}

// runSuite runs every workload untraced, then every workload traced.
func runSuite(o options) error {
	for _, trace := range []bool{false, true} {
		for _, w := range workloads {
			if _, err := child(o, w.name, o.seed, trace); err != nil {
				return err
			}
		}
	}
	return nil
}

// aaRow is one end-to-end metric on one workload across the two sets.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	Worse    float64 `json:"b_worse_by"` // share of A's median; negative = B better
	SpreadA  float64 `json:"iqr_over_median_a"`
	SpreadB  float64 `json:"iqr_over_median_b"`
	Bound    float64 `json:"bound"`
	OK       bool    `json:"ok"`
}

// worseBy is how much worse b is than a as a share of a, in the metric's own
// direction.
func worseBy(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compare judges two sets of runs of the same code the way the acceptance
// harness does: the second median may not be worse than the first by more
// than the bound, and (set-up time excepted) each set's interquartile range
// may not exceed the bound's share of its median.
func compare(workload string, m metricDef, a, b []float64) aaRow {
	row := aaRow{
		Workload: workload, Metric: m.Name, Bound: m.Bound,
		MedianA: median(a), MedianB: median(b), SpreadA: spread(a), SpreadB: spread(b),
	}
	row.Worse = worseBy(row.MedianA, row.MedianB, m.Better)
	row.OK = row.Worse <= m.Bound
	if m.Name != "setup_s" {
		row.OK = row.OK && row.SpreadA <= m.Bound && row.SpreadB <= m.Bound
	}
	return row
}

// runAA runs the untraced suite 2n times, alternating between set A and set
// B and giving every run a seed of its own, and fails if the benchmark
// disagrees with itself.
func runAA(o options, n int) error {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < 2*n; i++ {
		for _, w := range workloads {
			e, err := child(o, w.name, o.seed+int64(i), false)
			if err != nil {
				return err
			}
			for name, m := range e.Metrics {
				k := key{w.name, name}
				sets[i%2][k] = append(sets[i%2][k], m.Value)
			}
		}
	}
	var rows []aaRow
	bad := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			k := key{w.name, m.Name}
			row := compare(w.name, m, sets[0][k], sets[1][k])
			if !row.OK {
				bad++
			}
			rows = append(rows, row)
		}
	}
	var md strings.Builder
	tw := tabwriter.NewWriter(&md, 0, 0, 1, ' ', 0)
	fmt.Fprintln(tw, "| workload\t| metric\t| median A\t| median B\t| B worse by\t| IQR/med A\t| IQR/med B\t| bound\t| ok\t|")
	fmt.Fprintln(tw, "|---\t|---\t|---\t|---\t|---\t|---\t|---\t|---\t|---\t|")
	for _, r := range rows {
		fmt.Fprintf(tw, "| %s\t| %s\t| %.6g\t| %.6g\t| %+.4f\t| %.4f\t| %.4f\t| %g\t| %v\t|\n",
			r.Workload, r.Metric, r.MedianA, r.MedianB, r.Worse, r.SpreadA, r.SpreadB, r.Bound, r.OK)
	}
	tw.Flush()
	fmt.Printf("\nA/A: two interleaved sets of %d runs, %g s each\n%s", n, o.seconds, md.String())
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.outDir, "aa.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.outDir, "aa.md"), []byte(md.String()), 0o644); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("A/A: %d metric/workload pairs outside their bound", bad)
	}
	return nil
}
