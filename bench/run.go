package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
	"time"
)

// trials is how many times a run sets a workload up and measures it; every
// end-to-end metric is the median over them.
const trials = 5

// options is what the command line chooses for one workload run.
type options struct {
	seed    int64
	seconds float64 // measuring time of the whole run, split over the trials
	trace   bool
	smoke   bool // a hundredth of the warm-up work: for the harness's own tests
	outDir  string
	corrupt uint64 // test hook: damage the payload of this packet index in every trial
}

func (o options) params(i int) trialParams {
	p := trialParams{seed: o.seed + int64(i), warm: 1, corrupt: o.corrupt}
	p.window = time.Duration(o.seconds / trials * float64(time.Second))
	if o.smoke {
		p.warm = 0.01
	}
	return p
}

// result is one run of one workload: the artifact written to the out
// directory, of which the last line of standard output is an extract.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Env       envBlock           `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
	TraceFile string             `json:"trace_file,omitempty"`
}

func (r *result) count(t *trial) {
	r.Attempted += t.attempted
	r.Failed += t.failed
}

// runEndToEnd is the untraced run: trials set-ups and measured phases, each
// end-to-end metric the median over them.
func runEndToEnd(w workload, o options, r *result) error {
	var ts []*trial
	var setup, goodput []float64
	for i := 0; i < trials; i++ {
		t, err := w.run(o.params(i))
		if err != nil {
			return fmt.Errorf("%s trial %d: %w", w.name, i, err)
		}
		r.count(t)
		ts = append(ts, t)
		setup = append(setup, t.setupS)
		goodput = append(goodput, t.goodput())
	}
	s := summarize(setup, "s")
	if !w.virt {
		s.Value = sorted(setup)[setupRank]
	}
	r.Metrics["setup_s"] = s
	r.Metrics["throughput_pps"] = w.pps(ts...)
	r.Metrics["lat_p50_ms"] = w.latency(ts...)
	r.Metrics["goodput_frac"] = summarize(goodput, "frac")
	return nil
}

// runLayers is the traced run: one untraced trial for the workload's own
// layer readings and as the reference for the tracing overhead, one trial
// with every sampled packet stamped at each layer boundary, the comparisons
// that are defined on this workload, and the ladder.
func runLayers(w workload, o options, iso *isolator, r *result) error {
	vals := map[string]float64{}
	base, err := w.run(o.params(0))
	if err != nil {
		return fmt.Errorf("%s reference trial: %w", w.name, err)
	}
	r.count(base)
	fromTrial(base, vals)

	p := o.params(0)
	every := uint64(sampleEvery)
	if o.smoke {
		every = 1 // so few packets that one in 64 may be none
	}
	p.tr = newTracer(2, every)
	traced, err := w.run(p)
	if err != nil {
		return fmt.Errorf("%s traced trial: %w", w.name, err)
	}
	r.count(traced)
	fromTrace(p.tr, traced, vals)
	if w.sat {
		vals["trace.overhead_frac"] = 1 - w.pps(traced).Value/w.pps(base).Value
	} else {
		vals["trace.overhead_frac"] = w.latency(traced).Value/w.latency(base).Value - 1
	}
	r.TraceFile, err = writeTrace(o.outDir, w.name, p.tr.spans())
	if err != nil {
		return err
	}

	short := o.params(0)
	short.window /= 2
	switch w.name {
	case "inproc-defaults":
		// The observability tax: the same trial with and without the bundle.
		with, err := w.run(short)
		if err != nil {
			return err
		}
		short.noObs = true
		without, err := w.run(short)
		if err != nil {
			return err
		}
		r.count(with)
		r.count(without)
		vals["obs.tax_ratio"] = w.pps(without).Value / w.pps(with).Value
	case "inproc-chain":
		// Cross-core scaling, as a diagnostic only: the same trial on two
		// Ps, unpinned. On a shared two-CPU machine this swings ±20 %
		// between invocations, which is why nothing is gated on it.
		one, err := w.run(short)
		if err != nil {
			return err
		}
		if err := iso.apply(isolation{procs: 2}); err != nil {
			return err
		}
		two, err := w.run(short)
		if rerr := iso.apply(w.iso); err == nil {
			err = rerr
		}
		if err != nil {
			return err
		}
		r.count(one)
		r.count(two)
		vals["proc.par2_speedup"] = w.pps(two).Value / w.pps(one).Value
	}

	each := rungTime
	if o.smoke {
		each /= 30
	}
	rungs, err := ladder(o.seed, each)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	for name, v := range rungs {
		vals[name] = v
	}
	if w.sat {
		// One CPU, one P: a second of wall time is a second of CPU, so the
		// time per packet divides among the hops.
		vals["pipeline.hop_ns"] = 1e9 / (w.pps(base).Value * float64(w.hops))
	}
	switch w.name {
	case "inproc-chain":
		vals["pipeline.hop_residual_ns"] = vals["pipeline.hop_ns"] - vals["queue.spsc_b16_ns_per_item"] - vals["pipeline.pool_getput_ns"]/float64(w.hops)
	case "inproc-defaults":
		// One SPSC hop and one MPSC hop per packet.
		ring := (vals["queue.spsc_p1_ns"] + vals["queue.mpsc_p1_ns"]) / 2
		vals["pipeline.hop_residual_ns"] = vals["pipeline.hop_ns"] - ring - vals["pipeline.pool_getput_ns"]/float64(w.hops)
	}
	for _, m := range perLayer {
		r.Metrics[m.Name] = summary{Value: vals[m.Name], Unit: m.Unit, Q1: vals[m.Name], Q3: vals[m.Name], N: 1}
	}
	return nil
}

// runWorkload runs one workload in this process, under its isolation.
func runWorkload(w workload, o options) (*result, error) {
	iso, err := newIsolator()
	if err != nil {
		return nil, err
	}
	if !o.smoke {
		if err := iso.apply(w.iso); err != nil {
			return nil, err
		}
	}
	r := &result{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Metrics: map[string]summary{},
	}
	if o.trace {
		err = runLayers(w, o, iso, r)
	} else {
		err = runEndToEnd(w, o, r)
	}
	if err != nil {
		return nil, err
	}
	r.Env = readEnv(iso.now)
	r.Correct = r.Failed == 0
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s has no value", w.name, name)
		}
	}
	return r, nil
}

// save writes the full result next to the traces.
func (r *result) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := "result-" + r.Workload + ".json"
	if r.Traced {
		name = "layers-" + r.Workload + ".json"
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// print writes every metric by name with its unit, quartiles and sample
// count, then the one-line extract the acceptance harness reads.
func (r *result) print(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tseed %d\t%.1f s\ttraced=%v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	fmt.Fprintln(tw, "metric\tmedian\tunit\tq1\tq3\tn")
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%.6g\t%.6g\t%d\n", name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
	}
	fmt.Fprintf(tw, "ops_attempted\t%d\nops_failed\t%d\n", r.Attempted, r.Failed)
	if err := tw.Flush(); err != nil {
		return err
	}
	line, err := json.Marshal(r.extract())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// extract is the last line of a run's standard output.
type extract struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) extract() extract {
	e := extract{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]valueUnit{}}
	for name, m := range r.Metrics {
		e.Metrics[name] = valueUnit{m.Value, m.Unit}
	}
	return e
}
