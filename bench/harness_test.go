package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// smoke is the -smoke path: a fifth of a second per workload, a hundredth of
// the warm-up work, no pinning.
func smoke(t *testing.T, trace bool) options {
	return options{seed: 1, seconds: 0.2, trace: trace, smoke: true, outDir: t.TempDir()}
}

// benchmarkFile is BENCHMARK.json as the acceptance harness reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("BENCHMARK.json keys %v, want exactly %v", keys, want)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// BENCHMARK.json and the code must name the same workloads and metrics.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)",
				i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file %+v\n code %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file %+v\n code %+v", f.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) || f.Command[len(f.Command)-1] != "bench/run.sh" {
		t.Errorf("command %v, paths %v", f.Command, f.Paths)
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s is listed twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if len(m.Unit) == 0 || len(m.Unit) > 16 {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
}

// checkResult asserts the schema of a run's artifact and of its last line.
func checkResult(t *testing.T, r *result, defs []metricDef) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", r.Workload, r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(defs) {
		t.Fatalf("%s: %d metrics, want %d", r.Workload, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			t.Fatalf("%s: metric %s missing", r.Workload, d.Name)
		}
		if m.Unit != d.Unit || m.N < 1 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %+v", r.Workload, d.Name, m)
		}
	}
	if r.Env.NProc < 1 || r.Env.GoVersion == "" || r.Env.GOMAXPROCS < 1 || r.Env.NanosleepUS <= 0 || r.Env.TimeSleepUS <= 0 || len(r.Env.Allowed) == 0 {
		t.Errorf("%s: env block incomplete: %+v", r.Workload, r.Env)
	}
	line, err := json.Marshal(r.extract())
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(line, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
		t.Errorf("%s: last line has keys other than correct, attempted, failed, metrics: %s", r.Workload, line)
	}
	var metrics map[string]map[string]json.RawMessage
	if err := json.Unmarshal(raw["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for name, m := range metrics {
		if len(m) != 2 || m["value"] == nil || m["unit"] == nil {
			t.Errorf("%s: metric %s on the last line is not {value, unit}", r.Workload, name)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		r, err := runWorkload(w, smoke(t, false))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkResult(t, r, endToEnd)
		for _, d := range endToEnd {
			if r.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: %s = %v: an end-to-end metric is never zero", w.name, d.Name, r.Metrics[d.Name].Value)
			}
		}
		if n := r.Metrics["setup_s"].N; n != trials {
			t.Errorf("%s: setup_s from %d set-ups, want %d", w.name, n, trials)
		}
		if g := r.Metrics["goodput_frac"].Value; g != 1 {
			t.Errorf("%s: goodput %v", w.name, g)
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, w := range workloads {
		o := smoke(t, true)
		r, err := runWorkload(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkResult(t, r, perLayer)
		if err := r.save(o.outDir); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(o.outDir, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var spans []span
		if err := json.Unmarshal(b, &spans); err != nil {
			t.Fatalf("%s: trace file: %v", w.name, err)
		}
		roots := 0
		for _, s := range spans {
			if s.Trace == "" || s.Name == "" || s.EndNS < s.StartNS {
				t.Fatalf("%s: bad span %+v", w.name, s)
			}
			if s.Parent == "" {
				roots++
				if s.SelfNS > s.EndNS-s.StartNS {
					t.Fatalf("%s: root self time exceeds its duration: %+v", w.name, s)
				}
			}
		}
		if roots == 0 {
			t.Errorf("%s: trace has no packet spans", w.name)
		}
		v := func(name string) float64 { return r.Metrics[name].Value }
		if v("queue.spsc_b16_ns_per_item") <= 0 || v("transport.encode_ns") <= 0 || v("service.deploy_ns") <= 0 {
			t.Errorf("%s: ladder rungs missing", w.name)
		}
		switch w.name {
		case "tcp-paced":
			// The hop components and the residual add up to the traced
			// trial's latency p50 by construction; what the test pins is
			// that every component was actually stamped.
			for _, name := range []string{"hop.queue_wait_us", "hop.send_us", "hop.wire_us", "hop.deliver_us"} {
				if v(name) <= 0 {
					t.Errorf("tcp-paced: %s = %v", name, v(name))
				}
			}
			if v("transport.write_syscalls_per_pkt") < 0.9 {
				t.Errorf("tcp-paced: %v writes per packet, want one each", v("transport.write_syscalls_per_pkt"))
			}
		case "tcp-sat":
			if w := v("transport.write_syscalls_per_pkt"); w <= 0 || w > 0.5 {
				t.Errorf("tcp-sat: %v writes per packet, want about 1/16", w)
			}
		case "inproc-defaults":
			if v("obs.tax_ratio") <= 0 {
				t.Error("inproc-defaults: no obs.tax_ratio")
			}
		case "inproc-chain":
			if v("proc.par2_speedup") <= 0 || v("pipeline.emit_ns") <= 0 {
				t.Error("inproc-chain: no par2_speedup or emit_ns")
			}
		case "adapt-netlimit":
			if v("netsim.link_util_frac") <= 0 || v("transport.wire_bytes_per_pkt") < 500 {
				t.Errorf("adapt-netlimit: link readings %v, %v", v("netsim.link_util_frac"), v("transport.wire_bytes_per_pkt"))
			}
		}
	}
}

// On tcp-paced the hop components plus the residual are the latency p50.
func TestHopsSumToLatency(t *testing.T) {
	w, _ := findWorkload("tcp-paced")
	p := smoke(t, true).params(0)
	p.tr = newTracer(1, 1) // stamp every packet: the sums are then exact
	tr, err := w.run(p)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	fromTrace(p.tr, tr, vals)
	var sum float64
	for name, v := range vals {
		if strings.HasPrefix(name, "hop.") {
			sum += v
		}
	}
	if want := median(tr.latMS) * 1e3; math.Abs(sum-want) > 1e-6 {
		t.Errorf("hops sum to %v us, latency p50 is %v us", sum, want)
	}
	if vals["hop.send_us"] <= 0 || vals["hop.wire_us"] <= 0 {
		t.Errorf("components not stamped: %v", vals)
	}
}

// One damaged payload word must fail the command, on an in-process path and
// across the codec.
func TestCorruptPayloadFailsTheCommand(t *testing.T) {
	for _, name := range []string{"inproc-chain", "tcp-sat"} {
		o := smoke(t, false)
		o.corrupt = 777
		if err := run(o, name, 0); err == nil {
			t.Errorf("%s: the command succeeded on a corrupted payload", name)
		}
		b, err := os.ReadFile(filepath.Join(o.outDir, "result-"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatal(err)
		}
		if r.Correct || r.Failed == 0 || r.Metrics["goodput_frac"].Value >= 1 {
			t.Errorf("%s: a corrupted payload went unnoticed: correct=%v failed=%d", name, r.Correct, r.Failed)
		}
	}
}

func TestCommandRejectsBadArguments(t *testing.T) {
	o := smoke(t, false)
	if err := run(o, "no-such-workload", 0); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run(o, "", 3); err == nil {
		t.Error("-aa 3 accepted: a quartile needs five runs")
	}
	o.seconds = 0
	if err := run(o, "inproc-chain", 0); err == nil {
		t.Error("-seconds 0 accepted")
	}
}
