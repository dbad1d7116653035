package main

import "math"

// metricDef names one reported metric. BENCHMARK.json carries the same
// lists; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, as a share of the parent's median
}

// endToEnd are the gated metrics, each defined and non-zero on all five
// workloads (the acceptance harness reads every one of them from every
// run). The README's demotion log says what was left out and why.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_pps", "pkt/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"goodput_frac", "frac", "higher", 0.001},
}

// perLayer are the ungated metrics, named layer.metric after the module
// that does the work. A reading of 0 on a workload means the layer is idle
// there (or the reading is defined on another workload only); the README
// lists which.
var perLayer = []metricDef{
	{Name: "queue.spsc_b16_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "queue.spsc_p1_ns", Unit: "ns", Better: "lower"},
	{Name: "queue.mpsc_p1_ns", Unit: "ns", Better: "lower"},
	{Name: "queue.blocked_push_frac", Unit: "frac", Better: "lower"},
	{Name: "queue.blocked_pop_frac", Unit: "frac", Better: "lower"},
	{Name: "queue.push_stall_frac", Unit: "frac", Better: "lower"},
	{Name: "queue.pop_stall_frac", Unit: "frac", Better: "lower"},
	{Name: "queue.highwater_frac", Unit: "frac", Better: "lower"},
	{Name: "pipeline.pool_getput_ns", Unit: "ns", Better: "lower"},
	{Name: "pipeline.pool_miss_frac", Unit: "frac", Better: "lower"},
	{Name: "pipeline.hop_ns", Unit: "ns", Better: "lower"},
	{Name: "pipeline.hop_residual_ns", Unit: "ns", Better: "lower"},
	{Name: "pipeline.emit_ns", Unit: "ns", Better: "lower"},
	{Name: "pipeline.allocs_per_pkt", Unit: "count", Better: "lower"},
	{Name: "obs.tax_ratio", Unit: "ratio", Better: "lower"},
	{Name: "netsim.transfer_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.transfer_b16_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "netsim.shaped_transfer_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.link_util_frac", Unit: "frac", Better: "higher"},
	{Name: "netsim.link_wait_frac", Unit: "frac", Better: "lower"},
	{Name: "clock.scaled_sleep_err_frac", Unit: "frac", Better: "lower"},
	{Name: "adapt.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "adapt.adjust_ns", Unit: "ns", Better: "lower"},
	{Name: "adapt.closeness", Unit: "ratio", Better: "higher"},
	{Name: "adapt.tracking", Unit: "ratio", Better: "higher"},
	{Name: "adapt.settled_value", Unit: "ratio", Better: "higher"},
	{Name: "adapt.wobble_sd", Unit: "ratio", Better: "lower"},
	{Name: "adapt.exceptions_per_epoch", Unit: "count", Better: "lower"},
	{Name: "transport.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.encode_allocs", Unit: "count", Better: "lower"},
	{Name: "transport.decode_allocs", Unit: "count", Better: "lower"},
	{Name: "transport.frame_bytes", Unit: "bytes", Better: "lower"},
	{Name: "transport.sendbatch16_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "transport.write_syscalls_per_pkt", Unit: "count", Better: "lower"},
	{Name: "transport.read_syscalls_per_pkt", Unit: "count", Better: "lower"},
	{Name: "transport.wire_bytes_per_pkt", Unit: "bytes", Better: "lower"},
	{Name: "hop.gen_late_us", Unit: "us", Better: "lower"},
	{Name: "hop.queue_wait_us", Unit: "us", Better: "lower"},
	{Name: "hop.send_us", Unit: "us", Better: "lower"},
	{Name: "hop.wire_us", Unit: "us", Better: "lower"},
	{Name: "hop.deliver_us", Unit: "us", Better: "lower"},
	{Name: "hop.residual_us", Unit: "us", Better: "lower"},
	{Name: "service.plan_ns", Unit: "ns", Better: "lower"},
	{Name: "service.deploy_ns", Unit: "ns", Better: "lower"},
	{Name: "proc.cpu_us_per_pkt", Unit: "us", Better: "lower"},
	{Name: "proc.gc_cycles_per_mpkt", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_bytes_per_pkt", Unit: "bytes", Better: "lower"},
	{Name: "proc.ctx_switches_per_kpkt", Unit: "count", Better: "lower"},
	{Name: "proc.rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.par2_speedup", Unit: "ratio", Better: "higher"},
	{Name: "lat.p90_ms", Unit: "ms", Better: "lower"},
	{Name: "lat.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "lat.max_ms", Unit: "ms", Better: "lower"},
	{Name: "lat.samples", Unit: "count", Better: "higher"},
	{Name: "gen.late_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
}

// ratio is a/b, or 0 when b is 0: a layer that did nothing has no ratio.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fromTrial reads the layer metrics one untraced trial yields by itself:
// the public Stats() of the queues it ran through and the process counters
// over its measured phase.
func fromTrial(t *trial, out map[string]float64) {
	for _, q := range t.queues {
		for name, v := range map[string]float64{
			"queue.blocked_push_frac": ratio(float64(q.s.BlockedPushes), float64(q.s.Pushed)),
			"queue.blocked_pop_frac":  ratio(float64(q.s.BlockedPops), float64(q.s.Popped)),
			"queue.push_stall_frac":   ratio(float64(q.s.PushStallNS), t.wallS*1e9),
			"queue.pop_stall_frac":    ratio(float64(q.s.PopStallNS), t.wallS*1e9),
			"queue.highwater_frac":    ratio(float64(q.s.HighWater), float64(q.cap)),
		} {
			// The busiest queue speaks for the workload: it is the one next
			// to the bottleneck.
			out[name] = math.Max(out[name], v)
		}
	}
	pkts := float64(t.post)
	out["pipeline.pool_miss_frac"] = ratio(float64(t.d.poolMisses), float64(t.d.poolGets+t.d.poolMisses))
	out["pipeline.allocs_per_pkt"] = ratio(float64(t.d.mallocs), pkts)
	out["transport.write_syscalls_per_pkt"] = ratio(float64(t.d.writeCalls), pkts)
	out["transport.read_syscalls_per_pkt"] = ratio(float64(t.d.readCalls), pkts)
	out["proc.cpu_us_per_pkt"] = ratio(float64(t.d.cpuNS)/1e3, pkts)
	out["proc.gc_cycles_per_mpkt"] = ratio(float64(t.d.gcCycles)*1e6, pkts)
	out["proc.alloc_bytes_per_pkt"] = ratio(float64(t.d.allocBytes), pkts)
	out["proc.ctx_switches_per_kpkt"] = ratio(float64(t.d.ctxSwitches)*1e3, pkts)
	out["proc.rss_mb"] = float64(t.d.maxRSSKB) / 1024
	out["lat.p90_ms"] = percentile(t.latMS, 90)
	out["lat.p99_ms"] = percentile(t.latMS, 99)
	out["lat.max_ms"] = percentile(t.latMS, 100)
	out["lat.samples"] = float64(len(t.latMS))
	if len(t.lateMS) > 0 {
		out["gen.late_p90_ms"] = percentile(t.lateMS, 90)
	}
	for name, v := range t.layer {
		out[name] = v
	}
}

// fromTrace reads the layer metrics of the traced trial: the p50 gap between
// each pair of stamps along the path, and what is left of the end-to-end
// p50 once they are subtracted.
func fromTrace(tr *tracer, t *trial, out map[string]float64) {
	p50 := func(from, to int) float64 {
		g := tr.gapsUS(from, to)
		if len(g) == 0 {
			return 0
		}
		return median(g)
	}
	out["pipeline.emit_ns"] = p50(colRelay1In, colRelay1Out) * 1e3
	if len(tr.gapsUS(colEgressIn, colEgressOut)) == 0 {
		return // no transport on this path: the hop.* rows stay zero
	}
	parts := []struct {
		name     string
		from, to int
	}{
		{"hop.gen_late_us", colDue, colEmitStart},
		{"hop.queue_wait_us", colEmitStart, colEgressIn},
		{"hop.send_us", colEgressIn, colEgressOut},
		{"hop.wire_us", colEgressOut, colDeliverIn},
		{"hop.deliver_us", colDeliverIn, colSinkIn},
	}
	var sum float64
	for _, p := range parts {
		out[p.name] = p50(p.from, p.to)
		sum += out[p.name]
	}
	// Open loop: the total is the trial's own latency p50 over every
	// packet. Closed loop: latency is probed apart from the saturated phase
	// the stamps come from, so the total is the stamped packets' own.
	total := p50(colEmitStart, colSinkIn)
	if len(tr.gapsUS(colDue, colSinkIn)) > 0 {
		total = median(t.latMS) * 1e3
	}
	out["hop.residual_us"] = total - sum
}
