// Command gates-launcher is the paper's application-user entry point: it
// takes the URL (or path, or literal XML) of an application descriptor,
// deploys the application across the demo grid fabric, runs it, and reports
// per-stage statistics.
//
// Usage:
//
//	gates-launcher -config app.xml [-scale 500] [-bandwidth 100000]
//
// Stage codes named in the descriptor resolve against the built-in
// application repository (see internal/builtin); examples/ contains ready
// descriptors. With -top, the cluster dashboard (per-instance queue, d̃,
// λ/μ and parameter values, link traffic, latency, SLO verdict, recent
// events) streams to stderr while the application runs and a final one goes
// to stdout; with -obs-listen, the whole deployment's metrics, event
// journal, and sampled traces are served over HTTP for the run's duration:
//
//	gates-launcher -config examples/compsteer.xml -obs-listen :9090 &
//	curl -s localhost:9090/metrics | grep gates_stage_items
//
// The launcher is also the cluster-wide observability plane: /cluster on the
// same endpoint returns the merged view of its own registry plus every
// remote gates-node named with -scrape (their /snapshot endpoints), with
// end-to-end latency quantiles and SLO status; -top renders that same view.
// Probes (/healthz, /readyz) and /debug/pprof are mounted on the same mux,
// and -trace-sample / GATES_TRACE_SAMPLE tune hot-path trace sampling (0
// disables it).
//
// The run is policy-driven: -policy loads a declarative control-plane
// document (placement rules, rebalance thresholds, SLO objectives, the fault
// plane), -policy-watch and POST /policy hot-reload it mid-run with
// validation-and-rollback, and /events (?kind=placement, rebalance, slo,
// policy) serves every placement, rebalance verdict, and SLO evaluation with
// the policy version that produced it. The document is the only place a
// control constant is set: its faults section makes the service Launcher
// arm checkpointing, failure detection and scripted injections, and its slo
// section is what the cluster SLO detector judges by. -flight-dump makes
// SIGQUIT, and every SLO violation, snapshot the journal to disk.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"github.com/gates-middleware/gates/internal/builtin"
	"github.com/gates-middleware/gates/internal/cliconf"
	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/service"
)

func main() {
	var (
		config    = flag.String("config", "", "application descriptor: http(s) URL, file path, or literal XML (required)")
		scale     = flag.Float64("scale", 500, "virtual seconds per wall second")
		bandwidth = flag.Int64("bandwidth", 100_000, "cross-node link bandwidth, bytes per virtual second")
		scrape    = flag.String("scrape", "", "comma-separated observability addresses of remote gates-node processes whose /snapshot feeds the /cluster view")
		topIv     = flag.Duration("top", 0, "render the cluster-wide dashboard to stderr every this much virtual time, plus a final one to stdout (0 = off)")
	)
	shared := cliconf.Register(flag.CommandLine)
	flag.Parse()
	if *config == "" {
		flag.Usage()
		os.Exit(2)
	}
	opts := launcherOptions{
		scale:     *scale,
		bandwidth: *bandwidth,
		scrape:    splitScrape(*scrape),
		topIv:     *topIv,
		conf:      *shared,
	}
	if err := run(*config, opts); err != nil {
		fmt.Fprintln(os.Stderr, "gates-launcher:", err)
		os.Exit(1)
	}
}

// splitScrape parses the -scrape flag: comma-separated addresses, blanks
// dropped.
func splitScrape(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// launcherOptions carries one run's configuration; flags populate it in main
// and tests construct it directly. The zero value is a plain headless run.
type launcherOptions struct {
	scale     float64           // virtual seconds per wall second (<=0 = 1)
	bandwidth int64             // cross-node bandwidth, bytes per virtual second
	scrape    []string          // remote node obs addresses feeding /cluster
	topIv     time.Duration     // cluster dashboard interval (0 = off)
	conf      cliconf.Flags     // shared observability + policy flags
	onObs     func(addr string) // test hook: bound observability address
}

func run(config string, o launcherOptions) error {
	if o.scale <= 0 {
		o.scale = 1
	}
	clk := clock.NewScaled(o.scale)
	dir, net, err := builtin.Fabric(clk, o.bandwidth)
	if err != nil {
		return err
	}
	repo := service.NewRepository()
	if err := builtin.Register(repo); err != nil {
		return err
	}
	deployer, err := service.NewDeployer(clk, dir, repo, net)
	if err != nil {
		return err
	}

	// One observability bundle backs everything downstream of here: the
	// deployed stages publish into its registry, adaptation epochs land in
	// its journal, and the cluster view derives its rates from the same
	// registry instead of keeping private counters. SIGQUIT snapshots the
	// journal to disk when -flight-dump is set.
	ob := o.conf.NewObservability(clk)
	deployer.SetObservability(ob)
	defer o.conf.NotifyFlightDump(ob, "gates-launcher")()

	// The policy engine is the declarative control plane behind every
	// placement, rebalance, SLO verdict and fault-plane knob of this run:
	// -policy loads a document, -policy-watch and POST /policy hot-reload
	// it, and each decision lands in /events citing the version that
	// produced it.
	pol, stopWatch, err := o.conf.StartPolicy(clk, ob)
	if err != nil {
		return err
	}
	defer stopWatch()
	deployer.SetPolicy(pol)

	// The cluster aggregator merges this process's snapshot (the launcher
	// runs every in-process stage) with any scraped remote nodes, and its
	// SLO monitor re-evaluates on every collection against the objectives
	// the policy engine currently holds, recording each verdict in the
	// journal. The violation flag is itself a metric, so a scrape of
	// /metrics sees the detector's state.
	agg := obs.NewAggregator(clk, pol.SLOSource())
	agg.SetJournal(ob.Journal)
	agg.AddSource("launcher", obs.LocalSource(ob))
	for _, addr := range o.scrape {
		agg.AddSource(addr, obs.HTTPSource(nil, addr))
	}
	ob.Registry.GaugeFunc("gates_slo_violation",
		"1 while the cluster SLO detector flags a violation, else 0.", nil,
		func() float64 {
			if agg.Violated() {
				return 1
			}
			return 0
		})

	// The endpoint binds before Launch so probes work for the whole run;
	// readiness is wired in once the application exists.
	var readyFn atomic.Value // of func() bool
	if o.conf.ObsListen != "" {
		osrv, err := obs.ServeWith(o.conf.ObsListen, ob, obs.HandlerOptions{
			Ready: func() bool {
				f, _ := readyFn.Load().(func() bool)
				return f != nil && f()
			},
			Aggregator: agg,
			Policy:     pol.Handler(),
		})
		if err != nil {
			return err
		}
		defer osrv.Close()
		fmt.Println("observability on http://" + osrv.Addr())
		if o.onObs != nil {
			o.onObs(osrv.Addr())
		}
	}

	launcher, err := service.NewLauncher(deployer)
	if err != nil {
		return err
	}

	// The Launcher arms the fault plane from the same document it reads
	// here; these two lines only report what it armed.
	ft := pol.Active().Doc.Faults
	sw := clock.NewStopwatch(clk)
	app, err := launcher.Launch(context.Background(), config, nil)
	if err != nil {
		return err
	}
	readyFn.Store(app.Ready)
	if ft.Enabled {
		fmt.Printf("fault tolerance on: checkpoints every %s, replay buffer %d, health epoch %s ×%d\n",
			ft.CheckpointInterval.Std(), ft.ReplayBuffer, ft.HealthEvery.Std(), ft.DeadAfter)
	}
	if n := len(ft.Injections); n > 0 {
		fmt.Printf("fault schedule armed: %d scripted injections\n", n)
	}
	fmt.Printf("launched %q on %d nodes; placements:\n", app.Config.Name, len(dir.List()))
	for _, p := range app.Placements {
		fmt.Printf("  %s/%d -> %s\n", p.StageID, p.Instance, p.Node)
	}
	// Stream dashboards to stderr while the run progresses; stdout stays
	// clean for the final report.
	stopTop, topDone := make(chan struct{}), make(chan struct{})
	if o.topIv > 0 {
		go func() {
			defer close(topDone)
			for {
				select {
				case <-stopTop:
					return
				case <-clk.After(o.topIv):
					agg.Collect().Render(os.Stderr)
				}
			}
		}()
	} else {
		close(topDone)
	}
	err = app.Wait()
	close(stopTop)
	<-topDone // no streamed dashboard lands after the final one
	if err != nil {
		return err
	}
	if o.topIv > 0 || len(o.scrape) > 0 {
		agg.Collect().Render(os.Stdout)
	}
	fmt.Printf("finished in %.1f virtual seconds; %d bytes crossed the network\n",
		sw.Elapsed().Seconds(), net.TotalBytes())

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "stage\tin pkts\tin items\tout pkts\tout bytes\tcompute")
	ids := make([]string, 0, len(app.Stages))
	for id := range app.Stages {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var epochs uint64
	for _, id := range ids {
		for _, st := range app.Stages[id] {
			s := st.Stats()
			fmt.Fprintf(tw, "%s/%d@%s\t%d\t%d\t%d\t%d\t%s\n",
				st.ID(), st.Instance(), st.Node(),
				s.PacketsIn, s.ItemsIn, s.PacketsOut, s.BytesOut, s.ComputeCharged)
			epochs += st.Controller().Adjustments()
		}
	}
	if epochs > 0 {
		fmt.Fprintf(tw, "adaptation epochs recorded: %d\n", epochs)
	}
	return tw.Flush()
}
