// Command gates-node hosts one pipeline stage behind a real TCP endpoint —
// the genuinely distributed deployment mode. A node listens for packets from
// upstream nodes, runs its stage code on them, and either forwards results
// to the next node or terminates the pipeline.
//
// A two-machine comp-steer deployment looks like:
//
//	# analysis machine
//	gates-node -listen :7002 -stage compsteer/analyzer -obs-listen :9090
//
//	# sampler machine (also generates the simulated stream)
//	gates-node -listen :7001 -stage compsteer/sampler -forward host2:7002 -source compsteer/sim
//
// Load exceptions travel back over the same connections, so the sampler
// adapts exactly as it does in the emulated experiments. With -obs-listen,
// the node additionally serves its observability surface over HTTP:
// /metrics (Prometheus text), /snapshot (JSON, scraped by a launcher's
// cluster aggregator), /events (the event journal: every self-adaptation
// epoch, lifecycle transition and policy load, filterable by ?kind=),
// /traces (sampled hot-path spans), /healthz and /readyz (probes), and
// /debug/pprof. Trace sampling is tuned with -trace-sample (or the
// GATES_TRACE_SAMPLE environment variable): tracing one in every N
// operations keeps hot-path overhead to an occasional ring write, while
// -trace-sample 0 removes even that.
//
// The node is also policy-driven: -policy loads a declarative control-plane
// document (and -policy-watch hot-reloads it on change), GET/POST /policy
// inspects and hot-reloads it over HTTP, and /events?kind=policy shows each
// load with the policy version it installed. The document's faults section
// is the only switch for the node's replay rings: with faults.enabled every
// edge keeps faults.replay_buffer packets for a recovering peer.
// -flight-dump makes SIGQUIT snapshot the journal to disk and keep serving;
// without it SIGQUIT is the Go runtime's stack dump and exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/builtin"
	"github.com/gates-middleware/gates/internal/cliconf"
	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/pipeline"
	"github.com/gates-middleware/gates/internal/service"
	"github.com/gates-middleware/gates/internal/transport"
)

func main() {
	var opts nodeOptions
	flag.StringVar(&opts.listen, "listen", "", "TCP address to accept upstream packets on (omit for a source-only node)")
	flag.StringVar(&opts.stage, "stage", "", "repository code of the stage to host (required)")
	flag.StringVar(&opts.source, "source", "", "repository code of a co-located source feeding the stage")
	flag.StringVar(&opts.forward, "forward", "", "downstream node address to forward output to")
	flag.IntVar(&opts.expect, "expect", 1, "number of upstream end-of-stream markers to wait for")
	flag.Float64Var(&opts.scale, "scale", 1, "virtual seconds per wall second")
	shared := cliconf.Register(flag.CommandLine)
	flag.Parse()
	opts.conf = *shared
	if opts.stage == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "gates-node:", err)
		os.Exit(1)
	}
}

// nodeOptions carries one node's configuration; flags populate it in main
// and tests construct it directly.
type nodeOptions struct {
	listen  string // upstream TCP endpoint ("" = source-only node)
	stage   string // repository code of the hosted stage (required)
	source  string // co-located source code ("" = fed over TCP)
	forward string // downstream node address ("" = terminal node)
	expect  int    // upstream end-of-stream markers to wait for
	scale   float64

	conf  cliconf.Flags          // shared observability + policy flags
	onObs func(addr, obs string) // test hook: bound data + obs addresses
}

func run(o nodeOptions) error {
	var clk clock.Clock = clock.NewReal()
	if o.scale > 1 {
		clk = clock.NewScaled(o.scale)
	}
	repo := service.NewRepository()
	if err := builtin.Register(repo); err != nil {
		return err
	}
	procFactory, ok := repo.Processor(o.stage)
	if !ok {
		return fmt.Errorf("stage code %q not in repository (codes: %v)", o.stage, repo.Codes())
	}

	// The observability bundle is always built (a nil bundle would also
	// work, but one bundle keeps the journal available to the endpoint);
	// the HTTP endpoint is opt-in. SIGQUIT snapshots the journal to disk
	// when -flight-dump is set.
	ob := o.conf.NewObservability(clk)
	defer o.conf.NotifyFlightDump(ob, "gates-node")()

	// The policy engine backs /policy and its journal events even on a
	// plain node: its stage hosts no planner, but operators can inspect and
	// hot-reload the document that a co-resident launcher or a future
	// control plane would consult, and policy loads land in /events.
	pol, stopWatch, err := o.conf.StartPolicy(clk, ob)
	if err != nil {
		return err
	}
	defer stopWatch()

	eng := pipeline.New(clk)
	eng.SetObservability(ob)

	// Fault tolerance: a policy document with faults enabled arms the
	// per-edge replay rings and consumer-side watermarks. The checkpoint
	// and recovery controllers live with a launcher-owned deployment; a
	// standalone node contributes the replayable edges and dedupe that
	// recovery elsewhere depends on.
	if ft := pol.Active().Doc.Faults; ft.Enabled {
		eng.SetDefaultReplayBuffer(ft.ReplayBuffer)
	}

	// Local stage hosting the user code. When upstream nodes feed this
	// host over TCP, its load exceptions are broadcast back to them on
	// the same connections (the §4 control plane across machines); srv
	// is bound below once listening starts.
	var srv *transport.Server
	hostCfg := pipeline.StageConfig{
		OnObserve: func(_ *pipeline.Stage, _ time.Time, obsn adapt.Observation) {
			if srv != nil && obsn.Exception != adapt.ExceptionNone {
				srv.Broadcast(transport.ExceptionMessage(obsn.Exception))
			}
		},
	}
	host, err := eng.AddProcessorStage("host", 0, procFactory(0), hostCfg)
	if err != nil {
		return err
	}

	// Upstream: either a network ingress or a co-located source.
	var dataAddr string
	switch {
	case o.source != "":
		srcFactory, ok := repo.Source(o.source)
		if !ok {
			return fmt.Errorf("source code %q not in repository", o.source)
		}
		src, err := eng.AddSourceStage("source", 0, srcFactory(0), pipeline.StageConfig{})
		if err != nil {
			return err
		}
		if err := eng.Connect(src, host, nil); err != nil {
			return err
		}
	case o.listen != "":
		ingress := transport.NewIngress(o.expect, 256)
		ingress.OnException = func(e adapt.Exception) {
			host.Controller().OnDownstreamException(e)
		}
		ingress.Tracer = ob.Tracer
		srv, err = transport.Listen(o.listen, ingress.Deliver)
		if err != nil {
			return err
		}
		defer srv.Close()
		srv.Instrument(ob.Registry, o.listen)
		dataAddr = srv.Addr()
		fmt.Println("listening on", dataAddr)
		in, err := eng.AddSourceStage("ingress", 0, ingress, pipeline.StageConfig{})
		if err != nil {
			return err
		}
		if err := eng.Connect(in, host, nil); err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -listen or -source to feed the stage")
	}

	// Observability endpoint: bound before the engine runs, so scrapes work
	// for the node's whole life.
	var obsAddr string
	if o.conf.ObsListen != "" {
		osrv, err := obs.ServeWith(o.conf.ObsListen, ob, obs.HandlerOptions{
			Ready:  eng.Ready,
			Policy: pol.Handler(),
		})
		if err != nil {
			return err
		}
		defer osrv.Close()
		obsAddr = osrv.Addr()
		fmt.Println("observability on http://" + obsAddr)
	}
	if o.onObs != nil {
		o.onObs(dataAddr, obsAddr)
	}

	// Downstream: a network egress, when configured.
	if o.forward != "" {
		cli, err := transport.Dial(o.forward)
		if err != nil {
			return err
		}
		cli.Instrument(ob.Registry, o.forward)
		// Exceptions the downstream host broadcasts back drive this
		// node's adaptation, exactly as an in-process neighbor would.
		readDone := make(chan struct{})
		go func() {
			defer close(readDone)
			cli.ReadLoop(func(m transport.Message) {
				if m.Kind == transport.KindException {
					host.Controller().OnDownstreamException(m.Exception)
				}
			})
		}()
		defer func() {
			// Shut down in half-close order: signal end-of-stream,
			// then keep draining exception traffic until the peer
			// hangs up. Closing outright while an exception frame
			// sits unread here would reset the connection and could
			// destroy the still-in-flight Final marker on the peer.
			cli.CloseWrite()
			select {
			case <-readDone:
			case <-time.After(30 * time.Second):
			}
			cli.Close()
		}()
		egress := transport.NewEgress(cli)
		egress.Tracer = ob.Tracer
		eg, err := eng.AddProcessorStage("egress", 0, egress, pipeline.StageConfig{DisableAdaptation: true})
		if err != nil {
			return err
		}
		if err := eng.Connect(host, eg, nil); err != nil {
			return err
		}
	}

	if err := eng.Run(context.Background()); err != nil {
		return err
	}
	var epochs uint64
	for _, st := range eng.Stages() {
		s := st.Stats()
		fmt.Printf("%s/%d: in=%d items out=%d pkts %d bytes\n",
			st.ID(), st.Instance(), s.ItemsIn, s.PacketsOut, s.BytesOut)
		epochs += st.Controller().Adjustments()
	}
	if epochs > 0 {
		fmt.Printf("adaptation epochs: %d\n", epochs)
	}
	return nil
}
