// Package cliconf holds the command-line surface every GATES binary
// shares: the observability flags (obs endpoint, trace sampling, event
// journal size and dump path), the policy flags (document path, hot-reload
// watch), and the plumbing that turns them into a wired observability
// bundle and policy engine. One definition here keeps the flags, their help
// text, and their defaults from drifting apart between gates-node and
// gates-launcher. No flag here sets a control constant: SLO objectives and
// the fault plane's knobs come from the -policy document alone.
package cliconf

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/policy"
)

// Flags is the parsed shared flag block. Register populates it from a
// FlagSet; tests may construct it directly.
type Flags struct {
	// ObsListen is the HTTP observability address ("" = disabled).
	ObsListen string
	// TraceSample is the raw -trace-sample value; SampleEvery resolves it
	// into obs.Config semantics.
	TraceSample int
	// FlightSize is the event journal's ring capacity.
	FlightSize int
	// FlightDump is the event journal's disk-snapshot path ("" = off).
	FlightDump string
	// Verbose enables structured middleware logging to stderr.
	Verbose bool
	// PolicyPath is a policy document (JSON or XML) loaded at startup
	// ("" = built-in defaults).
	PolicyPath string
	// PolicyWatch is the wall-clock interval for re-checking PolicyPath
	// for hot reloads (0 = no watching).
	PolicyWatch time.Duration
}

// Register defines the shared flag block on fs and returns the struct the
// parsed values land in.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.ObsListen, "obs-listen", "", "HTTP address serving the observability surface — /metrics, /snapshot, /events, /traces, /bottlenecks, /policy, /healthz, /readyz, /debug/pprof (\":0\" picks a port; omit to disable)")
	fs.IntVar(&f.TraceSample, "trace-sample", obs.DefaultTraceSample(), "record one trace span in every N hot-path operations; 0 disables tracing entirely (default from GATES_TRACE_SAMPLE)")
	fs.IntVar(&f.FlightSize, "flight-recorder-size", obs.DefaultJournalCapacity, "events retained by the in-memory event journal (/events)")
	fs.StringVar(&f.FlightDump, "flight-dump", "", "file path the event journal snapshots to on SLO violation or SIGQUIT (omit to disable disk dumps and leave SIGQUIT to the Go runtime)")
	fs.BoolVar(&f.Verbose, "v", false, "log structured middleware events to stderr")
	fs.StringVar(&f.PolicyPath, "policy", "", "policy document (JSON or XML) declaring placement rules, rebalance thresholds, SLO targets and the fault plane (omit for built-in defaults)")
	fs.DurationVar(&f.PolicyWatch, "policy-watch", 0, "re-check the -policy file this often (wall clock) and hot-reload it on change (0 = no watching; POST /policy always works)")
	return f
}

// SampleEvery resolves the raw -trace-sample value into the
// obs.Config.SampleEvery convention (0 = default, <0 = disabled).
func (f *Flags) SampleEvery() int { return obs.SampleEveryFor(f.TraceSample) }

// NewObservability builds the bundle the flags describe: trace sampling,
// journal capacity and dump path, and logging to stderr when -v.
func (f *Flags) NewObservability(clk clock.Clock) *obs.Observability {
	cfg := obs.Config{
		SampleEvery:     f.SampleEvery(),
		JournalCapacity: f.FlightSize,
	}
	if f.Verbose {
		cfg.LogWriter = os.Stderr
	}
	ob := obs.New(clk, cfg)
	ob.Journal.SetDumpPath(f.FlightDump)
	return ob
}

// StartPolicy builds the policy engine the flags describe: defaults first,
// then the -policy file when given, then a hot-reload watcher when
// -policy-watch is set. A startup document that fails to load is an error
// (an operator typo should stop the launch, not silently run defaults);
// later watched reloads only log. The returned stop function ends the
// watcher.
func (f *Flags) StartPolicy(clk clock.Clock, ob *obs.Observability) (*policy.Engine, func(), error) {
	eng := policy.New(clk, ob)
	if f.PolicyPath != "" {
		if err := eng.LoadFile(f.PolicyPath); err != nil {
			return nil, nil, err
		}
	}
	stop := func() {}
	if f.PolicyPath != "" && f.PolicyWatch > 0 {
		stop = eng.Watch(f.PolicyPath, f.PolicyWatch)
	}
	return eng, stop, nil
}

// NotifyFlightDump installs, when -flight-dump is set, the SIGQUIT handler
// that snapshots ob's journal to disk without ending the process — the
// classic "what just happened" escape hatch on a live node. Without a dump
// path it installs nothing, so SIGQUIT keeps the Go runtime's behavior:
// dump every goroutine's stack and exit. binary names the process in the
// stderr report. The returned stop function uninstalls the handler and
// returns once its goroutine has exited.
func (f *Flags) NotifyFlightDump(ob *obs.Observability, binary string) (stop func()) {
	if f.FlightDump == "" {
		return func() {}
	}
	sigq := make(chan os.Signal, 1)
	signal.Notify(sigq, syscall.SIGQUIT)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range sigq {
			if path, err := ob.Journal.DumpToDisk("sigquit"); err != nil {
				fmt.Fprintf(os.Stderr, "%s: journal dump: %v\n", binary, err)
			} else {
				fmt.Fprintf(os.Stderr, "%s: journal dumped to %s\n", binary, path)
			}
		}
	}()
	return func() {
		// After Stop returns no further signal is sent on sigq.
		signal.Stop(sigq)
		close(sigq)
		<-done
	}
}
