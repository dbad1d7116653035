// Package cliconf holds the command-line surface every GATES binary
// shares: the observability flags (obs endpoint, trace sampling, flight
// recorder), the policy flags (document path, hot-reload watch), and the
// plumbing that turns them into a wired observability bundle and policy
// engine. gates-node and gates-launcher previously each carried a copy of
// this block; one definition here keeps the flags, their help text, and
// their defaults from drifting apart.
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
	// FlightSize is the flight-recorder ring capacity.
	FlightSize int
	// FlightDump is the flight-recorder disk-snapshot path ("" = off).
	FlightDump string
	// Verbose enables structured middleware logging to stderr.
	Verbose bool
	// PolicyPath is a policy document (JSON or XML) loaded at startup
	// ("" = built-in defaults).
	PolicyPath string
	// PolicyWatch is the wall-clock interval for re-checking PolicyPath
	// for hot reloads (0 = no watching).
	PolicyWatch time.Duration
	// CheckpointInterval is the virtual time between checkpoint rounds
	// (0 = policy default when faults are enabled, else off).
	CheckpointInterval time.Duration
	// ReplayBuffer is the per-edge replay-ring depth (0 = policy default
	// when faults are enabled, else off).
	ReplayBuffer int
}

// Register defines the shared flag block on fs and returns the struct the
// parsed values land in.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.ObsListen, "obs-listen", "", "HTTP address serving the observability surface — /metrics, /snapshot, /adaptations, /migrations, /traces, /flightrecorder, /bottlenecks, /decisions, /policy, /healthz, /readyz, /debug/pprof (\":0\" picks a port; omit to disable)")
	fs.IntVar(&f.TraceSample, "trace-sample", obs.DefaultTraceSample(), "record one trace span in every N hot-path operations; 0 disables tracing entirely (default from GATES_TRACE_SAMPLE)")
	fs.IntVar(&f.FlightSize, "flight-recorder-size", obs.DefaultFlightCapacity, "events retained by the in-memory flight recorder")
	fs.StringVar(&f.FlightDump, "flight-dump", "", "file path the flight recorder snapshots to on SLO violation or SIGQUIT (omit to disable disk dumps)")
	fs.BoolVar(&f.Verbose, "v", false, "log structured middleware events to stderr")
	fs.StringVar(&f.PolicyPath, "policy", "", "policy document (JSON or XML) declaring placement rules, rebalance thresholds, and SLO targets (omit for built-in defaults)")
	fs.DurationVar(&f.PolicyWatch, "policy-watch", 0, "re-check the -policy file this often (wall clock) and hot-reload it on change (0 = no watching; POST /policy always works)")
	fs.DurationVar(&f.CheckpointInterval, "checkpoint-interval", 0, "virtual time between asynchronous stage checkpoints (0 = the policy document's faults.checkpoint_interval when faults are enabled, else no checkpointing)")
	fs.IntVar(&f.ReplayBuffer, "replay-buffer", 0, "per-edge replay-ring depth for crash recovery (0 = the policy document's faults.replay_buffer when faults are enabled, else fault tolerance off)")
	return f
}

// FaultTolerance resolves the fault-tolerance knobs against the active
// policy document: explicit flags win, the document's faults section fills
// the gaps, and all-zero means the fault plane stays off.
func (f *Flags) FaultTolerance(doc policy.Document) (checkpoint time.Duration, replay int, enabled bool) {
	checkpoint, replay = f.CheckpointInterval, f.ReplayBuffer
	if doc.Faults.Enabled {
		if checkpoint == 0 {
			checkpoint = doc.Faults.CheckpointInterval.Std()
		}
		if replay == 0 {
			replay = doc.Faults.ReplayBuffer
		}
	}
	return checkpoint, replay, checkpoint > 0 || replay > 0
}

// SampleEvery resolves the raw -trace-sample value into the
// obs.Config.SampleEvery convention (0 = default, <0 = disabled).
func (f *Flags) SampleEvery() int { return obs.SampleEveryFor(f.TraceSample) }

// NewObservability builds the bundle the flags describe: trace sampling,
// flight-recorder capacity and dump path, and logging to stderr when -v.
func (f *Flags) NewObservability(clk clock.Clock) *obs.Observability {
	cfg := obs.Config{
		SampleEvery:    f.SampleEvery(),
		FlightCapacity: f.FlightSize,
	}
	if f.Verbose {
		cfg.LogWriter = os.Stderr
	}
	ob := obs.New(clk, cfg)
	if f.FlightDump != "" {
		ob.Flight.SetDumpPath(f.FlightDump)
	}
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

// NotifyFlightDump installs the SIGQUIT handler that snapshots the flight
// recorder to disk (when a dump path is configured) without ending the
// process — the classic "what just happened" escape hatch on a live node.
// binary names the process in the stderr report. The returned stop
// function uninstalls the handler.
func NotifyFlightDump(ob *obs.Observability, binary string) (stop func()) {
	sigq := make(chan os.Signal, 1)
	signal.Notify(sigq, syscall.SIGQUIT)
	go func() {
		for range sigq {
			if path, err := ob.Flight.DumpToDisk("sigquit"); err != nil {
				fmt.Fprintf(os.Stderr, "%s: flight dump: %v\n", binary, err)
			} else if path != "" {
				fmt.Fprintf(os.Stderr, "%s: flight recorder dumped to %s\n", binary, path)
			}
		}
	}()
	return func() { signal.Stop(sigq) }
}
