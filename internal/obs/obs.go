// Package obs is the unified observability layer of the middleware: a
// metrics registry with Prometheus-text and JSON exposition, structured
// logging on the virtual clock, sampled trace spans for the hot data path,
// and one journal of every control-plane event — each self-adaptation
// epoch, migration, placement, SLO verdict and recovery — that explains what
// the middleware decided and why.
//
// The paper's §1 premise is that the middleware "monitors the arrival rate
// at each source, the available computing resources and memory, and the
// available network bandwidth". This package turns that observation surface
// into first-class infrastructure: every layer (pipeline stages, queues,
// netsim links, transport endpoints, the adaptation controller) publishes
// into one Registry, and operators consume it over HTTP (/metrics,
// /snapshot, /events) or through internal/monitor, which reads the same
// registry instead of scraping components directly.
//
// All timestamps and durations are virtual time (clock.Clock), so metrics
// and traces from a 500x-compressed experiment read exactly like a
// real-time run.
package obs

import (
	"io"
	"log/slog"
	"os"
	"strconv"

	"github.com/gates-middleware/gates/internal/clock"
)

// TraceSampleEnv is the environment variable consulted for the default
// trace-sampling period when a binary's -trace-sample flag is left at its
// default. The value is the user-facing N of "record one trace in every N
// hot-path operations"; 0 disables tracing.
const TraceSampleEnv = "GATES_TRACE_SAMPLE"

// DefaultTraceSample returns the user-facing trace-sampling default: the
// value of GATES_TRACE_SAMPLE when it parses as a non-negative integer,
// otherwise DefaultSampleEvery. The result uses flag semantics (0 =
// disabled); feed it through SampleEveryFor before storing into
// Config.SampleEvery.
func DefaultTraceSample() int {
	if v := os.Getenv(TraceSampleEnv); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			return n
		}
	}
	return DefaultSampleEvery
}

// SampleEveryFor maps a user-facing -trace-sample value (N > 0 records one
// in every N operations, 0 disables tracing) onto Config.SampleEvery
// semantics, where zero means "default" and negative means "disabled".
func SampleEveryFor(n int) int {
	if n <= 0 {
		return -1
	}
	return n
}

// Config tunes an Observability bundle. The zero value selects defaults:
// 1-in-DefaultSampleEvery trace sampling, DefaultTraceCapacity retained
// spans, DefaultJournalCapacity retained journal events, and a discarded
// log stream.
type Config struct {
	// SampleEvery traces one in every this many spans. Zero selects
	// DefaultSampleEvery; negative disables tracing entirely.
	SampleEvery int
	// TraceCapacity bounds the retained span ring. Zero selects
	// DefaultTraceCapacity.
	TraceCapacity int
	// JournalCapacity bounds the retained event journal (the
	// -flight-recorder-size flag). Zero selects DefaultJournalCapacity.
	JournalCapacity int
	// LogWriter receives structured log lines. Nil discards them.
	LogWriter io.Writer
	// LogLevel is the minimum level emitted. Nil means slog.LevelInfo.
	LogLevel slog.Leveler
}

// Observability bundles the observation facilities every layer wires
// against. A nil *Observability is valid everywhere in the middleware and
// means "not observed"; use the accessor methods, which are nil-safe.
type Observability struct {
	// Clock is the time base all timestamps and durations use.
	Clock clock.Clock
	// Registry holds every published metric.
	Registry *Registry
	// Tracer samples spans on the hot data path.
	Tracer *Tracer
	// Journal records every control-plane event, served at /events:
	// adaptation epochs, lifecycle transitions, migrations, placements,
	// rebalance and SLO verdicts, policy loads, faults and recoveries.
	Journal *Journal
	// Attribution is the backpressure-attribution engine behind
	// /bottlenecks, evaluated lazily over this bundle's registry.
	Attribution *Attribution
	// Logger is the structured log stream (never nil after New).
	Logger *slog.Logger
}

// New returns a fully wired bundle on clk. The tracer's span counters are
// pre-registered in the registry, so exposition always carries
// gates_trace_spans_started_total / gates_trace_spans_sampled_total.
func New(clk clock.Clock, cfg Config) *Observability {
	if clk == nil {
		panic("obs: New requires a clock")
	}
	reg := NewRegistry(clk)
	var tr *Tracer
	if cfg.SampleEvery >= 0 {
		tr = NewTracer(clk, cfg.SampleEvery, cfg.TraceCapacity)
		reg.CounterFunc("gates_trace_spans_started_total",
			"Spans started on the hot path (sampled or not).", nil,
			func() float64 { s, _ := tr.Counts(); return float64(s) })
		reg.CounterFunc("gates_trace_spans_sampled_total",
			"Spans actually recorded.", nil,
			func() float64 { _, s := tr.Counts(); return float64(s) })
	}
	logger := Nop()
	if cfg.LogWriter != nil {
		logger = NewLogger(cfg.LogWriter, clk, cfg.LogLevel)
	}
	return &Observability{
		Clock:       clk,
		Registry:    reg,
		Tracer:      tr,
		Journal:     NewJournal(clk, cfg.JournalCapacity),
		Attribution: NewAttribution(clk),
		Logger:      logger,
	}
}

// Log returns the bundle's logger, or a no-op logger when the bundle (or
// its logger) is nil — callers never need a nil check.
func (o *Observability) Log() *slog.Logger {
	if o == nil || o.Logger == nil {
		return Nop()
	}
	return o.Logger
}

// Reg returns the bundle's registry, or nil when unobserved.
func (o *Observability) Reg() *Registry {
	if o == nil {
		return nil
	}
	return o.Registry
}

// Trace returns the bundle's tracer, or nil when unobserved. A nil *Tracer
// is itself safe to Start spans on.
func (o *Observability) Trace() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// Attr returns the bundle's attribution engine, or nil when unobserved. A
// nil *Attribution is itself safe to Observe with.
func (o *Observability) Attr() *Attribution {
	if o == nil {
		return nil
	}
	return o.Attribution
}
