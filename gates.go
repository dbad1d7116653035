// Package gates is a Go implementation of GATES (Grid-based Adaptive
// Execution on Streams), the middleware for processing distributed data
// streams described in Chen, Reddy & Agrawal, "GATES: A Grid-Based
// Middleware for Processing Distributed Data Streams" (HPDC 2004).
//
// A GATES application is a pipeline of stages deployed across grid nodes:
// stages near each stream's source reduce data volume early, and downstream
// stages compute global results. Each stage may expose one or more
// adjustment parameters — a sampling rate, a summary size — whose values the
// middleware tunes at runtime so that the analysis is as accurate as
// possible while still keeping up with the arrival rate (the paper's
// self-adaptation algorithm, Section 4).
//
// # Quick start
//
//	g, _ := gates.NewGrid(gates.GridOptions{TimeScale: 1000})
//	g.AddNode(gates.Node{Name: "edge", CPUPower: 1, MemoryMB: 512, Sources: []string{"feed"}})
//	g.AddNode(gates.Node{Name: "hub", CPUPower: 4, MemoryMB: 4096})
//	g.SetDefaultLink(gates.LinkConfig{Bandwidth: 100 * gates.KBps})
//	g.RegisterSource("my/source", func(i int) gates.Source { return mySource(i) })
//	g.RegisterProcessor("my/analyze", func(i int) gates.Processor { return newAnalyzer() })
//	app, _ := g.Launch(ctx, configXML, nil)
//	err := app.Wait()
//
// The package is a facade over the implementation packages: the stage engine
// (internal/pipeline), the Section 4 algorithm (internal/adapt), the
// simulated grid fabric (internal/grid), the link emulator
// (internal/netsim), and the Launcher/Deployer machinery (internal/service).
// Everything a downstream user needs is re-exported here.
package gates

import (
	"context"
	"fmt"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/grid"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/pipeline"
	"github.com/gates-middleware/gates/internal/policy"
	"github.com/gates-middleware/gates/internal/queuing"
	"github.com/gates-middleware/gates/internal/service"
)

// Core processing API (the paper's StreamProcessor model).
type (
	// Processor is the packet-driven stage interface: Init, Process,
	// Finish. Register adjustment parameters from Init via
	// Context.SpecifyParam.
	Processor = pipeline.Processor
	// Source is the generating-stage interface for stages with no
	// inputs.
	Source = pipeline.Source
	// Context is the middleware surface handed to user code.
	Context = pipeline.Context
	// Emitter sends packets downstream.
	Emitter = pipeline.Emitter
	// Packet is the unit of data between stages.
	Packet = pipeline.Packet
	// Stage is a deployed stage instance.
	Stage = pipeline.Stage
	// StageConfig tunes one stage instance (queue capacity, adaptation
	// interval, hooks).
	StageConfig = pipeline.StageConfig
	// Engine is the in-process execution fabric, available directly for
	// programs that wire stages without the XML/deployment layer.
	Engine = pipeline.Engine
)

// GetPacket returns an empty packet from the global packet pool with one
// reference owned by the caller; fill it and Emit (ownership transfers to
// the engine) or Release it if never emitted. Sources on the hot path use
// it to keep the per-packet allocation count at zero; &Packet{...} remains
// fully supported and simply bypasses the pool.
func GetPacket() *Packet { return pipeline.GetPacket() }

// NewPacket returns a pooled packet carrying v with the given logical item
// count and wire size.
func NewPacket(v any, items, wireSize int) *Packet {
	return pipeline.NewPacket(v, items, wireSize)
}

// Self-adaptation API (the paper's specifyPara/getSuggestedValue).
type (
	// ParamSpec declares an adjustment parameter.
	ParamSpec = adapt.ParamSpec
	// Param is a live adjustment parameter; Value is the middleware's
	// current suggestion.
	Param = adapt.Param
	// AdaptOptions carries the Section 4 algorithm settings the evaluation
	// varies (capacity, window, φ weights and kind, and the two ablated
	// rules); the law's other constants are fixed.
	AdaptOptions = adapt.Options
	// Adjustment records one parameter update.
	Adjustment = adapt.Adjustment
	// Observation is one queue-load sample.
	Observation = adapt.Observation
)

// Parameter directions.
const (
	// IncreaseSpeedsProcessing marks a parameter whose increase makes the
	// stage faster and less accurate.
	IncreaseSpeedsProcessing = adapt.IncreaseSpeedsProcessing
	// IncreaseSlowsProcessing marks a parameter whose increase makes the
	// stage slower and more accurate (sampling rates, summary sizes).
	IncreaseSlowsProcessing = adapt.IncreaseSlowsProcessing
)

// Fabric types.
type (
	// Node is a grid compute resource.
	Node = grid.Node
	// Requirement constrains stage placement.
	Requirement = grid.Requirement
	// LinkConfig describes an emulated network link.
	LinkConfig = netsim.LinkConfig
	// Link is an emulated network link.
	Link = netsim.Link
	// AppConfig is a parsed XML application descriptor.
	AppConfig = service.AppConfig
	// StageTuning customizes deployed instances per (stage, instance).
	StageTuning = service.StageTuning
	// App is a launched application.
	App = service.Application
)

// Bandwidth constants (bytes per virtual second), matching the paper's four
// network configurations.
const (
	KBps = netsim.KBps
	MBps = netsim.MBps
)

// Plan/apply deployment and live re-deployment API.
type (
	// Deployment is a wired application: stages placed on nodes, links
	// installed. App embeds it; Migrate and NodeFor live here.
	Deployment = service.Deployment
	// Plan is the serializable output of the planning half of
	// deployment: stage-instance→node assignments plus link wiring.
	// Deploy = Plan + Apply; plans are diffable and re-computable.
	Plan = service.Plan
	// Move is one difference between two plans (an instance changing
	// node).
	Move = service.Move
	// Planner decides placements and reserves slots without
	// instantiating anything.
	Planner = service.Planner
	// Rebalancer watches a deployment's placement cost against the
	// current network and migrates stages when a better node would cut
	// the cost past a threshold.
	Rebalancer = service.Rebalancer
	// Snapshotter is implemented by stage user code whose state must
	// survive migration (Snapshot/Restore).
	Snapshotter = pipeline.Snapshotter
	// StageState is a stage's lifecycle state.
	StageState = pipeline.StageState
)

// Stage lifecycle states (Init → Running → Draining → Paused → Stopped).
const (
	StateInit     = pipeline.StateInit
	StateRunning  = pipeline.StateRunning
	StateDraining = pipeline.StateDraining
	StatePaused   = pipeline.StatePaused
	StateStopped  = pipeline.StateStopped
)

// Declarative control plane: one versioned policy document behind every
// Planner placement, Rebalancer verdict, and SLO evaluation, each verdict
// recorded in the event journal citing the version that produced it.
type (
	// PolicyDocument is one complete declarative policy (placement rules,
	// rebalance thresholds, SLO objectives). The zero value normalizes to
	// the middleware's historical defaults.
	PolicyDocument = policy.Document
	// PolicyEngine evaluates the active document and logs every decision;
	// it supports validated hot reloads (Load, LoadFile, Watch, or POST
	// /policy on the observability endpoint).
	PolicyEngine = policy.Engine
	// PlacementRule constrains or biases where one stage's instances run.
	PlacementRule = policy.PlacementRule
)

// ParsePolicy decodes a JSON or XML policy document and normalizes it.
func ParsePolicy(b []byte) (PolicyDocument, error) { return policy.Parse(b) }

// DefaultPolicy returns the built-in document — the constants the
// middleware ran on before the policy layer existed.
func DefaultPolicy() PolicyDocument { return policy.DefaultDocument() }

// NewPolicyRebalancer returns a rebalancer over dep that reads every
// control constant from eng at each sweep, so a hot reload changes the
// very next decision.
func NewPolicyRebalancer(dep *Deployment, eng *PolicyEngine) *Rebalancer {
	return service.NewPolicyRebalancer(dep, eng)
}

// Clock is the virtual time base (see GridOptions.TimeScale).
type Clock = clock.Clock

// GridOptions configures a Grid environment.
type GridOptions struct {
	// TimeScale compresses time: virtual seconds per wall second. Zero
	// or 1 runs in real time. Experiments use hundreds; the paper's
	// multi-minute runs then complete in seconds with every rate ratio
	// preserved.
	TimeScale float64
}

// Grid is the top-level environment: a simulated grid fabric (resource
// directory + emulated network), an application repository, and the
// Launcher/Deployer pair. It plays the role Globus 3.0 and the GATES
// services play in the paper's deployment.
type Grid struct {
	clk  clock.Clock
	dir  *grid.Directory
	net  *netsim.Network
	repo *service.Repository
	o    *obs.Observability
	pol  *policy.Engine
}

// NewGrid returns an empty grid environment.
func NewGrid(opts GridOptions) (*Grid, error) {
	var clk clock.Clock
	switch {
	case opts.TimeScale < 0:
		return nil, fmt.Errorf("gates: negative TimeScale %v", opts.TimeScale)
	case opts.TimeScale == 0 || opts.TimeScale == 1:
		clk = clock.NewReal()
	default:
		clk = clock.NewScaled(opts.TimeScale)
	}
	return &Grid{
		clk:  clk,
		dir:  grid.NewDirectory(),
		net:  netsim.NewNetwork(clk),
		repo: service.NewRepository(),
	}, nil
}

// Clock returns the environment's time base; stage code receives the same
// clock through its Context.
func (g *Grid) Clock() Clock { return g.clk }

// AddNode registers a compute node with the resource directory.
func (g *Grid) AddNode(n Node) error {
	if err := g.dir.Register(n); err != nil {
		return err
	}
	g.net.AddNode(n.Name)
	return nil
}

// Nodes lists the registered nodes.
func (g *Grid) Nodes() []Node { return g.dir.List() }

// SetDefaultLink sets the link used between any node pair without an
// explicit link.
func (g *Grid) SetDefaultLink(cfg LinkConfig) { g.net.SetDefaultLink(cfg) }

// ConnectNodes installs a directed link between two nodes and returns it.
func (g *Grid) ConnectNodes(from, to string, cfg LinkConfig) *Link {
	return g.net.Connect(from, to, cfg)
}

// NetworkBytes reports the total payload carried across all emulated links.
func (g *Grid) NetworkBytes() int64 { return g.net.TotalBytes() }

// RegisterProcessor publishes a processor stage code in the application
// repository under the given code name.
func (g *Grid) RegisterProcessor(code string, f func(instance int) Processor) error {
	return g.repo.RegisterProcessor(code, f)
}

// RegisterSource publishes a source stage code in the application
// repository.
func (g *Grid) RegisterSource(code string, f func(instance int) Source) error {
	return g.repo.RegisterSource(code, f)
}

// Launch fetches the application descriptor at locator (an http(s) URL, a
// file path, or a literal XML document), deploys it across the grid, and
// starts it. tuning may be nil.
func (g *Grid) Launch(ctx context.Context, locator string, tuning StageTuning) (*App, error) {
	l, err := g.launcher()
	if err != nil {
		return nil, err
	}
	return l.Launch(ctx, locator, tuning)
}

// LaunchConfig deploys and starts an already parsed descriptor.
func (g *Grid) LaunchConfig(ctx context.Context, cfg *AppConfig, tuning StageTuning) (*App, error) {
	l, err := g.launcher()
	if err != nil {
		return nil, err
	}
	return l.LaunchConfig(ctx, cfg, tuning)
}

func (g *Grid) launcher() (*service.Launcher, error) {
	d, err := service.NewDeployer(g.clk, g.dir, g.repo, g.net)
	if err != nil {
		return nil, err
	}
	if g.o != nil {
		d.SetObservability(g.o)
	}
	d.SetPolicy(g.pol)
	return service.NewLauncher(d)
}

// NewPolicyEngine builds a policy engine on the grid's clock (logging into
// the attached observability bundle, when any) and attaches it: every
// application launched from now on plans, rebalances, and arms its fault
// plane through it, and every aggregator built from now on judges SLOs by
// it. Attach observability first so decisions are logged.
func (g *Grid) NewPolicyEngine() *PolicyEngine {
	e := policy.New(g.clk, g.o)
	g.pol = e
	return e
}

// SetPolicyEngine attaches an existing engine (e.g. one shared with an HTTP
// surface). Nil detaches, reverting launches to the default policy.
func (g *Grid) SetPolicyEngine(e *PolicyEngine) { g.pol = e }

// PolicyEngine returns the attached engine, or nil when none is attached.
func (g *Grid) PolicyEngine() *PolicyEngine { return g.pol }

// NewEngine returns a bare stage engine on the grid's clock for programs
// that wire stages directly, without the XML descriptor and deployment
// machinery. The grid's Observability carries over; Engine.SetDefaultBatchSize
// batches every stage of the engine.
func (g *Grid) NewEngine() *Engine {
	e := pipeline.New(g.clk)
	if g.o != nil {
		e.SetObservability(g.o)
	}
	return e
}

// Observability is the unified observation bundle: a metrics registry with
// Prometheus/JSON exposition, structured logging on the virtual clock,
// sampled hot-path trace spans, and the event journal.
type Observability = obs.Observability

// ObsConfig tunes an Observability bundle (see obs.Config).
type ObsConfig = obs.Config

// The event journal (Observability.Journal, served at /events): one
// timeline of every control-plane event, each an envelope plus one typed
// payload per kind.
type (
	// Event is one journal entry.
	Event = obs.Event
	// EventFilter narrows Journal.Events; the zero filter matches all.
	EventFilter = obs.EventFilter
	// Adaptation is an adaptation event's payload: one §4 epoch.
	Adaptation = obs.Adaptation
	// Migration is a migration event's payload: one live stage move.
	Migration = obs.Migration
	// Lifecycle is a lifecycle event's payload: one stage state edge.
	Lifecycle = obs.Lifecycle
	// Decision is the payload of placement, rebalance, and policy events:
	// the rule, the outcome, and the input the rule saw.
	Decision = obs.Decision
	// SLO is an slo event's payload: one SLO-detector evaluation.
	SLO = obs.SLO
	// Recovery is a recovery event's payload: one instance recovered off
	// a dead node.
	Recovery = obs.Recovery
)

// NewObservability builds an observability bundle on the grid's clock and
// attaches it: every application launched (and every engine built) from now
// on publishes metrics, spans, journal events, and logs into it. Serve its
// HTTP surface with gates.ServeObservability.
func (g *Grid) NewObservability(cfg ObsConfig) *Observability {
	o := obs.New(g.clk, cfg)
	g.o = o
	return o
}

// SetObservability attaches an existing bundle (e.g. one shared with a
// transport-hosted node). Nil detaches.
func (g *Grid) SetObservability(o *Observability) { g.o = o }

// Observability returns the attached bundle, or nil when unobserved.
func (g *Grid) Observability() *Observability { return g.o }

// ServeObservability exposes o over HTTP at addr (":0" picks a free port):
// /metrics (Prometheus text), /snapshot (JSON), /events (the journal),
// /traces (sampled spans). Close the returned server when done.
func ServeObservability(addr string, o *Observability) (*obs.Server, error) {
	return obs.Serve(addr, o)
}

// Aggregator is the runtime observation service — the paper's "the system
// monitors the arrival rate at each source, the available computing
// resources ... and the available network bandwidth". Each Collect returns a
// ClusterView: every stage instance's queue occupancy, d̃, λ/μ rates and
// parameter values, link traffic, latency and SLO verdict. Rates are counter
// deltas since the previous Collect; Render prints the view as the
// dashboard gates-launcher -top streams.
type Aggregator = obs.Aggregator

// NewAggregator returns an aggregator over the grid's observability bundle,
// attaching a default bundle first when none is attached. Its SLO detector
// judges by the objectives of the policy engine attached now (the default
// policy's when none is), read afresh at every collection, and records each
// verdict in the bundle's journal. Only applications launched afterwards
// publish into the bundle, so call it before Launch.
func (g *Grid) NewAggregator() *Aggregator {
	if g.o == nil {
		g.NewObservability(ObsConfig{})
	}
	a := obs.NewAggregator(g.clk, g.pol.SLOSource())
	a.SetJournal(g.o.Journal)
	a.AddSource("grid", obs.LocalSource(g.o))
	return a
}

// ParseConfig parses an XML application descriptor.
func ParseConfig(xml string) (*AppConfig, error) {
	return service.ParseConfigString(xml)
}

// ErrNoMatch is returned when no grid node satisfies a stage's requirement.
var ErrNoMatch = grid.ErrNoMatch

// Analytic model of §4.1 — every stage a server, every input buffer its
// queue. Build the network your pipeline induces, solve it, and ask for the
// sustainable fraction to know where the middleware should converge before
// you run anything.
type (
	// QueuingNetwork is an open feed-forward queueing network.
	QueuingNetwork = queuing.Network
	// QueuingStation is one server in the network.
	QueuingStation = queuing.Station
	// QueuingSolution holds solved arrival rates and utilizations.
	QueuingSolution = queuing.Solution
)

// NewQueuingNetwork returns an empty analytic network.
func NewQueuingNetwork() *QueuingNetwork { return queuing.New() }
