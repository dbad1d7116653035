package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"slices"
	"sync"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/queue"
)

// Engine owns a set of wired stage instances and runs them to completion.
// It is the in-process execution fabric underneath the service layer's
// containers: the Deployer decides *where* instances go; the Engine makes
// them flow.
type Engine struct {
	clk clock.Clock

	mu        sync.Mutex
	stages    []*Stage
	started   bool
	defBatch  int
	defReplay int
	o         *obs.Observability
}

// New returns an empty engine on the given clock.
func New(clk clock.Clock) *Engine {
	if clk == nil {
		panic("pipeline: New requires a clock")
	}
	return &Engine{clk: clk}
}

// Clock returns the engine's clock.
func (e *Engine) Clock() clock.Clock { return e.clk }

// SetDefaultBatchSize sets the drain/coalesce batch size applied at Run to
// every stage whose StageConfig leaves BatchSize zero. Values below 1 (and
// the initial state) mean 1: strict per-packet semantics. Calling it after
// Run has started has no effect.
func (e *Engine) SetDefaultBatchSize(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return
	}
	e.defBatch = n
}

// SetDefaultReplayBuffer sets the fault-tolerance replay-buffer depth
// applied at Run to every stage whose StageConfig leaves ReplayBuffer zero
// (see StageConfig.ReplayBuffer). Values of zero or below (and the initial
// state) leave fault tolerance off. Calling it after Run has started has no
// effect.
func (e *Engine) SetDefaultReplayBuffer(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return
	}
	e.defReplay = n
}

// AddProcessorStage registers a packet-driven stage instance.
func (e *Engine) AddProcessorStage(id string, instance int, p Processor, cfg StageConfig) (*Stage, error) {
	if p == nil {
		return nil, fmt.Errorf("pipeline: stage %s/%d: nil Processor", id, instance)
	}
	return e.addStage(id, instance, p, nil, cfg)
}

// AddSourceStage registers a generating stage instance with no inputs.
func (e *Engine) AddSourceStage(id string, instance int, s Source, cfg StageConfig) (*Stage, error) {
	if s == nil {
		return nil, fmt.Errorf("pipeline: stage %s/%d: nil Source", id, instance)
	}
	return e.addStage(id, instance, nil, s, cfg)
}

func (e *Engine) addStage(id string, instance int, p Processor, src Source, cfg StageConfig) (*Stage, error) {
	if id == "" {
		return nil, errors.New("pipeline: stage id must be non-empty")
	}
	cfg.fill()
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("pipeline: stage %s/%d: %w", id, instance, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return nil, errors.New("pipeline: engine already running")
	}
	for _, st := range e.stages {
		if st.id == id && st.instance == instance {
			return nil, fmt.Errorf("pipeline: stage %s/%d already registered", id, instance)
		}
	}
	st := &Stage{
		id:       id,
		instance: instance,
		proc:     p,
		src:      src,
		cfg:      cfg,
		clk:      e.clk,
		pacer:    clock.NewPacer(e.clk, cfg.ComputeQuantum),
		in:       queue.NewMPSC[*Packet](cfg.QueueCapacity),
		ctrl:     adapt.NewController(cfg.Adapt),
		doneCh:   make(chan struct{}),
		stall:    "emit blocked: input buffer of " + id + " full",
	}
	wake := make(chan struct{})
	st.pauseWake.Store(&wake)
	e.stages = append(e.stages, st)
	return st, nil
}

// Connect wires from's output to to's input, optionally through an emulated
// link (nil means a free local hand-off). Connecting into a source stage or
// out of a registered-elsewhere stage is an error.
func (e *Engine) Connect(from, to *Stage, link *netsim.Link) error {
	if from == nil || to == nil {
		return errors.New("pipeline: Connect with nil stage")
	}
	if to.src != nil {
		return fmt.Errorf("pipeline: cannot connect into source stage %s/%d", to.id, to.instance)
	}
	if from == to {
		return fmt.Errorf("pipeline: self-loop on %s/%d", from.id, from.instance)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return errors.New("pipeline: engine already running")
	}
	ed := &edge{to: to}
	ed.link.Store(link)
	from.outs = append(from.outs, ed)
	to.upstream = append(to.upstream, from)
	to.inbound++
	return nil
}

// Relink recomputes the links carried by every edge touching target — its
// outbound edges and its upstreams' edges into it — after the stage has
// moved to a different node. resolve maps a (from, to) stage pair to the
// link that should now carry their traffic (nil for a free local
// hand-off). Safe while the engine runs: emitters read edge links
// atomically, and a transfer already in flight on the old link completes
// there.
func (e *Engine) Relink(target *Stage, resolve func(from, to *Stage) *netsim.Link) {
	if target == nil || resolve == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, out := range target.outs {
		out.link.Store(resolve(target, out.to))
	}
	for _, up := range target.upstream {
		for _, out := range up.outs {
			if out.to == target {
				out.link.Store(resolve(up, target))
			}
		}
	}
}

// Stages returns the registered stage instances in registration order.
func (e *Engine) Stages() []*Stage {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Stage, len(e.stages))
	copy(out, e.stages)
	return out
}

// Stage returns the registered instance with the given id and ordinal.
func (e *Engine) Stage(id string, instance int) (*Stage, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range e.stages {
		if st.id == id && st.instance == instance {
			return st, true
		}
	}
	return nil, false
}

// Ready reports whether the engine has started and every registered stage
// instance is in the Running state — the /readyz condition of a node: a
// stage still initializing, paused for migration, or already stopped makes
// the node not ready.
func (e *Engine) Ready() bool {
	e.mu.Lock()
	started := e.started
	stages := make([]*Stage, len(e.stages))
	copy(stages, e.stages)
	e.mu.Unlock()
	if !started || len(stages) == 0 {
		return false
	}
	for _, st := range stages {
		if st.State() != StateRunning {
			return false
		}
	}
	return true
}

// validate checks the topology is runnable.
func (e *Engine) validate() error {
	if len(e.stages) == 0 {
		return errors.New("pipeline: no stages registered")
	}
	hasSource := false
	for _, st := range e.stages {
		if st.src != nil {
			hasSource = true
			continue
		}
		if st.inbound == 0 {
			return fmt.Errorf("pipeline: processor stage %s/%d has no input", st.id, st.instance)
		}
	}
	if !hasSource {
		return errors.New("pipeline: no source stage")
	}
	return nil
}

// Run executes every stage to completion and returns the first stage error,
// or ctx's error if the run was canceled. Run may be called once.
func (e *Engine) Run(ctx context.Context) error {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return errors.New("pipeline: engine already ran")
	}
	if err := e.validate(); err != nil {
		e.mu.Unlock()
		return err
	}
	e.started = true
	stages := make([]*Stage, len(e.stages))
	copy(stages, e.stages)
	// Resolve batch sizes and attach observability before any stage
	// goroutine starts: zero batch inherits the engine default, and
	// everything clamps to at least 1.
	for _, st := range stages {
		if st.cfg.BatchSize == 0 {
			st.cfg.BatchSize = e.defBatch
		}
		if st.cfg.BatchSize < 1 {
			st.cfg.BatchSize = 1
		}
		if st.cfg.ReplayBuffer == 0 {
			st.cfg.ReplayBuffer = e.defReplay
		}
		if st.cfg.ReplayBuffer > 0 {
			st.enableFT(st.cfg.ReplayBuffer)
		}
		// The one SPSC-vs-MPSC decision: a single distinct upstream stage is
		// a single producer goroutine, so the registration-time MPSC ring
		// gives way to an SPSC one before any goroutine can touch either.
		if st.producers() == 1 {
			spsc := queue.NewSPSC[*Packet](st.cfg.QueueCapacity)
			st.mu.Lock()
			st.in = spsc
			st.mu.Unlock()
		}
		if e.o != nil {
			// Under pauseMu: a Pause requested before the run began (a
			// control loop armed at launch) journals through st.o.
			st.pauseMu.Lock()
			st.o = e.o
			st.pauseMu.Unlock()
			st.procOp = e.o.Tracer.Op("stage.process")
			st.batchOp = e.o.Tracer.Op("stage.batch")
			st.flushOp = e.o.Tracer.Op("emitter.flush")
			if st.src != nil {
				st.rootSmp = e.o.Tracer.RootSampler()
			}
			st.Instrument(e.o.Registry)
		}
	}
	o := e.o
	e.mu.Unlock()

	if o != nil {
		instrumentPool(o.Registry)
	}
	o.Log().Info("pipeline run starting", "stages", len(stages))

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		adaptWg  sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	// One adaptation loop per distinct AdaptInterval (see adaptLoop).
	for _, group := range adaptGroups(stages) {
		adaptWg.Add(1)
		go func() {
			defer adaptWg.Done()
			e.adaptLoop(ctx, group)
		}()
	}
	for _, st := range stages {
		wg.Add(1)
		go func(st *Stage) {
			defer wg.Done()
			st.o.Log().Debug("stage started",
				"stage", st.id, "instance", st.instance, "node", st.Node(),
				"batch", st.cfg.BatchSize)
			st.markStarted()
			// The pprof label attributes this stage's CPU in /debug/pprof
			// profiles (go tool pprof -tagfocus stage=<id>). It is set once
			// per goroutine, so the per-packet path never pays for it.
			var err error
			pprof.Do(ctx, pprof.Labels("stage", st.id), func(ctx context.Context) {
				err = st.run(ctx)
			})
			st.mu.Lock()
			st.err = err
			st.mu.Unlock()
			// Under pauseMu, so a concurrent Pause's check-then-Draining
			// cannot land on top of Stopped and stick there.
			st.pauseMu.Lock()
			st.toState(StateStopped)
			st.pauseMu.Unlock()
			close(st.doneCh)
			if err != nil {
				st.o.Log().Warn("stage failed",
					"stage", st.id, "instance", st.instance, "err", err)
				errOnce.Do(func() { firstErr = err })
				cancel()
			} else {
				st.o.Log().Debug("stage finished",
					"stage", st.id, "instance", st.instance)
			}
		}(st)
	}
	wg.Wait()
	cancel()
	adaptWg.Wait()
	for _, st := range stages {
		st.in.Close()
	}
	if firstErr != nil {
		o.Log().Error("pipeline run failed", "err", firstErr)
		return firstErr
	}
	o.Log().Info("pipeline run finished", "stages", len(stages))
	if err := ctx.Err(); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

// adaptGroups splits the adapting stages by AdaptInterval, each group sinks
// first: a post-order walk of outs puts a stage after every stage it feeds.
func adaptGroups(stages []*Stage) [][]*Stage {
	var groups [][]*Stage
	seen := make(map[*Stage]bool, len(stages))
	var visit func(st *Stage)
	visit = func(st *Stage) {
		if seen[st] {
			return
		}
		seen[st] = true
		for _, out := range st.outs {
			visit(out.to)
		}
		i := slices.IndexFunc(groups, func(g []*Stage) bool { return g[0].cfg.AdaptInterval == st.cfg.AdaptInterval })
		switch {
		case st.cfg.DisableAdaptation:
		case i < 0:
			groups = append(groups, []*Stage{st})
		default:
			groups[i] = append(groups[i], st)
		}
	}
	for _, st := range stages {
		visit(st)
	}
	return groups
}

// adaptLoop runs one group's §4 epochs, under the control plane's pprof
// label, until the run ends. Each tick samples every running stage's queue,
// sinks first, delivering its exceptions upstream, and then applies the ΔP
// law on each running stage whose AdjustEvery count is due: an exception
// observed in a tick is in its upstream's T1/T2 in that same tick.
func (e *Engine) adaptLoop(ctx context.Context, group []*Stage) {
	pprof.SetGoroutineLabels(pprof.WithLabels(ctx, pprof.Labels("stage", "control-plane")))
	ticks := make([]int, len(group))
	rates := make([]epochRates, len(group))
	for {
		select {
		case <-ctx.Done():
			return
		case <-e.clk.After(group[0].cfg.AdaptInterval):
		}
		now := e.clk.Now()
		for _, s := range group {
			if s.src != nil || s.State() == StateStopped {
				continue
			}
			ob := s.ctrl.Observe(s.QueueLen())
			if s.cfg.OnObserve != nil {
				s.cfg.OnObserve(s, now, ob)
			}
			for _, up := range s.upstream {
				up.ctrl.OnDownstreamException(ob.Exception)
			}
		}
		for i, s := range group {
			if ticks[i]++; ticks[i]%s.cfg.AdjustEvery != 0 || s.State() == StateStopped {
				continue
			}
			res := s.ctrl.AdjustDetailed()
			lambda, mu := rates[i].advance(now, s.Stats())
			s.recordAdjustment(now, res, lambda, mu)
			if s.cfg.OnAdjust != nil && len(res.Adjustments) > 0 {
				s.cfg.OnAdjust(s, now, res.Adjustments)
			}
		}
	}
}

// producers counts the distinct upstream stages wired into s: two Connect
// calls from the same stage share its goroutine and count once.
func (s *Stage) producers() int {
	seen := make(map[*Stage]struct{}, len(s.upstream))
	for _, up := range s.upstream {
		seen[up] = struct{}{}
	}
	return len(seen)
}
