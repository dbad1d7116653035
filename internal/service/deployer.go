package service

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"

	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/grid"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/pipeline"
	"github.com/gates-middleware/gates/internal/policy"
)

// labelControlPlane tags the calling goroutine with stage=control-plane so
// /debug/pprof profiles attribute checkpoint/recovery/rebalance/fault-schedule
// CPU to the control plane rather than leaving it unlabeled.
func labelControlPlane() {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("stage", "control-plane")))
}

// Deployment is a fully wired, ready-to-run application: the paper's set of
// customized GATES grid-service instances plus their network connections.
type Deployment struct {
	// Config is the descriptor the deployment was built from.
	Config *AppConfig
	// Engine executes the stage instances.
	Engine *pipeline.Engine
	// Placements records which node hosts each instance. Migrations keep
	// it current; read it through NodeFor or under no concurrent moves.
	Placements []grid.Placement
	// Stages maps stage id to its deployed instances in ordinal order.
	Stages map[string][]*pipeline.Stage
	// Plan is the placement decision this deployment materialized.
	Plan *Plan

	deployer *Deployer
	mu       sync.RWMutex
	nodeOf   map[instRef]string
}

// instRef identifies one stage instance in the placement index.
type instRef struct {
	stage    string
	instance int
}

// Stage returns instance ordinal i of the named stage.
func (d *Deployment) Stage(id string, i int) (*pipeline.Stage, bool) {
	insts, ok := d.Stages[id]
	if !ok || i < 0 || i >= len(insts) {
		return nil, false
	}
	return insts[i], true
}

// Ready reports whether every deployed stage instance is running — the
// deployment-level /readyz condition a host binary exposes.
func (d *Deployment) Ready() bool {
	return d.Engine.Ready()
}

// NodeFor returns the node hosting instance i of the named stage. The
// lookup is an indexed O(1) read (it is called per-packet by
// topology-aware paths) and tracks migrations.
func (d *Deployment) NodeFor(id string, i int) (string, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	node, ok := d.nodeOf[instRef{stage: id, instance: i}]
	return node, ok
}

// setPlacement updates the placement records after a migration.
func (d *Deployment) setPlacement(id string, i int, node string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nodeOf[instRef{stage: id, instance: i}] = node
	for k := range d.Placements {
		if d.Placements[k].StageID == id && d.Placements[k].Instance == i {
			d.Placements[k].Node = node
		}
	}
	if d.Plan != nil {
		for k := range d.Plan.Assignments {
			if d.Plan.Assignments[k].StageID == id && d.Plan.Assignments[k].Instance == i {
				d.Plan.Assignments[k].Node = node
			}
		}
	}
}

// StageTuning customizes the runtime configuration of deployed instances;
// the Deployer consults it for every (stage id, instance) pair. Returning
// the zero StageConfig accepts all defaults.
type StageTuning func(stageID string, instance int) pipeline.StageConfig

// Deployer turns an application descriptor into a Deployment. It performs
// the five duties §3.2 lists — receive the configuration, consult the grid
// resource manager, initiate service instances at the chosen nodes, retrieve
// the stage codes from the repository, and customize every instance — split
// into an explicit Plan (decide) and Apply (execute) pair; Deploy composes
// the two.
type Deployer struct {
	clk  clock.Clock
	dir  *grid.Directory
	repo *Repository
	net  *netsim.Network

	defReplay int
	o         *obs.Observability
	pol       *policy.Engine
}

// SetReplayBuffer sets the per-edge replay-ring depth the deployer installs
// on every engine it builds (see pipeline.Engine.SetDefaultReplayBuffer).
// Zero (the default) disables fault tolerance; per-stage
// StageConfig.ReplayBuffer from tuning still wins.
func (d *Deployer) SetReplayBuffer(n int) { d.defReplay = n }

// SetObservability attaches an observability bundle installed on every
// engine the deployer builds: deployments log placements, stages publish
// metrics, and adaptation decisions land in the journal. Nil (the default)
// means unobserved.
func (d *Deployer) SetObservability(o *obs.Observability) { d.o = o }

// SetPolicy installs the policy engine that drives every placement this
// deployer plans (see Planner.SetPolicy) and that policy-driven
// rebalancers share. Nil (the default) means default-policy behavior with
// no decision logging. Its placement.topology_aware makes placement
// consider link bandwidth between communicating instances
// (grid.PlanTopology), so stages that exchange data gravitate to the same
// site when the wide-area links are slow.
func (d *Deployer) SetPolicy(eng *policy.Engine) { d.pol = eng }

// Policy returns the installed policy engine (nil when none).
func (d *Deployer) Policy() *policy.Engine { return d.pol }

// NewDeployer returns a deployer over the given fabric. All dependencies
// are required.
func NewDeployer(clk clock.Clock, dir *grid.Directory, repo *Repository, net *netsim.Network) (*Deployer, error) {
	if clk == nil || dir == nil || repo == nil || net == nil {
		return nil, errors.New("service: NewDeployer requires clock, directory, repository, and network")
	}
	return &Deployer{clk: clk, dir: dir, repo: repo, net: net}, nil
}

// Planner returns a planner over the deployer's fabric, inheriting its
// policy engine.
func (d *Deployer) Planner() *Planner {
	p, _ := NewPlanner(d.dir, d.net) // deps were validated at NewDeployer
	p.SetPolicy(d.pol)
	return p
}

// Plan performs resource matching only: it validates cfg, consults the
// directory, reserves capacity, and returns the serializable placement
// decision. Use Apply to execute it, or Planner().Release to discard it.
func (d *Deployer) Plan(cfg *AppConfig) (*Plan, error) {
	return d.Planner().Plan(cfg)
}

// Deploy plans placements, instantiates every stage instance, and wires the
// declared connections through the network's links. tuning may be nil.
func (d *Deployer) Deploy(cfg *AppConfig, tuning StageTuning) (*Deployment, error) {
	plan, err := d.Plan(cfg)
	if err != nil {
		return nil, err
	}
	dep, err := d.Apply(cfg, plan, tuning)
	if err != nil {
		d.Planner().Release(plan)
		return nil, err
	}
	return dep, nil
}

// Apply executes a plan: it pulls stage codes from the repository,
// customizes one engine stage per instance on the planned node, and wires
// the planned instance-level connections through the links the placement
// implies. The plan's directory reservations transfer to the returned
// Deployment; on error the caller still owns them.
func (d *Deployer) Apply(cfg *AppConfig, plan *Plan, tuning StageTuning) (*Deployment, error) {
	if cfg == nil || plan == nil {
		return nil, errors.New("service: Apply requires a config and a plan")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	nodeOf := make(map[instRef]string, len(plan.Assignments))
	for _, a := range plan.Assignments {
		nodeOf[instRef{stage: a.StageID, instance: a.Instance}] = a.Node
	}

	// Instantiation: pull stage codes from the repository and customize
	// one engine stage per instance.
	eng := pipeline.New(d.clk)
	if d.defReplay > 0 {
		eng.SetDefaultReplayBuffer(d.defReplay)
	}
	if d.o != nil {
		eng.SetObservability(d.o)
	}
	stages := make(map[string][]*pipeline.Stage, len(cfg.Stages))
	for i := range cfg.Stages {
		s := &cfg.Stages[i]
		for inst := 0; inst < s.EffectiveInstances(); inst++ {
			node, ok := nodeOf[instRef{stage: s.ID, instance: inst}]
			if !ok {
				return nil, fmt.Errorf("service: plan assigns no node to %s/%d", s.ID, inst)
			}
			var scfg pipeline.StageConfig
			if tuning != nil {
				scfg = tuning(s.ID, inst)
			}
			if s.QueueCapacity > 0 && scfg.QueueCapacity == 0 {
				scfg.QueueCapacity = s.QueueCapacity
			}
			var st *pipeline.Stage
			var err error
			if s.Source {
				f, ok := d.repo.Source(s.Code)
				if !ok {
					return nil, fmt.Errorf("service: source code %q not in repository", s.Code)
				}
				st, err = eng.AddSourceStage(s.ID, inst, f(inst), scfg)
			} else {
				f, ok := d.repo.Processor(s.Code)
				if !ok {
					return nil, fmt.Errorf("service: processor code %q not in repository", s.Code)
				}
				st, err = eng.AddProcessorStage(s.ID, inst, f(inst), scfg)
			}
			if err != nil {
				return nil, err
			}
			st.SetNode(node)
			stages[s.ID] = append(stages[s.ID], st)
		}
	}

	// Wiring: connect instances through the links their placements imply.
	for _, w := range plan.Wires {
		froms, tos := stages[w.FromStage], stages[w.ToStage]
		if w.FromInstance >= len(froms) || w.ToInstance >= len(tos) {
			return nil, fmt.Errorf("service: plan wires unknown instance %s/%d -> %s/%d",
				w.FromStage, w.FromInstance, w.ToStage, w.ToInstance)
		}
		if err := d.connect(eng, froms[w.FromInstance], tos[w.ToInstance]); err != nil {
			return nil, err
		}
	}

	// Observation: once wiring has materialized the links, publish them
	// and log where everything landed.
	if d.o != nil {
		d.net.Instrument(d.o.Registry)
		for _, a := range plan.Assignments {
			d.o.Log().Info("instance placed",
				"app", cfg.Name, "stage", a.StageID, "instance", a.Instance, "node", a.Node)
		}
	}

	return &Deployment{
		Config:     cfg,
		Engine:     eng,
		Placements: plan.Placements(),
		Stages:     stages,
		Plan:       plan,
		deployer:   d,
		nodeOf:     nodeOf,
	}, nil
}

func (d *Deployer) connect(eng *pipeline.Engine, from, to *pipeline.Stage) error {
	var link *netsim.Link
	if from.Node() != to.Node() {
		link = d.net.Link(from.Node(), to.Node())
	}
	return eng.Connect(from, to, link)
}

// instanceEdges expands the descriptor's connections into instance-level
// communication edges, indexed against the request order instanceRequests
// builds (stages in declaration order, instances in ordinal order).
func instanceEdges(cfg *AppConfig) []grid.InstanceEdge {
	offset := make(map[string]int, len(cfg.Stages))
	next := 0
	for i := range cfg.Stages {
		offset[cfg.Stages[i].ID] = next
		next += cfg.Stages[i].EffectiveInstances()
	}
	wires := resolveWires(cfg)
	edges := make([]grid.InstanceEdge, len(wires))
	for i, w := range wires {
		edges[i] = grid.InstanceEdge{From: offset[w.FromStage] + w.FromInstance, To: offset[w.ToStage] + w.ToInstance}
	}
	return edges
}
