package service

import (
	"errors"
	"fmt"

	"github.com/gates-middleware/gates/internal/grid"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/policy"
)

// Assignment pins one stage instance to a grid node, carrying the
// requirement the node was matched against so the reservation can be
// released or re-established later.
type Assignment struct {
	StageID  string           `json:"stage"`
	Instance int              `json:"instance"`
	Node     string           `json:"node"`
	Req      grid.Requirement `json:"requirement"`
}

// Wire is one instance-level connection implied by the descriptor's
// fanout rules: instance FromInstance of FromStage feeds instance
// ToInstance of ToStage.
type Wire struct {
	FromStage    string `json:"fromStage"`
	FromInstance int    `json:"fromInstance"`
	ToStage      string `json:"toStage"`
	ToInstance   int    `json:"toInstance"`
}

// Plan is the serializable outcome of resource matching: which node hosts
// each stage instance and which instance-level wires connect them. A Plan
// separates the §3.2 matching decision from its execution, so it can be
// inspected, diffed against a re-computed plan after grid conditions
// change, and applied by Deployer.Apply.
type Plan struct {
	// App is the application name the plan was computed for.
	App string `json:"app"`
	// TopologyAware records whether link bandwidth influenced matching.
	TopologyAware bool `json:"topologyAware"`
	// Assignments maps every instance to its node, in request order
	// (stages in declaration order, instances in ordinal order).
	Assignments []Assignment `json:"assignments"`
	// Wires are the instance-level connections to materialize.
	Wires []Wire `json:"wires"`
}

// NodeFor returns the node assigned to instance i of the named stage.
func (p *Plan) NodeFor(stageID string, instance int) (string, bool) {
	for _, a := range p.Assignments {
		if a.StageID == stageID && a.Instance == instance {
			return a.Node, true
		}
	}
	return "", false
}

// Requirement returns the requirement instance i of the named stage was
// matched against.
func (p *Plan) Requirement(stageID string, instance int) (grid.Requirement, bool) {
	for _, a := range p.Assignments {
		if a.StageID == stageID && a.Instance == instance {
			return a.Req, true
		}
	}
	return grid.Requirement{}, false
}

// Placements renders the assignments as grid placements.
func (p *Plan) Placements() []grid.Placement {
	out := make([]grid.Placement, len(p.Assignments))
	for i, a := range p.Assignments {
		out[i] = grid.Placement{StageID: a.StageID, Instance: a.Instance, Node: a.Node}
	}
	return out
}

// Move is one difference between two plans: the instance must relocate
// from one node to another.
type Move struct {
	StageID  string `json:"stage"`
	Instance int    `json:"instance"`
	From     string `json:"from"`
	To       string `json:"to"`
}

// Diff returns the moves that turn this plan's placements into next's,
// in next's assignment order. Instances present in only one plan are
// ignored: a diff is meaningful between plans of the same descriptor.
func (p *Plan) Diff(next *Plan) []Move {
	var moves []Move
	for _, a := range next.Assignments {
		cur, ok := p.NodeFor(a.StageID, a.Instance)
		if ok && cur != a.Node {
			moves = append(moves, Move{StageID: a.StageID, Instance: a.Instance, From: cur, To: a.Node})
		}
	}
	return moves
}

// Planner wraps grid matching into plan production: it consults the
// directory (and optionally the network topology) and reserves capacity
// for every instance of a descriptor. It is the pure decision half of the
// Deployer; Apply is the execution half.
//
// Placement behavior is policy-driven: topology awareness and per-stage
// constraint rules come from the policy engine's active document, and
// every assignment the planner makes is recorded in the decision log with
// the rule that selected it and the policy version in force. A planner
// without an engine behaves as the default policy, silently.
type Planner struct {
	dir           *grid.Directory
	net           *netsim.Network
	topologyAware bool
	pol           *policy.Engine
}

// NewPlanner returns a planner over the given directory and network.
func NewPlanner(dir *grid.Directory, net *netsim.Network) (*Planner, error) {
	if dir == nil || net == nil {
		return nil, errors.New("service: NewPlanner requires directory and network")
	}
	return &Planner{dir: dir, net: net}, nil
}

// SetTopologyAware makes planning consider link bandwidth between
// communicating instances (grid.PlanTopology) in addition to requirements
// and near-source hints.
//
// Deprecated shim: prefer declaring placement.topology_aware in the policy
// document; either source enables it.
func (p *Planner) SetTopologyAware(on bool) { p.topologyAware = on }

// SetPolicy installs the engine whose active document drives placement
// (topology awareness, constraint rules) and receives the decision log.
// Nil reverts to default-policy behavior.
func (p *Planner) SetPolicy(eng *policy.Engine) { p.pol = eng }

// Plan matches every instance of cfg against the directory, reserving
// directory capacity as it goes (release an unapplied plan with Release).
// Because it reads the directory's *current* state, calling it again
// after nodes gained load or links changed bandwidth yields an updated
// plan to Diff against the deployed one.
func (p *Planner) Plan(cfg *AppConfig) (*Plan, error) {
	if cfg == nil {
		return nil, errors.New("service: Plan requires a config")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	plc, version := p.pol.Placement()
	aware := p.topologyAware || plc.TopologyAware
	reqs, ruleNames := instanceRequests(cfg, plc)
	var placements []grid.Placement
	var err error
	if aware {
		placements, err = p.dir.PlanTopology(reqs, instanceEdges(cfg), func(a, b string) int64 {
			return p.net.Link(a, b).Config().Bandwidth
		})
	} else {
		placements, err = p.dir.Plan(reqs)
	}
	if err != nil {
		return nil, fmt.Errorf("service: placement failed: %w", err)
	}
	plan := &Plan{
		App:           cfg.Name,
		TopologyAware: aware,
		Assignments:   make([]Assignment, len(placements)),
		Wires:         resolveWires(cfg),
	}
	for i, pl := range placements {
		plan.Assignments[i] = Assignment{
			StageID:  pl.StageID,
			Instance: pl.Instance,
			Node:     pl.Node,
			Req:      reqs[i].Req,
		}
		p.pol.RecordDecision(obs.DecisionEvent{
			Kind:          obs.DecisionPlacement,
			PolicyVersion: version,
			Rule:          placementRule(ruleNames[i], reqs[i].Req, aware),
			Stage:         pl.StageID,
			Instance:      pl.Instance,
			Node:          pl.Node,
			Outcome:       "placed",
			Input: map[string]any{
				"app":            cfg.Name,
				"site":           reqs[i].Req.Site,
				"min_cpu":        reqs[i].Req.MinCPUPower,
				"min_memory_mb":  reqs[i].Req.MinMemoryMB,
				"near_source":    reqs[i].Req.NearSource,
				"topology_aware": aware,
			},
		})
	}
	return plan, nil
}

// placementRule names the decision-log rule that selected an assignment:
// an explicit policy rule when one matched, otherwise the implicit rule
// that dominated the match.
func placementRule(policyRule string, req grid.Requirement, aware bool) string {
	switch {
	case policyRule != "":
		return policyRule
	case req.NearSource != "":
		return "near-source"
	case aware:
		return "topology-cost"
	default:
		return "requirement-match"
	}
}

// Release returns a plan's directory reservations — the undo for a plan
// that will not be applied (or a deployment being torn down).
func (p *Planner) Release(plan *Plan) {
	if plan == nil {
		return
	}
	for _, a := range plan.Assignments {
		p.dir.Release(a.Node, a.Req)
	}
}

// instanceRequests expands the descriptor into one matching request per
// instance, stages in declaration order so source-side stages claim
// near-source nodes first. Policy placement rules merge into each stage's
// own requirement — Site and NearSource apply where the stage left them
// empty, resource floors only ever rise — and the second return value
// names the rule applied per request ("" where none matched) for the
// decision log.
func instanceRequests(cfg *AppConfig, plc policy.PlacementPolicy) ([]grid.InstanceRequest, []string) {
	var reqs []grid.InstanceRequest
	var ruleNames []string
	for i := range cfg.Stages {
		s := &cfg.Stages[i]
		rule, hasRule := plc.RuleFor(s.ID)
		for inst := 0; inst < s.EffectiveInstances(); inst++ {
			req := grid.Requirement{
				MinCPUPower: s.Requirement.MinCPU,
				MinMemoryMB: s.Requirement.MinMemoryMB,
				Site:        s.Requirement.Site,
			}
			if inst < len(s.NearSources) {
				req.NearSource = s.NearSources[inst]
			}
			name := ""
			if hasRule {
				name = rule.Name
				if req.Site == "" {
					req.Site = rule.Site
				}
				if rule.MinCPU > req.MinCPUPower {
					req.MinCPUPower = rule.MinCPU
				}
				if rule.MinMemoryMB > req.MinMemoryMB {
					req.MinMemoryMB = rule.MinMemoryMB
				}
				if req.NearSource == "" {
					req.NearSource = rule.NearSource
				}
			}
			reqs = append(reqs, grid.InstanceRequest{StageID: s.ID, Instance: inst, Req: req})
			ruleNames = append(ruleNames, name)
		}
	}
	return reqs, ruleNames
}

// resolveWires expands the descriptor's connections into instance-level
// wires per their fanout modes. The descriptor must already be validated.
func resolveWires(cfg *AppConfig) []Wire {
	count := make(map[string]int, len(cfg.Stages))
	for i := range cfg.Stages {
		count[cfg.Stages[i].ID] = cfg.Stages[i].EffectiveInstances()
	}
	var wires []Wire
	for _, conn := range cfg.Connections {
		fromN, toN := count[conn.From], count[conn.To]
		mode := conn.Fanout
		if mode == FanoutAuto {
			if fromN == toN {
				mode = FanoutPairwise
			} else {
				mode = FanoutAll
			}
		}
		switch mode {
		case FanoutPairwise:
			for i := 0; i < fromN; i++ {
				wires = append(wires, Wire{FromStage: conn.From, FromInstance: i, ToStage: conn.To, ToInstance: i})
			}
		case FanoutGrouped:
			group := fromN / toN
			for i := 0; i < fromN; i++ {
				wires = append(wires, Wire{FromStage: conn.From, FromInstance: i, ToStage: conn.To, ToInstance: i / group})
			}
		case FanoutAll:
			for i := 0; i < fromN; i++ {
				for j := 0; j < toN; j++ {
					wires = append(wires, Wire{FromStage: conn.From, FromInstance: i, ToStage: conn.To, ToInstance: j})
				}
			}
		}
	}
	return wires
}
