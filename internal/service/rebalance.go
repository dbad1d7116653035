package service

import (
	"context"
	"sync/atomic"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/pipeline"
	"github.com/gates-middleware/gates/internal/policy"
)

// RebalancerConfig tunes a Rebalancer. The zero value selects the defaults
// documented per field.
//
// Deprecated shim: the config compiles into a policy.Document (see
// PolicyDocument) loaded into a private engine, so the rebalancer itself
// holds no numeric control constants. New code hands a shared, hot-reloadable
// engine to NewPolicyRebalancer instead.
type RebalancerConfig struct {
	// Interval is the virtual time between placement sweeps. Zero selects
	// policy.DefaultRebalanceInterval.
	Interval time.Duration
	// Threshold is how much worse (as a ratio) the current placement's
	// link cost must be than the best alternative before a move is worth
	// its disruption. Zero selects policy.DefaultRebalanceThreshold;
	// values <= 1 migrate on any improvement.
	Threshold float64
	// Cooldown is the minimum virtual time between two migrations of the
	// same instance. Zero selects Interval.
	Cooldown time.Duration
	// MaxMigrations caps the total moves the rebalancer will perform.
	// Zero means unlimited.
	MaxMigrations int
	// Stages restricts the sweep to the named stage ids. Empty means
	// every non-source stage.
	Stages []string
}

// PolicyDocument compiles the config into its declarative form — the
// rebalance section of a policy document under version "config". Zero and
// out-of-range fields are left zero so Normalize fills the documented
// defaults (negative values previously meant "use the default" too).
func (c RebalancerConfig) PolicyDocument() policy.Document {
	doc := policy.Document{Version: "config"}
	if c.Interval > 0 {
		doc.Rebalance.Interval = policy.Duration(c.Interval)
	}
	if c.Threshold > 0 {
		doc.Rebalance.Threshold = c.Threshold
	}
	if c.Cooldown > 0 {
		doc.Rebalance.Cooldown = policy.Duration(c.Cooldown)
	}
	if c.MaxMigrations > 0 {
		doc.Rebalance.MigrationBudget = c.MaxMigrations
	}
	doc.Rebalance.Stages = c.Stages
	doc.Normalize()
	return doc
}

// Rebalancer watches the deployment's placement against the directory and
// network state and re-deploys stage instances whose communication cost
// has deteriorated — the dynamic half of the paper's resource-aware
// deployment: matching is not a one-shot decision but a standing
// constraint the middleware keeps enforcing as grid conditions change.
//
// Cost model: an instance's placement cost is the sum over its plan wires
// of LinkCostWeight/bandwidth for each inter-node link it uses (co-located
// wires and unlimited links cost zero). When the current node's cost
// exceeds Threshold × the best candidate node's cost, the instance
// migrates there.
//
// Every control constant — interval, threshold, cooldown, budget, stage
// scope, link-cost weight — is read from the policy engine at the start of
// each sweep, so a hot reload changes the very next decision; and every
// evaluation (move, skip, or budget halt) lands in the journal with
// the inputs it was judged on and the policy version that judged it.
type Rebalancer struct {
	dep  *Deployment
	pol  *policy.Engine
	done chan struct{}

	migrations atomic.Int64
	haltLogged atomic.Bool
	lastMove   map[instRef]time.Time
}

// NewRebalancer returns a rebalancer over dep driven by a static config:
// the config compiles into a private policy engine so the decision path is
// identical to a policy-driven deployment, including decision logging when
// the deployment is observed. The deployment must have been built by a
// Deployer (Deploy or Apply).
//
// Deprecated shim: use NewPolicyRebalancer with a shared engine for
// hot-reloadable policies.
func NewRebalancer(dep *Deployment, cfg RebalancerConfig) *Rebalancer {
	var clk clock.Clock
	var o *obs.Observability
	if dep != nil && dep.deployer != nil {
		clk, o = dep.deployer.clk, dep.deployer.o
	}
	eng := policy.New(clk, o)
	// Compiled documents always normalize into validity; Load cannot fail.
	_ = eng.Load(cfg.PolicyDocument(), "config")
	return NewPolicyRebalancer(dep, eng)
}

// NewPolicyRebalancer returns a rebalancer over dep that reads every
// control constant from eng at each sweep. A nil engine behaves as the
// default policy.
func NewPolicyRebalancer(dep *Deployment, eng *policy.Engine) *Rebalancer {
	return &Rebalancer{
		dep:      dep,
		pol:      eng,
		done:     make(chan struct{}),
		lastMove: make(map[instRef]time.Time),
	}
}

// Policy returns the engine driving this rebalancer (the private compiled
// one for config-built rebalancers).
func (r *Rebalancer) Policy() *policy.Engine { return r.pol }

// Migrations returns how many moves the rebalancer has performed.
func (r *Rebalancer) Migrations() int { return int(r.migrations.Load()) }

// Stop ends the Run loop at its next wakeup.
func (r *Rebalancer) Stop() {
	select {
	case <-r.done:
	default:
		close(r.done)
	}
}

// Run sweeps placements every policy interval until ctx is canceled, Stop
// is called, or the migration budget is exhausted. Call it in its own
// goroutine alongside Engine.Run.
func (r *Rebalancer) Run(ctx context.Context) {
	if r.dep == nil || r.dep.deployer == nil {
		return
	}
	labelControlPlane()
	clk := r.dep.deployer.clk
	for {
		// Re-read the interval every lap so a hot reload re-paces the loop.
		pol, _ := r.pol.Rebalance()
		select {
		case <-ctx.Done():
			return
		case <-r.done:
			return
		case <-clk.After(pol.Interval.Std()):
		}
		r.sweep(ctx)
		if r.budgetExhausted() {
			return
		}
	}
}

// budgetExhausted reports whether the policy's migration budget is spent,
// logging the halt decision the first time it trips.
func (r *Rebalancer) budgetExhausted() bool {
	pol, version := r.pol.Rebalance()
	if pol.MigrationBudget <= 0 || int(r.migrations.Load()) < pol.MigrationBudget {
		return false
	}
	if r.haltLogged.CompareAndSwap(false, true) {
		r.pol.RecordDecision(obs.Event{
			Kind:          obs.EventRebalance,
			PolicyVersion: version,
			Payload: obs.Decision{
				Rule:    "migration-budget",
				Outcome: "halt",
				Input: map[string]any{
					"budget":     pol.MigrationBudget,
					"migrations": r.migrations.Load(),
				},
			},
		})
	}
	return true
}

// sweep examines every eligible instance once and migrates the worst
// offender it finds (one move per sweep keeps the cost model honest: each
// move changes the link usage the next evaluation sees). Every evaluated
// instance produces one rebalance event: a move, or a skip naming the
// rule that suppressed it.
func (r *Rebalancer) sweep(ctx context.Context) {
	dep := r.dep
	d := dep.deployer
	pol, version := r.pol.Rebalance()
	plc, _ := r.pol.Placement()
	now := d.clk.Now()
	for _, stageID := range r.stageIDs(pol) {
		insts := dep.Stages[stageID]
		for i, st := range insts {
			if st.IsSource() || st.State() == pipeline.StateStopped {
				continue
			}
			ref := instRef{stage: stageID, instance: i}
			if last, ok := r.lastMove[ref]; ok && now.Sub(last) < pol.Cooldown.Std() {
				r.pol.RecordDecision(obs.Event{
					At:            now,
					Kind:          obs.EventRebalance,
					PolicyVersion: version,
					Stage:         stageID,
					Instance:      i,
					Node:          st.Node(),
					Payload: obs.Decision{
						Rule:    "cooldown",
						Outcome: "skip",
						Input: map[string]any{
							"cooldown":        pol.Cooldown.Std().String(),
							"since_last_move": now.Sub(last).String(),
						},
					},
				})
				continue
			}
			cur := st.Node()
			curCost := r.placementCost(stageID, i, cur, plc.LinkCostWeight)
			bestNode, bestCost := cur, curCost
			req, _ := dep.planRequirement(stageID, i)
			req.NearSource = ""
			for _, n := range d.dir.Query(req) {
				if n.Name == cur {
					continue
				}
				if c := r.placementCost(stageID, i, n.Name, plc.LinkCostWeight); c < bestCost {
					bestNode, bestCost = n.Name, c
				}
			}
			if bestNode == cur || curCost <= pol.Threshold*bestCost {
				rule := "already-optimal"
				if bestNode != cur {
					rule = "below-threshold"
				}
				r.pol.RecordDecision(obs.Event{
					At:            now,
					Kind:          obs.EventRebalance,
					PolicyVersion: version,
					Stage:         stageID,
					Instance:      i,
					Node:          cur,
					Payload: obs.Decision{
						Rule:    rule,
						Outcome: "skip",
						Input: map[string]any{
							"cur_cost":  curCost,
							"best_cost": bestCost,
							"best_node": bestNode,
							"threshold": pol.Threshold,
						},
					},
				})
				continue
			}
			if err := dep.migrate(ctx, stageID, i, bestNode, "rebalance"); err != nil {
				d.o.Log().Warn("rebalance migration failed",
					"stage", stageID, "instance", i, "to", bestNode, "err", err)
				r.pol.RecordDecision(obs.Event{
					At:            now,
					Kind:          obs.EventRebalance,
					PolicyVersion: version,
					Stage:         stageID,
					Instance:      i,
					Node:          cur,
					Payload: obs.Decision{
						Rule:    "cost-threshold",
						Outcome: "move-failed",
						Input:   map[string]any{"to": bestNode, "error": err.Error()},
					},
				})
				continue
			}
			r.lastMove[ref] = now
			r.migrations.Add(1)
			r.pol.RecordDecision(obs.Event{
				At:            now,
				Kind:          obs.EventRebalance,
				PolicyVersion: version,
				Stage:         stageID,
				Instance:      i,
				Node:          bestNode,
				Payload: obs.Decision{
					Rule:    "cost-threshold",
					Outcome: "move",
					Input: map[string]any{
						"from":      cur,
						"to":        bestNode,
						"cur_cost":  curCost,
						"best_cost": bestCost,
						"threshold": pol.Threshold,
					},
				},
			})
			if r.budgetExhausted() {
				return
			}
			return // one move per sweep
		}
	}
}

// placementCost sums weight/bandwidth over the instance's plan wires
// assuming it runs on node; peers are read from the live placement index.
// weight is the policy's link-cost weight (it scales every term uniformly,
// so the argmin is weight-independent, but logged costs and threshold
// comparisons see the operator's units).
func (r *Rebalancer) placementCost(stageID string, instance int, node string, weight float64) float64 {
	dep := r.dep
	if dep.Plan == nil {
		return 0
	}
	if weight == 0 {
		weight = policy.DefaultLinkCostWeight
	}
	var cost float64
	for _, w := range dep.Plan.Wires {
		var peerStage string
		var peerInst int
		var outbound bool
		switch {
		case w.FromStage == stageID && w.FromInstance == instance:
			peerStage, peerInst, outbound = w.ToStage, w.ToInstance, true
		case w.ToStage == stageID && w.ToInstance == instance:
			peerStage, peerInst = w.FromStage, w.FromInstance
		default:
			continue
		}
		peer, ok := dep.NodeFor(peerStage, peerInst)
		if !ok || peer == node {
			continue
		}
		// Cost the link in the direction the data actually flows: links
		// are directional, and an asymmetric slowdown (the case migration
		// exists for) must not be hidden by reading the reverse link.
		from, to := peer, node
		if outbound {
			from, to = node, peer
		}
		bw := dep.deployer.net.Link(from, to).Config().Bandwidth
		if bw > 0 {
			cost += weight / float64(bw)
		}
	}
	return cost
}

// stageIDs returns the stages the sweep covers under pol.
func (r *Rebalancer) stageIDs(pol policy.RebalancePolicy) []string {
	if len(pol.Stages) > 0 {
		return pol.Stages
	}
	ids := make([]string, 0, len(r.dep.Stages))
	for i := range r.dep.Config.Stages {
		ids = append(ids, r.dep.Config.Stages[i].ID)
	}
	return ids
}
