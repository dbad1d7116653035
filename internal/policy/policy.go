// Package policy is the declarative control plane of the middleware: one
// versioned document that holds every knob the Planner, Rebalancer, and SLO
// detector previously hard-wired — placement constraints and affinities,
// link-cost weights, rebalance threshold/cooldown/budget, and latency
// objectives — plus the engine that evaluates it and logs every decision it
// produces.
//
// The GATES paper (hpdc 2004) bakes its self-adaptation constants into the
// middleware; this package inverts that: control numbers live in a small
// JSON or XML document that can be inspected, diffed, versioned, and
// hot-reloaded mid-run (file watch or POST /policy), and every control-plane
// verdict — a Plan placement, a Rebalancer move or skip, an SLO evaluation —
// lands in the bounded event journal (obs.Journal, served at /events) with
// its full input context and the policy version that produced it, OPA
// decision-log style.
//
// Evaluation is pure and cheap: consumers read an immutable snapshot via an
// atomic pointer, so the data-plane hot path is never touched — policy is
// consulted only at control-plane epochs (a Plan, a rebalance sweep, an SLO
// evaluation).
package policy

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"time"

	"github.com/gates-middleware/gates/internal/obs"
)

// Defaults: the values the middleware ran on before the policy layer
// existed, now in exactly one place.
const (
	// DefaultRebalanceInterval is the virtual time between rebalance
	// sweeps.
	DefaultRebalanceInterval = 2 * time.Second
	// DefaultRebalanceThreshold is how much worse (ratio) the current
	// placement's link cost must be than the best alternative before a
	// move is worth its disruption.
	DefaultRebalanceThreshold = 2.0
	// DefaultLinkCostWeight scales the 1/bandwidth link-cost terms.
	DefaultLinkCostWeight = 1.0
	// DefaultCheckpointInterval is the virtual time between checkpoint
	// rounds when fault tolerance is on.
	DefaultCheckpointInterval = 2 * time.Second
	// DefaultReplayBuffer is the per-edge replay-ring depth when fault
	// tolerance is on.
	DefaultReplayBuffer = 4096
	// DefaultHealthEvery is the virtual time between failure-detector
	// health epochs.
	DefaultHealthEvery = 500 * time.Millisecond
	// DefaultDeadAfter is how many consecutive missed health epochs
	// declare a node dead.
	DefaultDeadAfter = 3
)

// Duration is a time.Duration that marshals as a human-readable string
// ("2s", "1.5h") in both JSON and XML documents.
type Duration time.Duration

// MarshalText renders the duration in time.Duration notation.
func (d Duration) MarshalText() ([]byte, error) {
	return []byte(time.Duration(d).String()), nil
}

// UnmarshalText parses time.Duration notation.
func (d *Duration) UnmarshalText(b []byte) error {
	v, err := time.ParseDuration(string(b))
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// Std returns the duration as a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// PlacementRule constrains or biases where instances of a stage may run —
// the declarative form of the paper's "first stage near the sources" rule
// and of ad-hoc Requirement tweaks. Rules merge into the stage's own
// requirement at Plan time: Site/NearSource apply when the stage left them
// empty, MinCPU/MinMemoryMB raise (never lower) the stage's floor.
type PlacementRule struct {
	// Name identifies the rule in decision logs.
	Name string `xml:"name,attr" json:"name"`
	// Stage is the stage id the rule applies to; "" or "*" means every
	// stage.
	Stage string `xml:"stage,attr" json:"stage,omitempty"`
	// Site restricts candidates to one administrative domain.
	Site string `xml:"site,attr" json:"site,omitempty"`
	// MinCPU and MinMemoryMB raise the stage's resource floor.
	MinCPU      float64 `xml:"minCPU,attr" json:"min_cpu,omitempty"`
	MinMemoryMB int     `xml:"minMemoryMB,attr" json:"min_memory_mb,omitempty"`
	// NearSource prefers the node hosting the named data source.
	NearSource string `xml:"nearSource,attr" json:"near_source,omitempty"`
}

// empty reports whether the rule constrains nothing.
func (r PlacementRule) empty() bool {
	return r.Site == "" && r.MinCPU == 0 && r.MinMemoryMB == 0 && r.NearSource == ""
}

// Matches reports whether the rule applies to the named stage.
func (r PlacementRule) Matches(stage string) bool {
	return r.Stage == "" || r.Stage == "*" || r.Stage == stage
}

// PlacementPolicy governs Plan-time matching.
type PlacementPolicy struct {
	// TopologyAware makes planning consider link bandwidth between
	// communicating instances in addition to requirements.
	TopologyAware bool `xml:"topologyAware,attr" json:"topology_aware,omitempty"`
	// LinkCostWeight scales every 1/bandwidth term in placement-cost
	// evaluation; 0 selects DefaultLinkCostWeight.
	LinkCostWeight float64 `xml:"linkCostWeight,attr" json:"link_cost_weight,omitempty"`
	// Rules are the per-stage constraints and affinities.
	Rules []PlacementRule `xml:"rule" json:"rules,omitempty"`
}

// RebalancePolicy governs the standing re-placement loop.
type RebalancePolicy struct {
	// Interval is the virtual time between placement sweeps; 0 selects
	// DefaultRebalanceInterval.
	Interval Duration `xml:"interval,attr" json:"interval,omitempty"`
	// Threshold is the cost ratio past which a move is worth its
	// disruption; 0 selects DefaultRebalanceThreshold.
	Threshold float64 `xml:"threshold,attr" json:"threshold,omitempty"`
	// Cooldown is the minimum virtual time between two migrations of the
	// same instance; 0 selects Interval.
	Cooldown Duration `xml:"cooldown,attr" json:"cooldown,omitempty"`
	// MigrationBudget caps total moves; 0 means unlimited.
	MigrationBudget int `xml:"migrationBudget,attr" json:"migration_budget,omitempty"`
	// Stages restricts sweeps to the named stage ids; empty means every
	// non-source stage.
	Stages []string `xml:"stage" json:"stages,omitempty"`
}

// SLOPolicy holds the service-level objectives the detector judges.
type SLOPolicy struct {
	// TargetP99 is the sink-side end-to-end p99 latency objective in
	// virtual time; 0 disables the latency check.
	TargetP99 Duration `xml:"targetP99,attr" json:"target_p99,omitempty"`
	// GrowthEpochs is how many consecutive d-tilde > 0 evaluations
	// constitute "falling behind"; 0 selects obs.DefaultSLOGrowthEpochs.
	GrowthEpochs int `xml:"growthEpochs,attr" json:"growth_epochs,omitempty"`
}

// FaultInjection is one scripted fault for the netsim fault plane: at
// virtual time At (from scheduler start) either kill or heal a node, sever
// or heal a partition between two nodes, or install a seeded loss/reorder
// schedule on the directed link From→To. Exactly one action per injection.
type FaultInjection struct {
	// Name identifies the injection in decision logs and flight events.
	Name string `xml:"name,attr" json:"name"`
	// At is the virtual time offset the injection fires at.
	At Duration `xml:"at,attr" json:"at"`
	// Kill names a node whose links all black-hole from At on.
	Kill string `xml:"kill,attr" json:"kill,omitempty"`
	// Heal names a previously killed node to revive.
	Heal string `xml:"heal,attr" json:"heal,omitempty"`
	// From and To name the directed link (or node pair) the injection
	// targets.
	From string `xml:"from,attr" json:"from,omitempty"`
	To   string `xml:"to,attr" json:"to,omitempty"`
	// Partition severs both directions between From and To; HealPartition
	// restores them.
	Partition     bool `xml:"partition,attr" json:"partition,omitempty"`
	HealPartition bool `xml:"healPartition,attr" json:"heal_partition,omitempty"`
	// Loss and Reorder are per-packet probabilities for the From→To link;
	// Depth is how many delivery rounds a reordered packet is held (0
	// selects 1); Seed seeds the deterministic fault schedule (0 selects
	// 1). Loss+Reorder == 0 with From/To set clears the link's faults.
	Loss    float64 `xml:"loss,attr" json:"loss,omitempty"`
	Reorder float64 `xml:"reorder,attr" json:"reorder,omitempty"`
	Depth   int     `xml:"depth,attr" json:"depth,omitempty"`
	Seed    int64   `xml:"seed,attr" json:"seed,omitempty"`
}

// FaultPolicy governs the fault-tolerance plane: periodic checkpointing,
// the failure detector, the replay-ring depth, and scripted injections.
type FaultPolicy struct {
	// Enabled turns checkpointing and recovery on; the remaining knobs
	// normalize to defaults only when it is set.
	Enabled bool `xml:"enabled,attr" json:"enabled,omitempty"`
	// CheckpointInterval is the virtual time between checkpoint rounds;
	// 0 selects DefaultCheckpointInterval.
	CheckpointInterval Duration `xml:"checkpointInterval,attr" json:"checkpoint_interval,omitempty"`
	// ReplayBuffer is the per-edge replay-ring depth; 0 selects
	// DefaultReplayBuffer.
	ReplayBuffer int `xml:"replayBuffer,attr" json:"replay_buffer,omitempty"`
	// HealthEvery is the failure detector's epoch length; 0 selects
	// DefaultHealthEvery.
	HealthEvery Duration `xml:"healthEvery,attr" json:"health_every,omitempty"`
	// DeadAfter is how many consecutive missed epochs declare a node
	// dead; 0 selects DefaultDeadAfter.
	DeadAfter int `xml:"deadAfter,attr" json:"dead_after,omitempty"`
	// Injections is the scripted fault schedule.
	Injections []FaultInjection `xml:"injection" json:"injections,omitempty"`
}

// actions counts how many distinct actions the injection specifies.
func (f FaultInjection) actions() int {
	n := 0
	if f.Kill != "" {
		n++
	}
	if f.Heal != "" {
		n++
	}
	if f.Partition {
		n++
	}
	if f.HealPartition {
		n++
	}
	if f.From != "" && !f.Partition && !f.HealPartition {
		n++ // link loss/reorder injection (or a clear)
	}
	return n
}

// Document is one complete policy: everything the control plane consults.
// The zero value normalizes to the middleware's historical defaults.
type Document struct {
	XMLName xml.Name `xml:"policy" json:"-"`
	// Version labels the document; empty versions are stamped "v<seq>"
	// at load time.
	Version   string          `xml:"version,attr" json:"version,omitempty"`
	Placement PlacementPolicy `xml:"placement" json:"placement,omitempty"`
	Rebalance RebalancePolicy `xml:"rebalance" json:"rebalance,omitempty"`
	SLO       SLOPolicy       `xml:"slo" json:"slo,omitempty"`
	Faults    FaultPolicy     `xml:"faults" json:"faults,omitempty"`
}

// DefaultDocument returns the policy the middleware ships with — the exact
// constants that were previously hard-wired into RebalancerConfig,
// SLOConfig, and the Planner.
func DefaultDocument() Document {
	doc := Document{Version: "default"}
	doc.Normalize()
	return doc
}

// Normalize fills zero fields with their documented defaults, in place.
func (d *Document) Normalize() {
	if d.Placement.LinkCostWeight == 0 {
		d.Placement.LinkCostWeight = DefaultLinkCostWeight
	}
	if d.Rebalance.Interval <= 0 {
		d.Rebalance.Interval = Duration(DefaultRebalanceInterval)
	}
	if d.Rebalance.Threshold == 0 {
		d.Rebalance.Threshold = DefaultRebalanceThreshold
	}
	if d.Rebalance.Cooldown <= 0 {
		d.Rebalance.Cooldown = d.Rebalance.Interval
	}
	if d.SLO.GrowthEpochs == 0 {
		d.SLO.GrowthEpochs = obs.DefaultSLOGrowthEpochs
	}
	if d.Faults.Enabled {
		if d.Faults.CheckpointInterval <= 0 {
			d.Faults.CheckpointInterval = Duration(DefaultCheckpointInterval)
		}
		if d.Faults.ReplayBuffer == 0 {
			d.Faults.ReplayBuffer = DefaultReplayBuffer
		}
		if d.Faults.HealthEvery <= 0 {
			d.Faults.HealthEvery = Duration(DefaultHealthEvery)
		}
		if d.Faults.DeadAfter <= 0 {
			d.Faults.DeadAfter = DefaultDeadAfter
		}
	}
}

// Validate rejects documents that would wedge the control plane. It is
// called on every load; a failing document never becomes active
// (validation-with-rollback).
func (d *Document) Validate() error {
	if d.Placement.LinkCostWeight < 0 {
		return fmt.Errorf("policy: placement.link_cost_weight %g must be positive", d.Placement.LinkCostWeight)
	}
	for i, r := range d.Placement.Rules {
		if r.Name == "" {
			return fmt.Errorf("policy: placement rule %d needs a name (decision logs cite it)", i)
		}
		if r.empty() {
			return fmt.Errorf("policy: placement rule %q constrains nothing", r.Name)
		}
		if r.MinCPU < 0 || r.MinMemoryMB < 0 {
			return fmt.Errorf("policy: placement rule %q: negative resource floor", r.Name)
		}
	}
	if d.Rebalance.Interval < 0 {
		return fmt.Errorf("policy: rebalance.interval %s must be positive", d.Rebalance.Interval.Std())
	}
	if d.Rebalance.Threshold < 0 {
		return fmt.Errorf("policy: rebalance.threshold %g must be positive", d.Rebalance.Threshold)
	}
	if d.Rebalance.Cooldown < 0 {
		return fmt.Errorf("policy: rebalance.cooldown %s must be positive", d.Rebalance.Cooldown.Std())
	}
	if d.Rebalance.MigrationBudget < 0 {
		return fmt.Errorf("policy: rebalance.migration_budget %d must not be negative", d.Rebalance.MigrationBudget)
	}
	if d.SLO.TargetP99 < 0 {
		return fmt.Errorf("policy: slo.target_p99 %s must not be negative", d.SLO.TargetP99.Std())
	}
	if d.SLO.GrowthEpochs < 0 {
		return fmt.Errorf("policy: slo.growth_epochs %d must not be negative", d.SLO.GrowthEpochs)
	}
	if d.Faults.CheckpointInterval < 0 {
		return fmt.Errorf("policy: faults.checkpoint_interval %s must not be negative", d.Faults.CheckpointInterval.Std())
	}
	if d.Faults.HealthEvery < 0 {
		return fmt.Errorf("policy: faults.health_every %s must not be negative", d.Faults.HealthEvery.Std())
	}
	if d.Faults.DeadAfter < 0 {
		return fmt.Errorf("policy: faults.dead_after %d must not be negative", d.Faults.DeadAfter)
	}
	for i, inj := range d.Faults.Injections {
		if inj.Name == "" {
			return fmt.Errorf("policy: fault injection %d needs a name (decision logs cite it)", i)
		}
		if inj.At < 0 {
			return fmt.Errorf("policy: fault injection %q: at %s must not be negative", inj.Name, inj.At.Std())
		}
		if n := inj.actions(); n != 1 {
			return fmt.Errorf("policy: fault injection %q specifies %d actions, want exactly one of kill, heal, partition, heal_partition, or a from/to link schedule", inj.Name, n)
		}
		if (inj.Partition || inj.HealPartition || (inj.From != "")) && (inj.From == "" || inj.To == "") {
			return fmt.Errorf("policy: fault injection %q needs both from and to", inj.Name)
		}
		if inj.Loss < 0 || inj.Loss > 1 || inj.Reorder < 0 || inj.Reorder > 1 || inj.Loss+inj.Reorder > 1 {
			return fmt.Errorf("policy: fault injection %q: loss %g / reorder %g must be probabilities summing to at most 1", inj.Name, inj.Loss, inj.Reorder)
		}
		if (inj.Loss > 0 || inj.Reorder > 0 || inj.Depth != 0 || inj.Seed != 0) && inj.From == "" {
			return fmt.Errorf("policy: fault injection %q sets a loss schedule without a from/to link", inj.Name)
		}
	}
	return nil
}

// RuleFor returns the first placement rule matching the named stage.
func (p PlacementPolicy) RuleFor(stage string) (PlacementRule, bool) {
	for _, r := range p.Rules {
		if r.Matches(stage) {
			return r, true
		}
	}
	return PlacementRule{}, false
}

// SLOConfig compiles the objectives into the obs detector's config shim.
func (s SLOPolicy) SLOConfig() obs.SLOConfig {
	return obs.SLOConfig{
		TargetP99:    s.TargetP99.Std().Seconds(),
		GrowthEpochs: s.GrowthEpochs,
	}
}

// Parse decodes a policy document from JSON or XML (sniffed on the first
// non-space byte) and normalizes it. Unknown JSON fields are rejected, so a
// typoed knob fails loudly instead of silently keeping its default.
func Parse(b []byte) (Document, error) {
	var doc Document
	trimmed := bytes.TrimSpace(b)
	if len(trimmed) == 0 {
		return doc, fmt.Errorf("policy: empty document")
	}
	if trimmed[0] == '<' {
		if err := xml.Unmarshal(trimmed, &doc); err != nil {
			return doc, fmt.Errorf("policy: parse XML: %w", err)
		}
	} else {
		dec := json.NewDecoder(bytes.NewReader(trimmed))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&doc); err != nil {
			return doc, fmt.Errorf("policy: parse JSON: %w", err)
		}
	}
	doc.Normalize()
	return doc, nil
}

// Marshal renders the document as indented JSON (the canonical on-disk and
// on-wire form; XML stays accepted on input for grid-era tooling).
func (d Document) Marshal() ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}
