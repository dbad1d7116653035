package service

import (
	"context"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/policy"
)

// TestRebalancerConfigPolicyDocument pins the deprecated shim's compile
// step: the zero config selects exactly the documented defaults, positive
// fields carry over, and the legacy "non-positive means default" semantics
// survive the translation.
func TestRebalancerConfigPolicyDocument(t *testing.T) {
	doc := RebalancerConfig{}.PolicyDocument()
	if doc.Version != "config" {
		t.Errorf("version %q, want config", doc.Version)
	}
	if got := doc.Rebalance.Interval.Std(); got != policy.DefaultRebalanceInterval {
		t.Errorf("zero Interval compiled to %s, want %s", got, policy.DefaultRebalanceInterval)
	}
	if got := doc.Rebalance.Threshold; got != policy.DefaultRebalanceThreshold {
		t.Errorf("zero Threshold compiled to %g, want %g", got, policy.DefaultRebalanceThreshold)
	}
	if doc.Rebalance.Cooldown != doc.Rebalance.Interval {
		t.Errorf("zero Cooldown compiled to %s, want the interval %s",
			doc.Rebalance.Cooldown.Std(), doc.Rebalance.Interval.Std())
	}
	if doc.Rebalance.MigrationBudget != 0 {
		t.Errorf("zero MaxMigrations compiled to budget %d, want 0 (unlimited)", doc.Rebalance.MigrationBudget)
	}

	cfg := RebalancerConfig{
		Interval:      7 * time.Second,
		Threshold:     1.5,
		Cooldown:      3 * time.Second,
		MaxMigrations: 2,
		Stages:        []string{"summarize"},
	}
	doc = cfg.PolicyDocument()
	if doc.Rebalance.Interval.Std() != 7*time.Second ||
		doc.Rebalance.Threshold != 1.5 ||
		doc.Rebalance.Cooldown.Std() != 3*time.Second ||
		doc.Rebalance.MigrationBudget != 2 {
		t.Errorf("explicit config compiled to %+v", doc.Rebalance)
	}
	if len(doc.Rebalance.Stages) != 1 || doc.Rebalance.Stages[0] != "summarize" {
		t.Errorf("stages %v", doc.Rebalance.Stages)
	}
	// Zero Cooldown with an explicit Interval tracks the interval.
	doc = RebalancerConfig{Interval: 9 * time.Second}.PolicyDocument()
	if doc.Rebalance.Cooldown.Std() != 9*time.Second {
		t.Errorf("cooldown %s, want the 9s interval", doc.Rebalance.Cooldown.Std())
	}
	// Negative values have always meant "use the default" too.
	doc = RebalancerConfig{Interval: -1, Threshold: -2, Cooldown: -3}.PolicyDocument()
	if doc.Rebalance.Interval.Std() != policy.DefaultRebalanceInterval ||
		doc.Rebalance.Threshold != policy.DefaultRebalanceThreshold ||
		doc.Rebalance.Cooldown != doc.Rebalance.Interval {
		t.Errorf("negative config compiled to %+v", doc.Rebalance)
	}
	// The compiled document always validates, so NewRebalancer's Load
	// cannot fail.
	if err := doc.Validate(); err != nil {
		t.Errorf("compiled document invalid: %v", err)
	}
}

// TestNewRebalancerDefaults: a config-built rebalancer reads the defaults
// through its private engine under version "config".
func TestNewRebalancerDefaults(t *testing.T) {
	f := newMigrationFixture(t)
	reb := NewRebalancer(f.app.Deployment, RebalancerConfig{})
	pol, version := reb.Policy().Rebalance()
	if version != "config" {
		t.Errorf("policy version %q, want config", version)
	}
	if pol.Interval.Std() != policy.DefaultRebalanceInterval ||
		pol.Threshold != policy.DefaultRebalanceThreshold ||
		pol.Cooldown != pol.Interval {
		t.Errorf("active rebalance policy %+v", pol)
	}
	f.run(t, nil)
}

// TestRebalancerCooldownSkipDecision: an instance inside its cooldown
// window is not evaluated for a move, and the suppression itself is a
// logged decision naming the rule and the window.
func TestRebalancerCooldownSkipDecision(t *testing.T) {
	f := newMigrationFixture(t)
	dep := f.app.Deployment
	reb := NewRebalancer(dep, RebalancerConfig{
		Cooldown: time.Hour,
		Stages:   []string{"summarize"},
	})
	f.run(t, func() {
		// A move just happened (as far as the cooldown bookkeeping is
		// concerned); the next sweep lands inside the window.
		reb.lastMove[instRef{stage: "summarize", instance: 0}] = dep.deployer.clk.Now()
		reb.sweep(context.Background())
	})

	var skip *obs.Event
	var d obs.Decision
	for _, ev := range f.o.Journal.Events(obs.EventFilter{Kind: obs.EventRebalance}) {
		if d = ev.Payload.(obs.Decision); d.Rule == "cooldown" {
			skip = &ev
			break
		}
	}
	if skip == nil {
		t.Fatalf("no cooldown decision recorded; journal: %+v", f.o.Journal.Events(obs.EventFilter{}))
	}
	if d.Outcome != "skip" {
		t.Errorf("cooldown outcome %q, want skip", d.Outcome)
	}
	if skip.Stage != "summarize" || skip.Instance != 0 || skip.Node != "src-1" {
		t.Errorf("cooldown decision names %s/%d@%s", skip.Stage, skip.Instance, skip.Node)
	}
	if skip.PolicyVersion != "config" {
		t.Errorf("cooldown decision cites policy %q, want config", skip.PolicyVersion)
	}
	if d.Input["cooldown"] != time.Hour.String() {
		t.Errorf("cooldown input %+v", d.Input)
	}
	if _, ok := d.Input["since_last_move"]; !ok {
		t.Errorf("cooldown input misses since_last_move: %+v", d.Input)
	}
	if reb.Migrations() != 0 {
		t.Errorf("cooldown sweep migrated %d instances", reb.Migrations())
	}
}

// TestRebalancerAlreadyOptimalSkip: on a healthy fabric (every link
// unlimited, costs zero) a sweep leaves the placement alone and says why.
func TestRebalancerAlreadyOptimalSkip(t *testing.T) {
	f := newMigrationFixture(t)
	reb := NewRebalancer(f.app.Deployment, RebalancerConfig{Stages: []string{"summarize"}})
	f.run(t, func() {
		reb.sweep(context.Background())
	})
	evs := f.o.Journal.Events(obs.EventFilter{Kind: obs.EventRebalance})
	if len(evs) != 1 {
		t.Fatalf("one sweep over one instance recorded %d rebalance events: %+v", len(evs), evs)
	}
	d := evs[0].Payload.(obs.Decision)
	if d.Rule != "already-optimal" || d.Outcome != "skip" {
		t.Errorf("decision %q/%q, want already-optimal/skip", d.Rule, d.Outcome)
	}
	if d.Input["threshold"] != policy.DefaultRebalanceThreshold {
		t.Errorf("decision input %+v", d.Input)
	}
	if reb.Migrations() != 0 {
		t.Errorf("healthy sweep migrated %d instances", reb.Migrations())
	}
}

// TestRebalancerBudgetHalt: a spent migration budget stops the loop and
// logs the halt decision exactly once.
func TestRebalancerBudgetHalt(t *testing.T) {
	f := newMigrationFixture(t)
	reb := NewRebalancer(f.app.Deployment, RebalancerConfig{MaxMigrations: 1})
	if reb.budgetExhausted() {
		t.Fatal("fresh rebalancer already over budget")
	}
	reb.migrations.Add(1)
	if !reb.budgetExhausted() || !reb.budgetExhausted() {
		t.Fatal("spent budget not detected")
	}
	halts := 0
	for _, ev := range f.o.Journal.Events(obs.EventFilter{Kind: obs.EventRebalance}) {
		if d := ev.Payload.(obs.Decision); d.Rule == "migration-budget" {
			halts++
			if d.Outcome != "halt" {
				t.Errorf("halt outcome %q", d.Outcome)
			}
		}
	}
	if halts != 1 {
		t.Errorf("%d halt decisions logged, want exactly 1", halts)
	}
	f.run(t, nil)
}
