package service

import (
	"context"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/policy"
)

// rebalancer returns a rebalancer over the fixture's deployment, driven by
// an engine that has loaded a "test" document with rebalance section rb and
// logs into the fixture's journal.
func (f *migrationFixture) rebalancer(t *testing.T, rb policy.RebalancePolicy) *Rebalancer {
	t.Helper()
	doc := policy.Document{Version: "test", Rebalance: rb}
	doc.Normalize()
	eng := policy.New(f.app.Deployment.deployer.clk, f.o)
	if err := eng.Load(doc, "test"); err != nil {
		t.Fatal(err)
	}
	return NewPolicyRebalancer(f.app.Deployment, eng)
}

// TestRebalancerCooldownSkipDecision: an instance inside its cooldown
// window is not evaluated for a move, and the suppression itself is a
// logged decision naming the rule and the window.
func TestRebalancerCooldownSkipDecision(t *testing.T) {
	f := newMigrationFixture(t)
	dep := f.app.Deployment
	reb := f.rebalancer(t, policy.RebalancePolicy{
		Cooldown: policy.Duration(time.Hour),
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
	if skip.PolicyVersion != "test" {
		t.Errorf("cooldown decision cites policy %q, want test", skip.PolicyVersion)
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
	reb := f.rebalancer(t, policy.RebalancePolicy{Stages: []string{"summarize"}})
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
	reb := f.rebalancer(t, policy.RebalancePolicy{MigrationBudget: 1})
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
