package policy

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/obs"
)

// TestParseJSON covers the canonical on-disk form, including duration
// strings and nested placement rules.
func TestParseJSON(t *testing.T) {
	doc, err := Parse([]byte(`{
		"version": "ops-1",
		"placement": {
			"topology_aware": true,
			"rules": [{"name": "pin-merge", "stage": "merge", "min_cpu": 2}]
		},
		"rebalance": {"interval": "5s", "threshold": 3, "stages": ["summarize"]},
		"slo": {"target_p99": "250ms"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Version != "ops-1" || !doc.Placement.TopologyAware {
		t.Errorf("header fields lost: %+v", doc)
	}
	if doc.Rebalance.Interval.Std() != 5*time.Second || doc.Rebalance.Threshold != 3 {
		t.Errorf("rebalance fields: %+v", doc.Rebalance)
	}
	if doc.SLO.TargetP99.Std() != 250*time.Millisecond {
		t.Errorf("target_p99 = %s", doc.SLO.TargetP99.Std())
	}
	r, ok := doc.Placement.RuleFor("merge")
	if !ok || r.Name != "pin-merge" || r.MinCPU != 2 {
		t.Errorf("RuleFor(merge) = %+v, %v", r, ok)
	}
	// Parse normalizes: unset knobs hold their documented defaults.
	if doc.Rebalance.Cooldown.Std() != 5*time.Second {
		t.Errorf("cooldown should default to interval, got %s", doc.Rebalance.Cooldown.Std())
	}
	if doc.SLO.GrowthEpochs != obs.DefaultSLOGrowthEpochs {
		t.Errorf("growth epochs = %d", doc.SLO.GrowthEpochs)
	}
}

// TestParseXML covers the grid-era input form with attribute knobs.
func TestParseXML(t *testing.T) {
	doc, err := Parse([]byte(`
		<policy version="xml-1">
			<placement topologyAware="true">
				<rule name="near" stage="*" nearSource="stream-1"/>
			</placement>
			<rebalance interval="4s" threshold="2.5">
				<stage>summarize</stage>
			</rebalance>
			<slo targetP99="1s"/>
		</policy>`))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Version != "xml-1" || !doc.Placement.TopologyAware {
		t.Errorf("header fields: %+v", doc)
	}
	if doc.Rebalance.Interval.Std() != 4*time.Second || doc.Rebalance.Threshold != 2.5 {
		t.Errorf("rebalance: %+v", doc.Rebalance)
	}
	if len(doc.Rebalance.Stages) != 1 || doc.Rebalance.Stages[0] != "summarize" {
		t.Errorf("stages: %v", doc.Rebalance.Stages)
	}
	if doc.SLO.TargetP99.Std() != time.Second {
		t.Errorf("targetP99 = %s", doc.SLO.TargetP99.Std())
	}
	if r, ok := doc.Placement.RuleFor("anything"); !ok || r.NearSource != "stream-1" {
		t.Errorf("wildcard rule: %+v, %v", r, ok)
	}
}

// TestParseRejects: a typoed JSON knob must fail loudly, not silently keep
// its default; empty input is not a policy.
func TestParseRejects(t *testing.T) {
	if _, err := Parse([]byte(`{"rebalance": {"treshold": 3}}`)); err == nil {
		t.Error("typoed field parsed silently")
	}
	if _, err := Parse([]byte("   ")); err == nil {
		t.Error("empty document parsed")
	}
	if _, err := Parse([]byte(`<policy`)); err == nil {
		t.Error("malformed XML parsed")
	}
}

// TestNormalizeDefaults: the zero document is the middleware's historical
// configuration.
func TestNormalizeDefaults(t *testing.T) {
	var doc Document
	doc.Normalize()
	if doc.Rebalance.Interval.Std() != DefaultRebalanceInterval {
		t.Errorf("interval = %s", doc.Rebalance.Interval.Std())
	}
	if doc.Rebalance.Threshold != DefaultRebalanceThreshold {
		t.Errorf("threshold = %g", doc.Rebalance.Threshold)
	}
	if doc.Rebalance.Cooldown != doc.Rebalance.Interval {
		t.Errorf("cooldown = %s, interval = %s", doc.Rebalance.Cooldown.Std(), doc.Rebalance.Interval.Std())
	}
	if doc.Placement.LinkCostWeight != DefaultLinkCostWeight {
		t.Errorf("link cost weight = %g", doc.Placement.LinkCostWeight)
	}
	if doc.SLO.GrowthEpochs != obs.DefaultSLOGrowthEpochs {
		t.Errorf("growth epochs = %d", doc.SLO.GrowthEpochs)
	}
}

// TestValidate walks the rejection table: every malformed document must
// name its offense.
func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Document)
		want string
	}{
		{"negative threshold", func(d *Document) { d.Rebalance.Threshold = -1 }, "threshold"},
		{"negative budget", func(d *Document) { d.Rebalance.MigrationBudget = -1 }, "migration_budget"},
		{"negative p99", func(d *Document) { d.SLO.TargetP99 = Duration(-time.Second) }, "target_p99"},
		{"negative weight", func(d *Document) { d.Placement.LinkCostWeight = -1 }, "link_cost_weight"},
		// An enabled plane with a negative depth would checkpoint and
		// detect with no replay rings to recover from.
		{"negative replay buffer", func(d *Document) {
			d.Faults.Enabled, d.Faults.ReplayBuffer = true, -1
		}, "replay_buffer"},
		{"unnamed rule", func(d *Document) {
			d.Placement.Rules = []PlacementRule{{Site: "x"}}
		}, "needs a name"},
		{"no-effect rule", func(d *Document) {
			d.Placement.Rules = []PlacementRule{{Name: "idle"}}
		}, "constrains nothing"},
		{"negative rule floor", func(d *Document) {
			d.Placement.Rules = []PlacementRule{{Name: "neg", MinCPU: -1}}
		}, "negative or non-finite resource floor"},
		// XML decodes "NaN" and "Inf" as numbers; JSON cannot marshal them.
		{"NaN threshold", func(d *Document) { d.Rebalance.Threshold = math.NaN() }, "threshold"},
		{"infinite weight", func(d *Document) { d.Placement.LinkCostWeight = math.Inf(1) }, "link_cost_weight"},
		{"NaN rule floor", func(d *Document) {
			d.Placement.Rules = []PlacementRule{{Name: "nan", MinCPU: math.NaN()}}
		}, "non-finite resource floor"},
		{"NaN loss", func(d *Document) {
			d.Faults.Injections = []FaultInjection{{Name: "lossy", From: "a", To: "b", Loss: math.NaN()}}
		}, "probabilities"},
	}
	for _, tc := range cases {
		doc := DefaultDocument()
		tc.mut(&doc)
		err := doc.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	good := DefaultDocument()
	if err := good.Validate(); err != nil {
		t.Errorf("default document invalid: %v", err)
	}
}

// TestMarshalRoundTrip: Marshal output re-parses to the same document.
func TestMarshalRoundTrip(t *testing.T) {
	doc := DefaultDocument()
	doc.Version = "rt"
	doc.Rebalance.Threshold = 7
	doc.Placement.Rules = []PlacementRule{{Name: "r1", Stage: "a", Site: "siteA"}}
	b, err := doc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(b)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, b)
	}
	if back.Version != "rt" || back.Rebalance.Threshold != 7 {
		t.Errorf("round trip lost fields: %+v", back)
	}
	if len(back.Placement.Rules) != 1 || back.Placement.Rules[0].Site != "siteA" {
		t.Errorf("rules: %+v", back.Placement.Rules)
	}
}

// TestRuleMatching pins the stage-selector semantics.
func TestRuleMatching(t *testing.T) {
	r := PlacementRule{Name: "r", Stage: "merge", Site: "x"}
	if !r.Matches("merge") || r.Matches("other") {
		t.Error("exact stage match broken")
	}
	for _, wild := range []string{"", "*"} {
		r.Stage = wild
		if !r.Matches("anything") {
			t.Errorf("stage selector %q should match everything", wild)
		}
	}
	// First match wins.
	p := PlacementPolicy{Rules: []PlacementRule{
		{Name: "specific", Stage: "merge", Site: "a"},
		{Name: "wild", Site: "b"},
	}}
	if r, _ := p.RuleFor("merge"); r.Name != "specific" {
		t.Errorf("RuleFor(merge) = %q, want specific", r.Name)
	}
	if r, _ := p.RuleFor("other"); r.Name != "wild" {
		t.Errorf("RuleFor(other) = %q, want wild", r.Name)
	}
	if _, ok := (PlacementPolicy{}).RuleFor("x"); ok {
		t.Error("empty policy matched a rule")
	}
}

// TestSLOConfigCompile: the SLO section compiles into the obs detector's
// units (seconds).
func TestSLOConfigCompile(t *testing.T) {
	s := SLOPolicy{TargetP99: Duration(1500 * time.Millisecond), GrowthEpochs: 5}
	cfg := s.SLOConfig()
	if cfg.TargetP99 != 1.5 || cfg.GrowthEpochs != 5 {
		t.Errorf("compiled %+v", cfg)
	}
}
