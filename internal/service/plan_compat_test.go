package service

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// TestPlanFromOlderBuildStillDeploys pins the tolerance a stored plan relies
// on: builds up to PR 15 wrote a "queues" array (the ring kind per consumer
// instance) into Plan JSON. The engine now decides that alone at Run, so the
// field is gone — but a document that still carries it must decode, lose the
// field on the next write, and deploy and run like any other plan.
func TestPlanFromOlderBuildStillDeploys(t *testing.T) {
	clk, dir, repo, net, counter := testFabric(t)
	dep, err := NewDeployer(clk, dir, repo, net)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseConfigString(testConfigXML)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dep.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Planner().Release(plan)

	// The same plan as an older build serialized it. The recorded kind is
	// deliberately wrong for this fan-in (4 producers into merge/0): were
	// it still honoured, four goroutines would share an SPSC ring.
	raw, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	doc["queues"] = json.RawMessage(`[{"stage":"merge","instance":0,"kind":"spsc"}]`)
	old, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}

	var restored Plan
	if err := json.Unmarshal(old, &restored); err != nil {
		t.Fatalf("plan with a queues array no longer decodes: %v", err)
	}
	again, err := json.Marshal(&restored)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(again, []byte(`"queues"`)) {
		t.Fatalf("re-encoded plan still carries queues: %s", again)
	}
	if !bytes.Equal(again, raw) {
		t.Fatalf("plan changed across the old-document round trip:\n%s\n%s", again, raw)
	}

	deployment, err := dep.Apply(cfg, &restored, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := deployment.Engine.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if counter.count() != 100 {
		t.Errorf("merge received %d packets, want 100", counter.count())
	}
}
