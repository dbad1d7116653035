package service

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/apps/countsamps"
	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/grid"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/pipeline"
	"github.com/gates-middleware/gates/internal/workload"
)

// gatedSource emits a fixed stream but parks halfway: it closes reached
// after emitting half the items and waits for release before continuing —
// the hook that lets a test migrate a downstream stage at a deterministic
// mid-stream point.
type gatedSource struct {
	values  []int
	reached chan struct{}
	release chan struct{}
}

func (g *gatedSource) Run(_ *pipeline.Context, out *pipeline.Emitter) error {
	half := len(g.values) / 2
	for i, v := range g.values {
		if i == half {
			close(g.reached)
			<-g.release
		}
		if err := out.Emit(&pipeline.Packet{Value: []int{v}, Items: 1, WireSize: 8}); err != nil {
			return err
		}
	}
	return nil
}

// migrationFixture is one deployed gated count-samps pipeline on a manual
// clock: stream/0 on src-1 feeds summarize/0 (src-1) feeds central.
// Nothing in it sleeps — links are unlimited, compute costs zero, the
// adaptation loops disabled — so the run is fully deterministic.
type migrationFixture struct {
	app    *Application
	o      *obs.Observability
	src    *gatedSource
	merger *countsamps.SummaryMerger
	items  int
}

func newMigrationFixture(t *testing.T) *migrationFixture {
	t.Helper()
	clk := clock.NewManual()
	dir := grid.NewDirectory()
	for _, n := range []grid.Node{
		{Name: "src-1", CPUPower: 1, MemoryMB: 512, Slots: 2, Sources: []string{"stream-1"}},
		{Name: "helper", CPUPower: 1, MemoryMB: 512, Slots: 2},
		{Name: "central", CPUPower: 4, MemoryMB: 4096, Slots: 2},
	} {
		if err := dir.Register(n); err != nil {
			t.Fatal(err)
		}
	}
	net := netsim.NewNetwork(clk) // all links unlimited: transfers never sleep

	const items = 2000
	values := make([]int, items)
	for i := range values {
		values[i] = (i * 7) % 100
	}
	src := &gatedSource{
		values:  values,
		reached: make(chan struct{}),
		release: make(chan struct{}),
	}
	merger := &countsamps.SummaryMerger{}
	repo := NewRepository()
	if err := repo.RegisterSource("test/gated", func(int) pipeline.Source { return src }); err != nil {
		t.Fatal(err)
	}
	if err := repo.RegisterProcessor("test/summarize", func(inst int) pipeline.Processor {
		return countsamps.NewSummarizer(countsamps.SummarizerConfig{
			FlushEvery: 250,
			Adaptive:   true, // the controller state that must survive a move
			Seed:       42,
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := repo.RegisterProcessor("test/merge", func(int) pipeline.Processor { return merger }); err != nil {
		t.Fatal(err)
	}

	dep, err := NewDeployer(clk, dir, repo, net)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(clk, obs.Config{})
	dep.SetObservability(o)
	launcher, err := NewLauncher(dep)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &AppConfig{
		Name: "migrate-test",
		Stages: []StageDef{
			{ID: "stream", Code: "test/gated", Source: true, NearSources: []string{"stream-1"}},
			{ID: "summarize", Code: "test/summarize", NearSources: []string{"stream-1"}},
			{ID: "central", Code: "test/merge", Requirement: ReqDef{MinCPU: 2}},
		},
		Connections: []ConnDef{
			{From: "stream", To: "summarize"},
			{From: "summarize", To: "central"},
		},
	}
	tuning := func(string, int) pipeline.StageConfig {
		return pipeline.StageConfig{DisableAdaptation: true}
	}
	app, err := launcher.LaunchConfig(context.Background(), cfg, tuning)
	if err != nil {
		t.Fatal(err)
	}
	return &migrationFixture{app: app, o: o, src: src, merger: merger, items: items}
}

// run drives the fixture to completion, invoking mid (may be nil) at the
// gated halfway point, and returns the merger's final top-10.
func (f *migrationFixture) run(t *testing.T, mid func()) []workload.ValueCount {
	t.Helper()
	<-f.src.reached
	if mid != nil {
		mid()
	}
	close(f.src.release)
	if err := f.app.Wait(); err != nil {
		t.Fatal(err)
	}
	return f.merger.TopK(10)
}

// TestMigrationZeroLoss migrates a live count-samps summarizer mid-stream
// and checks the full acceptance surface: no packet lost, results
// bit-identical to an unmigrated baseline, the drain→pause→resume
// transitions in the lifecycle trail, the migration event recorded, the
// placement index updated, and the adaptation controller intact.
func TestMigrationZeroLoss(t *testing.T) {
	base := newMigrationFixture(t)
	baseline := base.run(t, nil)

	f := newMigrationFixture(t)
	dep := f.app.Deployment
	if node, _ := dep.NodeFor("summarize", 0); node != "src-1" {
		t.Fatalf("summarize/0 planned on %s, want src-1", node)
	}
	var paramBefore float64
	topk := f.run(t, func() {
		st, _ := dep.Stage("summarize", 0)
		p, ok := st.Controller().Param("summary-size")
		if !ok {
			t.Fatal("summary-size parameter not registered")
		}
		paramBefore = p.Value()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := dep.Migrate(ctx, "summarize", 0, "helper"); err != nil {
			t.Fatalf("migrate: %v", err)
		}
	})

	// Zero loss: every emitted packet was consumed downstream.
	stream, _ := dep.Stage("stream", 0)
	summarize, _ := dep.Stage("summarize", 0)
	central, _ := dep.Stage("central", 0)
	if got, want := summarize.Stats().PacketsIn, stream.Stats().PacketsOut; got != want {
		t.Errorf("summarize consumed %d packets, stream emitted %d", got, want)
	}
	if got, want := central.Stats().PacketsIn, summarize.Stats().PacketsOut; got != want {
		t.Errorf("central consumed %d packets, summarize emitted %d", got, want)
	}
	if got, want := summarize.Stats().ItemsIn, uint64(f.items); got != want {
		t.Errorf("summarize consumed %d items, want %d", got, want)
	}
	if got := f.merger.Sources(); got != 1 {
		t.Errorf("merger saw %d sources, want 1", got)
	}

	// The migrated run's answer is bit-identical to the unmigrated one:
	// the sketch's RNG position moved with it.
	if !reflect.DeepEqual(topk, baseline) {
		t.Errorf("migrated top-10 %v differs from baseline %v", topk, baseline)
	}

	// Placement records track the move.
	if node, _ := dep.NodeFor("summarize", 0); node != "helper" {
		t.Errorf("NodeFor after migration = %s, want helper", node)
	}
	if node, _ := dep.Plan.NodeFor("summarize", 0); node != "helper" {
		t.Errorf("plan node after migration = %s, want helper", node)
	}

	// The controller (and its tuned parameter) survived in place.
	p, ok := summarize.Controller().Param("summary-size")
	if !ok {
		t.Fatal("summary-size parameter lost in migration")
	}
	if p.Value() != paramBefore {
		t.Errorf("parameter value %v changed across migration from %v", p.Value(), paramBefore)
	}

	// The journal recorded the move once and the drain→resume signature,
	// one event per transition.
	migs := f.o.Journal.Events(obs.EventFilter{Kind: obs.EventMigration})
	if len(migs) != 1 {
		t.Fatalf("%d migration events for one migration: %+v", len(migs), migs)
	}
	mig := migs[0].Payload.(obs.Migration)
	if migs[0].Stage != "summarize" || mig.From != "src-1" || mig.To != "helper" || mig.Reason != "manual" {
		t.Errorf("migration event %+v", migs[0])
	}
	if mig.StateBytes == 0 {
		t.Error("migration event records no moved state")
	}
	zero := 0
	var transitions []string
	for _, le := range f.o.Journal.Events(obs.EventFilter{Kind: obs.EventLifecycle, Stage: "summarize", Instance: &zero}) {
		lc := le.Payload.(obs.Lifecycle)
		transitions = append(transitions, lc.From+">"+lc.To)
	}
	want := []string{"init>running", "running>draining", "draining>paused", "paused>running", "running>stopped"}
	if !reflect.DeepEqual(transitions, want) {
		t.Errorf("lifecycle transitions %v, want %v", transitions, want)
	}
}

// TestMigrateErrors covers the refusal paths: unknown instance, a full
// destination, and a same-node no-op.
func TestMigrateErrors(t *testing.T) {
	f := newMigrationFixture(t)
	dep := f.app.Deployment
	ctx := context.Background()
	if err := dep.Migrate(ctx, "ghost", 0, "helper"); err == nil {
		t.Error("migrating unknown stage succeeded")
	}
	if err := dep.Migrate(ctx, "summarize", 0, "src-1"); err != nil {
		t.Errorf("same-node migration should be a no-op, got %v", err)
	}
	// Exhaust the helper's two slots, then try to move there.
	if err := dep.deployer.dir.Allocate("helper", grid.Requirement{}); err != nil {
		t.Fatal(err)
	}
	if err := dep.deployer.dir.Allocate("helper", grid.Requirement{}); err != nil {
		t.Fatal(err)
	}
	if err := dep.Migrate(ctx, "summarize", 0, "helper"); err == nil {
		t.Error("migration to a full node succeeded")
	}
	f.run(t, nil)
}

// TestPlanApplySplit checks the decision/execution split: Plan is
// serializable and diffable, Apply materializes it, and an unapplied plan's
// reservations can be released.
func TestPlanApplySplit(t *testing.T) {
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
	if len(plan.Assignments) != 5 || len(plan.Wires) != 4 {
		t.Fatalf("plan has %d assignments, %d wires", len(plan.Assignments), len(plan.Wires))
	}
	for i := 0; i < 4; i++ {
		want := "src-" + string(rune('1'+i))
		if node, _ := plan.NodeFor("producer", i); node != want {
			t.Errorf("producer/%d planned on %s, want %s", i, node, want)
		}
	}
	if node, _ := plan.NodeFor("merge", 0); node != "central" {
		t.Errorf("merge planned on %v, want central", node)
	}

	// Serializable: the plan survives a JSON round trip.
	raw, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	var restored Plan
	if err := json.Unmarshal(raw, &restored); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&restored, plan) {
		t.Errorf("plan changed across JSON round trip:\n%+v\n%+v", restored, plan)
	}

	// Diffable: against a re-homed copy, exactly the changed instance moves.
	moved := restored
	moved.Assignments = append([]Assignment(nil), plan.Assignments...)
	for i := range moved.Assignments {
		if moved.Assignments[i].StageID == "merge" {
			moved.Assignments[i].Node = "src-1"
		}
	}
	diff := plan.Diff(&moved)
	if len(diff) != 1 || diff[0].StageID != "merge" || diff[0].From != "central" || diff[0].To != "src-1" {
		t.Errorf("diff %+v", diff)
	}

	// Apply executes the reserved plan; the deployment runs end to end.
	deployment, err := dep.Apply(cfg, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := deployment.Engine.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if counter.count() != 100 {
		t.Errorf("merge received %d packets, want 100", counter.count())
	}

	// A second plan of the same app must fail while reservations are held
	// (the source nodes have a single slot each), and succeed once released.
	if _, err := dep.Plan(cfg); err == nil {
		t.Error("re-planning over held reservations succeeded")
	}
	dep.Planner().Release(plan)
	plan2, err := dep.Plan(cfg)
	if err != nil {
		t.Fatalf("re-plan after release: %v", err)
	}
	dep.Planner().Release(plan2)
}
