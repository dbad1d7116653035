package service

import (
	"context"
	"reflect"
	"runtime"
	"sync"
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

// chaosSource emits a fixed stream with two control points: it parks at the
// halfway mark (mid/goOn) like gatedSource, and again after the last item but
// before returning (tail/finish) — so a test controls exactly when the final
// marker enters the pipeline. That second gate is what makes node-kill
// choreography deterministic: the stream's end-of-run races nothing.
type chaosSource struct {
	values []int
	mid    chan struct{} // closed after half the items are emitted
	goOn   chan struct{} // releases the mid gate
	tail   chan struct{} // closed once every item is emitted
	finish chan struct{} // releases the end gate; Run then returns (final marker)
}

func (c *chaosSource) Run(_ *pipeline.Context, out *pipeline.Emitter) error {
	half := len(c.values) / 2
	for i, v := range c.values {
		if i == half {
			close(c.mid)
			<-c.goOn
		}
		if err := out.Emit(&pipeline.Packet{Value: []int{v}, Items: 1, WireSize: 8}); err != nil {
			return err
		}
	}
	close(c.tail)
	<-c.finish
	return nil
}

// chaosFixture is a deployed count-samps pipeline with the fault plane armed:
// replay rings on every edge, a checkpoint store, and a recovery controller.
// Sites pin each stage to a two-node pool (edge for summarize, core for
// central), so killing a stage's node always leaves exactly one live
// destination for recovery to choose.
type chaosFixture struct {
	app    *Application
	o      *obs.Observability
	clk    *clock.Manual
	net    *netsim.Network
	src    *chaosSource
	merger *countsamps.SummaryMerger
	store  *CheckpointStore
	ck     *Checkpointer
	rec    *Recovery
	items  int
}

func newChaosFixture(t *testing.T, items int, source pipeline.Source) *chaosFixture {
	t.Helper()
	clk := clock.NewManual()
	dir := grid.NewDirectory()
	for _, n := range []grid.Node{
		{Name: "src-1", CPUPower: 1, MemoryMB: 512, Slots: 2, Sources: []string{"stream-1"}},
		{Name: "edge-1", CPUPower: 1, MemoryMB: 512, Slots: 2, Site: "edge"},
		{Name: "edge-2", CPUPower: 1, MemoryMB: 512, Slots: 2, Site: "edge"},
		{Name: "core-1", CPUPower: 4, MemoryMB: 4096, Slots: 2, Site: "core"},
		{Name: "core-2", CPUPower: 4, MemoryMB: 4096, Slots: 2, Site: "core"},
	} {
		if err := dir.Register(n); err != nil {
			t.Fatal(err)
		}
	}
	net := netsim.NewNetwork(clk) // unlimited links: transfers never sleep

	merger := &countsamps.SummaryMerger{}
	repo := NewRepository()
	if err := repo.RegisterSource("test/chaos", func(int) pipeline.Source { return source }); err != nil {
		t.Fatal(err)
	}
	if err := repo.RegisterProcessor("test/summarize", func(int) pipeline.Processor {
		return countsamps.NewSummarizer(countsamps.SummarizerConfig{
			FlushEvery: 250,
			Adaptive:   true,
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
	dep.SetReplayBuffer(4096)
	launcher, err := NewLauncher(dep)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &AppConfig{
		Name: "chaos-test",
		Stages: []StageDef{
			{ID: "stream", Code: "test/chaos", Source: true, NearSources: []string{"stream-1"}},
			{ID: "summarize", Code: "test/summarize", Requirement: ReqDef{Site: "edge"}},
			{ID: "central", Code: "test/merge", Requirement: ReqDef{MinCPU: 2, Site: "core"}},
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
	store := NewCheckpointStore()
	ck, err := NewCheckpointer(app.Deployment, store, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecovery(app.Deployment, store, 500*time.Millisecond, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := &chaosFixture{
		app: app, o: o, clk: clk, net: net, merger: merger,
		store: store, ck: ck, rec: rec, items: items,
	}
	if cs, ok := source.(*chaosSource); ok {
		f.src = cs
	}
	return f
}

func newGatedChaosFixture(t *testing.T, items int) *chaosFixture {
	t.Helper()
	values := make([]int, items)
	for i := range values {
		values[i] = (i * 7) % 100
	}
	return newChaosFixture(t, items, &chaosSource{
		values: values,
		mid:    make(chan struct{}),
		goOn:   make(chan struct{}),
		tail:   make(chan struct{}),
		finish: make(chan struct{}),
	})
}

func (f *chaosFixture) stage(t *testing.T, id string) *pipeline.Stage {
	t.Helper()
	st, ok := f.app.Deployment.Stage(id, 0)
	if !ok {
		t.Fatalf("stage %s/0 not deployed", id)
	}
	return st
}

// waitUntil polls a monotone condition with a wall-clock deadline; the
// condition only ever flips false→true, so polling cannot miss it.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
		time.Sleep(100 * time.Microsecond)
	}
}

// chaosBaseline runs the gated fixture fault-free and returns the merger's
// final top-10 — the answer every kill/recover variant must reproduce.
func chaosBaseline(t *testing.T, items int) []workload.ValueCount {
	t.Helper()
	f := newGatedChaosFixture(t, items)
	<-f.src.mid
	close(f.src.goOn)
	<-f.src.tail
	close(f.src.finish)
	if err := f.app.Wait(); err != nil {
		t.Fatal(err)
	}
	return f.merger.TopK(10)
}

// TestChaosKillRecoverZeroLoss is the deterministic kill matrix: each case
// kills the node under one stage mid-stream, recovers it, and requires the
// sink's answer to be bit-identical to the fault-free baseline — the
// replayed sequence interval exactly covers what the black-holed links
// swallowed, and watermark dedupe absorbs the overlap.
//
// The choreography is identical for every case. At the halfway gate the
// pipeline quiesces (summarize has consumed 1000 items and emitted summaries
// 0-3; central has consumed them), both stateful stages checkpoint, and the
// victim's node dies. Releasing the mid gate then drives the second half of
// the stream into the fault: emissions toward the dead node are recorded in
// the per-edge replay rings and dropped at the severed links. Once the
// source parks at the tail gate the damage is complete and fully
// deterministic, so recovery's replay/heal counts can be asserted exactly.
func TestChaosKillRecoverZeroLoss(t *testing.T) {
	const items = 2000
	baseline := chaosBaseline(t, items)

	cases := []struct {
		name  string
		stage string // the stage whose node is killed
		// quiesce runs after the source parks at the tail gate, before
		// recovery starts — it waits out any traffic that still flows on
		// live links so the swallowed interval is exact.
		quiesce func(t *testing.T, f *chaosFixture)
		// wantReplayed is the exact packet count recovery re-injects:
		// input replay for a crashed consumer, output heal for a crashed
		// emitter.
		wantReplayed int
		wantRestored bool // checkpoint state restored (Snapshotter only)
	}{
		{
			// The summarizer is a Snapshotter: recovery rewinds its sketch,
			// cursor, and watermarks to the item-1000 checkpoint, then
			// replays items [1000,2000) from the source's ring. Re-emitted
			// summaries 4-7 carry the same sequence numbers the originals
			// would have — effectively-once end to end.
			name:         "summarize-snapshotter-restore",
			stage:        "summarize",
			wantReplayed: 1000,
			wantRestored: true,
		},
		{
			// The merger has no Snapshotter: its zombie state (summaries
			// 0-3 already merged, watermark at 4) survives in place, so
			// recovery replays only the black-holed summaries [4,8) —
			// at-least-once, deduped to exactly-once by the watermark.
			name:  "central-zombie-at-least-once",
			stage: "central",
			quiesce: func(t *testing.T, f *chaosFixture) {
				sum := f.stage(t, "summarize")
				waitUntil(t, "summarize to flush the second half", func() bool {
					return sum.Stats().PacketsOut >= 8
				})
			},
			wantReplayed: 4,
			wantRestored: false,
		},
		{
			// The source has no upstreams at all: recovery is pure output
			// heal — its own ring replays the 1000 emissions the severed
			// link swallowed, anchored at the summarizer's watermark.
			name:         "stream-source-output-heal",
			stage:        "stream",
			wantReplayed: 1000,
			wantRestored: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newGatedChaosFixture(t, items)
			dep := f.app.Deployment
			stream := f.stage(t, "stream")
			summarize := f.stage(t, "summarize")
			central := f.stage(t, "central")

			<-f.src.mid
			waitUntil(t, "first half to quiesce", func() bool {
				return summarize.Stats().ItemsIn == uint64(items/2) &&
					central.Stats().PacketsIn == 4
			})
			ctx := context.Background()
			if err := f.ck.CheckpointInstance(ctx, summarize); err != nil {
				t.Fatal(err)
			}
			if err := f.ck.CheckpointInstance(ctx, central); err != nil {
				t.Fatal(err)
			}

			victim, ok := dep.NodeFor(tc.stage, 0)
			if !ok {
				t.Fatalf("no placement for %s/0", tc.stage)
			}
			f.net.Kill(victim)
			close(f.src.goOn)
			<-f.src.tail
			if tc.quiesce != nil {
				tc.quiesce(t, f)
			}

			recDone := make(chan error, 1)
			go func() { recDone <- f.rec.RecoverNode(ctx, victim) }()
			// Recovery may need to pause the parked source (its own node
			// died, or it is the crashed stage's upstream); the pause
			// request is visible as the draining state, and the source
			// acknowledges it inside its final-marker emission. When the
			// source is not involved, recovery completes on its own.
			waitUntil(t, "recovery to engage", func() bool {
				if stream.State() == pipeline.StateDraining {
					return true
				}
				select {
				case err := <-recDone:
					recDone <- err
					return true
				default:
					return false
				}
			})
			close(f.src.finish)
			if err := <-recDone; err != nil {
				t.Fatalf("recover %s: %v", victim, err)
			}
			if err := f.app.Wait(); err != nil {
				t.Fatal(err)
			}

			// Zero loss after replay: the answer is bit-identical to the
			// fault-free run, every item reached the summarizer exactly
			// once, and nothing was deduped away at the sink.
			if topk := f.merger.TopK(10); !reflect.DeepEqual(topk, baseline) {
				t.Errorf("top-10 after recovery %v differs from baseline %v", topk, baseline)
			}
			if got := summarize.Stats().ItemsIn; got != uint64(items) {
				t.Errorf("summarize consumed %d items, want %d", got, items)
			}
			// 8 cadence flushes plus the summarizer's Finish flush.
			if got := central.Stats().PacketsIn; got != 9 {
				t.Errorf("central consumed %d summaries, want 9", got)
			}
			if got := central.Stats().DupsDropped; got != 0 {
				t.Errorf("central dropped %d dups, want 0", got)
			}
			if got := f.merger.Sources(); got != 1 {
				t.Errorf("merger saw %d sources, want 1", got)
			}

			// The recovery event records the exact repair.
			evs := f.rec.Events()
			if len(evs) != 1 {
				t.Fatalf("recovery events %+v, want exactly 1", evs)
			}
			ev := evs[0]
			if ev.Stage != tc.stage || ev.Node != victim || ev.Err != "" {
				t.Errorf("recovery event %+v", ev)
			}
			if ev.To == victim || ev.To == "" {
				t.Errorf("recovered onto %q, want a different live node", ev.To)
			}
			if ev.Replayed != tc.wantReplayed {
				t.Errorf("replayed %d packets, want %d", ev.Replayed, tc.wantReplayed)
			}
			if ev.Restored != tc.wantRestored {
				t.Errorf("restored=%t, want %t", ev.Restored, tc.wantRestored)
			}
			if ev.Gap {
				t.Error("recovery reported a replay gap; rings should cover the interval")
			}
			if node, _ := dep.NodeFor(tc.stage, 0); node != ev.To {
				t.Errorf("placement index %s, want %s", node, ev.To)
			}

			// The journal carries the recovery once, with the numbers the
			// controller returned, and as no migration.
			recs := f.o.Journal.Events(obs.EventFilter{Kind: obs.EventRecovery})
			if len(recs) != 1 || recs[0].Stage != tc.stage {
				t.Fatalf("recovery events %+v, want exactly 1 for %s", recs, tc.stage)
			}
			rec := recs[0].Payload.(obs.Recovery)
			if rec.From != victim || rec.To != ev.To || rec.Replayed != ev.Replayed ||
				rec.Restored != ev.Restored || rec.Duration != ev.Duration {
				t.Errorf("recovery payload %+v, controller event %+v", rec, ev)
			}
			if migs := f.o.Journal.Events(obs.EventFilter{Kind: obs.EventMigration}); len(migs) != 0 {
				t.Errorf("recovery also journaled as migrations: %+v", migs)
			}
		})
	}
}

// TestChaosSnapshotterRestoreBitIdentical pins the checkpoint round trip
// itself: the summarizer's restored sketch must serialize back to exactly
// the bytes that were captured — restore is bit-identical, not merely
// equivalent.
func TestChaosSnapshotterRestoreBitIdentical(t *testing.T) {
	f := newGatedChaosFixture(t, 2000)
	summarize := f.stage(t, "summarize")
	<-f.src.mid
	waitUntil(t, "summarize to drain the first half", func() bool {
		return summarize.Stats().ItemsIn == 1000
	})
	ctx := context.Background()
	if err := f.ck.CheckpointInstance(ctx, summarize); err != nil {
		t.Fatal(err)
	}
	cp, ok := f.store.Latest("summarize", 0)
	if !ok || !cp.HasState {
		t.Fatalf("no stateful checkpoint captured (ok=%t)", ok)
	}
	if cp.EmitSeq != 4 {
		t.Errorf("checkpoint cursor %d, want 4 summaries", cp.EmitSeq)
	}

	snap, has := summarize.Snapshotter()
	if !has {
		t.Fatal("summarizer is not a Snapshotter")
	}
	if err := summarize.Pause(ctx); err != nil {
		t.Fatal(err)
	}
	if err := snap.Restore(cp.State); err != nil {
		t.Fatal(err)
	}
	again, err := snap.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := summarize.Resume(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, cp.State) {
		t.Errorf("snapshot after restore differs: %d bytes vs %d captured", len(again), len(cp.State))
	}

	close(f.src.goOn)
	<-f.src.tail
	close(f.src.finish)
	if err := f.app.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestHealthMonitorTicks drives the failure detector's epoch logic directly:
// a node must miss deadAfter consecutive epochs to be declared dead, the
// declaration fires exactly once, and healing rearms it.
func TestHealthMonitorTicks(t *testing.T) {
	f := newGatedChaosFixture(t, 2000)
	node, ok := f.app.Deployment.NodeFor("summarize", 0)
	if !ok {
		t.Fatal("no placement for summarize/0")
	}

	if dead := f.rec.tick(); len(dead) != 0 {
		t.Errorf("healthy cluster declared dead: %v", dead)
	}
	f.net.Kill(node)
	for epoch := 1; epoch < 3; epoch++ {
		if dead := f.rec.tick(); len(dead) != 0 {
			t.Errorf("epoch %d: declared dead %v before deadAfter", epoch, dead)
		}
	}
	if dead := f.rec.tick(); len(dead) != 1 || dead[0] != node {
		t.Errorf("epoch 3: declared dead %v, want [%s]", dead, node)
	}
	if dead := f.rec.tick(); len(dead) != 0 {
		t.Errorf("re-declared an already-recovered node: %v", dead)
	}
	f.net.Heal(node)
	if dead := f.rec.tick(); len(dead) != 0 {
		t.Errorf("healed node declared dead: %v", dead)
	}
	f.net.Kill(node)
	for epoch := 1; epoch < 3; epoch++ {
		f.rec.tick()
	}
	if dead := f.rec.tick(); len(dead) != 1 || dead[0] != node {
		t.Errorf("second failure not re-declared: %v", dead)
	}
	f.net.Heal(node)

	<-f.src.mid
	close(f.src.goOn)
	<-f.src.tail
	close(f.src.finish)
	if err := f.app.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestHealthMonitorDrivesRecovery runs the full detection loop on the manual
// clock: kill the summarizer's node, advance virtual time through the health
// epochs, and let the monitor — not the test — trigger the recovery.
func TestHealthMonitorDrivesRecovery(t *testing.T) {
	const items = 2000
	baseline := chaosBaseline(t, items)
	f := newGatedChaosFixture(t, items)
	stream := f.stage(t, "stream")
	summarize := f.stage(t, "summarize")

	<-f.src.mid
	waitUntil(t, "first half to quiesce", func() bool {
		return summarize.Stats().ItemsIn == uint64(items/2)
	})
	ctx := context.Background()
	if err := f.ck.CheckpointInstance(ctx, summarize); err != nil {
		t.Fatal(err)
	}
	victim, _ := f.app.Deployment.NodeFor("summarize", 0)
	f.net.Kill(victim)
	close(f.src.goOn)
	<-f.src.tail

	f.rec.Start(ctx)
	defer f.rec.Stop()
	// Each advance fires at most one health epoch; after deadAfter epochs
	// the monitor declares the node dead and its recovery pauses the parked
	// source (visible as draining). Extra advances are harmless no-ops.
	waitUntil(t, "monitor to declare the node dead", func() bool {
		f.clk.Advance(500 * time.Millisecond)
		return stream.State() == pipeline.StateDraining
	})
	close(f.src.finish)
	waitUntil(t, "monitor-driven recovery to complete", func() bool {
		return len(f.rec.Events()) == 1
	})
	if err := f.app.Wait(); err != nil {
		t.Fatal(err)
	}
	ev := f.rec.Events()[0]
	if ev.Err != "" || ev.Stage != "summarize" || !ev.Restored || ev.Gap {
		t.Errorf("recovery event %+v", ev)
	}
	if topk := f.merger.TopK(10); !reflect.DeepEqual(topk, baseline) {
		t.Errorf("top-10 after monitor recovery %v differs from baseline %v", topk, baseline)
	}
}

// plainSource emits its values without gates — fuel for the hammer test.
type plainSource struct{ values []int }

func (p *plainSource) Run(_ *pipeline.Context, out *pipeline.Emitter) error {
	for _, v := range p.values {
		if err := out.Emit(&pipeline.Packet{Value: []int{v}, Items: 1, WireSize: 8}); err != nil {
			return err
		}
	}
	return nil
}

// TestChaosHammerRace runs fault injection, kill/recover cycles, checkpoint
// rounds, and migrations concurrently against a live pipeline under the race
// detector. It asserts liveness and termination, not results: kills without
// a surviving replay window may legitimately lose data, but nothing may
// deadlock, race, or wedge the final markers.
func TestChaosHammerRace(t *testing.T) {
	const items = 8000
	values := make([]int, items)
	for i := range values {
		values[i] = (i * 13) % 100
	}
	f := newChaosFixture(t, items, &plainSource{values: values})
	dep := f.app.Deployment
	central := f.stage(t, "central")
	ctx := context.Background()

	// Let the pipeline establish itself before the first kill, so the
	// sink provably consumed real traffic even if a late kill window
	// swallows the tail of the stream.
	waitUntil(t, "first summary at the sink", func() bool {
		return central.Stats().PacketsIn > 0
	})

	done := make(chan struct{})
	var wg sync.WaitGroup
	hammer := func(iters int, body func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				select {
				case <-done:
					return
				default:
					body(i)
				}
			}
		}()
	}
	// Checkpoint rounds: constant pause/capture/resume pressure.
	hammer(60, func(int) { f.ck.CheckpointAll(ctx) })
	// Migrations: bounce the summarizer between its two edge nodes;
	// contention with a concurrent pause or a full node is expected.
	targets := []string{"edge-1", "edge-2"}
	hammer(60, func(i int) { _ = dep.Migrate(ctx, "summarize", 0, targets[i%2]) })
	// Kill/recover cycles against whichever node hosts the summarizer.
	hammer(40, func(int) {
		node, ok := dep.NodeFor("summarize", 0)
		if !ok {
			return
		}
		f.net.Kill(node)
		_ = f.rec.RecoverNode(ctx, node)
		f.net.Heal(node)
	})
	// Link-level chaos on the source's uplink: loss and reorder flap on
	// and off with fresh deterministic seeds.
	hammer(60, func(i int) {
		seed := int64(2*i + 1)
		f.net.InjectFaults("src-1", "edge-1", netsim.FaultConfig{Seed: seed, Loss: 0.2, Reorder: 0.2, Depth: 2})
		f.net.InjectFaults("src-1", "edge-2", netsim.FaultConfig{Seed: seed + 1, Loss: 0.2, Reorder: 0.2, Depth: 2})
		f.net.InjectFaults("src-1", "edge-1", netsim.FaultConfig{})
		f.net.InjectFaults("src-1", "edge-2", netsim.FaultConfig{})
	})

	err := f.app.Wait()
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatalf("pipeline did not terminate cleanly under chaos: %v", err)
	}
	if got := central.Stats().PacketsIn; got == 0 {
		t.Error("sink consumed nothing under chaos")
	}
}
