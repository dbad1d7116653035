package service

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/apps/countsamps"
	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/pipeline"
	"github.com/gates-middleware/gates/internal/policy"
	"github.com/gates-middleware/gates/internal/workload"
)

// TestFaultSchedulerApply drives each of Apply's six branches on a fresh
// network: the netsim state must show the injection, and the journal must
// hold exactly one fault event citing the schedule's policy version.
func TestFaultSchedulerApply(t *testing.T) {
	cases := []struct {
		name  string
		setup func(n *netsim.Network)
		inj   policy.FaultInjection
		check func(n *netsim.Network) bool
		node  string
	}{
		{
			name:  "kill",
			inj:   policy.FaultInjection{Name: "k", Kill: "a"},
			check: func(n *netsim.Network) bool { return !n.Alive("a") && n.Alive("b") },
			node:  "a",
		},
		{
			name:  "heal",
			setup: func(n *netsim.Network) { n.Kill("a") },
			inj:   policy.FaultInjection{Name: "h", Heal: "a"},
			check: func(n *netsim.Network) bool { return n.Alive("a") },
			node:  "a",
		},
		{
			name:  "partition",
			inj:   policy.FaultInjection{Name: "p", Partition: true, From: "a", To: "b"},
			check: func(n *netsim.Network) bool { return n.Partitioned("a", "b") && n.Alive("a") },
		},
		{
			name:  "heal-partition",
			setup: func(n *netsim.Network) { n.Partition("a", "b") },
			inj:   policy.FaultInjection{Name: "hp", HealPartition: true, From: "a", To: "b"},
			check: func(n *netsim.Network) bool { return !n.Partitioned("a", "b") },
		},
		{
			name:  "loss-reorder",
			inj:   policy.FaultInjection{Name: "lr", From: "a", To: "b", Loss: 0.5, Reorder: 0.25, Seed: 3},
			check: func(n *netsim.Network) bool { return n.Link("a", "b").Faulty() && !n.Link("b", "a").Faulty() },
		},
		{
			name:  "clear",
			setup: func(n *netsim.Network) { n.InjectFaults("a", "b", netsim.FaultConfig{Seed: 1, Loss: 0.5}) },
			inj:   policy.FaultInjection{Name: "c", From: "a", To: "b"},
			check: func(n *netsim.Network) bool { return !n.Link("a", "b").Faulty() },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := clock.NewManual()
			net := netsim.NewNetwork(clk)
			if tc.setup != nil {
				tc.setup(net)
			}
			o := obs.New(clk, obs.Config{})
			f, err := NewFaultScheduler(clk, net, nil, o)
			if err != nil {
				t.Fatal(err)
			}
			f.version = "sched-v1"
			f.Apply(tc.inj)
			if !tc.check(net) {
				t.Errorf("network state does not show %+v", tc.inj)
			}
			evs := o.Journal.Events(obs.EventFilter{Kind: obs.EventFault})
			if len(evs) != 1 {
				t.Fatalf("fault events %+v, want exactly 1", evs)
			}
			if ev := evs[0]; ev.PolicyVersion != "sched-v1" || ev.Node != tc.node || !strings.HasPrefix(ev.Detail, tc.inj.Name+": ") {
				t.Errorf("fault event %+v, want version sched-v1, node %q, detail naming %q", ev, tc.node, tc.inj.Name)
			}
		})
	}
}

// TestFaultSchedulerStartInAtOrder hands Start a schedule out of order and
// steps the manual clock through it: each injection fires at its own offset,
// in At order, and not before.
func TestFaultSchedulerStartInAtOrder(t *testing.T) {
	clk := clock.NewManual()
	net := netsim.NewNetwork(clk)
	killed := make(chan string, 3)
	net.OnLiveness(func(node string, alive bool) {
		if !alive {
			killed <- node
		}
	})
	o := obs.New(clk, obs.Config{})
	f, err := NewFaultScheduler(clk, net, []policy.FaultInjection{
		{Name: "third", At: policy.Duration(3 * time.Second), Kill: "c"},
		{Name: "first", At: policy.Duration(time.Second), Kill: "a"},
		{Name: "second", At: policy.Duration(2 * time.Second), Kill: "b"},
	}, o)
	if err != nil {
		t.Fatal(err)
	}
	f.Start(context.Background())
	defer f.Stop()
	for i, want := range []string{"a", "b", "c"} {
		awaitWaiters(clk, 1)
		clk.AdvanceTo(clock.Epoch.Add(time.Duration(i+1) * time.Second))
		if got := <-killed; got != want {
			t.Fatalf("at %ds killed %s, want %s", i+1, got, want)
		}
		for _, later := range []string{"a", "b", "c"}[i+1:] {
			if !net.Alive(later) {
				t.Fatalf("%s killed before its offset (now %ds)", later, i+1)
			}
		}
	}
	f.Stop() // the last injection's journal event follows its kill
	var order []string
	for _, ev := range o.Journal.Events(obs.EventFilter{Kind: obs.EventFault}) {
		order = append(order, ev.Node)
	}
	if !reflect.DeepEqual(order, []string{"a", "b", "c"}) {
		t.Errorf("journal fault order %v, want [a b c]", order)
	}
}

// armedSource is chaosSource for a launch whose fault plane runs on its own
// schedule: at each gate it also serves a pending pause (a checkpoint round,
// a recovery) at a drain boundary, and it reports every pause it served at
// the tail gate on resumed.
type armedSource struct {
	values  []int
	mid     chan struct{} // closed after half the items are emitted
	goOn    chan struct{} // releases the mid gate
	tail    chan struct{} // closed once every item is emitted
	finish  chan struct{} // releases the end gate; Run then returns
	resumed chan struct{} // one token per pause served at the end gate
}

func newArmedSource(items int) *armedSource {
	values := make([]int, items)
	for i := range values {
		values[i] = (i * 7) % 100
	}
	return &armedSource{
		values: values,
		mid:    make(chan struct{}), goOn: make(chan struct{}),
		tail: make(chan struct{}), finish: make(chan struct{}),
		resumed: make(chan struct{}, 8), // roomy: a pause must never wait on the test
	}
}

func (s *armedSource) Run(ctx *pipeline.Context, out *pipeline.Emitter) error {
	half := len(s.values) / 2
	for i, v := range s.values {
		if i == half {
			close(s.mid)
			if err := s.gate(ctx, s.goOn, nil); err != nil {
				return err
			}
		}
		if err := out.Emit(&pipeline.Packet{Value: []int{v}, Items: 1, WireSize: 8}); err != nil {
			return err
		}
	}
	close(s.tail)
	return s.gate(ctx, s.finish, s.resumed)
}

// gate blocks until open closes, parking at a drain boundary for every
// pause requested meantime and reporting each one on served (when set).
func (s *armedSource) gate(ctx *pipeline.Context, open <-chan struct{}, served chan<- struct{}) error {
	for {
		select {
		case <-open:
			return nil
		case <-ctx.Done():
			return ctx.Ctx().Err()
		case <-ctx.PauseRequested():
			if err := ctx.PauseBoundary(); err != nil {
				return err
			}
			if served != nil {
				served <- struct{}{}
			}
		}
	}
}

// awaitWaiters yields until n goroutines sleep on clk — the manual clock's
// rendezvous before an advance.
func awaitWaiters(clk *clock.Manual, n int) {
	for clk.Waiters() < n {
		runtime.Gosched()
	}
}

// loopDone returns the done channel of a running control loop.
func loopDone(mu *sync.Mutex, done *chan struct{}) <-chan struct{} {
	mu.Lock()
	defer mu.Unlock()
	return *done
}

// armedLaunch is one launch of the chaos pipeline through the Launcher,
// with a policy engine attached and no fault-plane wiring by hand.
type armedLaunch struct {
	app    *Application
	src    *armedSource
	clk    *clock.Manual
	o      *obs.Observability
	merger *countsamps.SummaryMerger
	victim string      // the node summarize was planned on
	killed chan string // every node the network kills
}

// launchArmed loads doc(victim) into the policy engine before launching,
// victim being the node the planner puts summarize on; a nil doc keeps the
// default document.
func launchArmed(t *testing.T, items int, doc func(victim string) policy.Document) *armedLaunch {
	t.Helper()
	clk := clock.NewManual()
	src := newArmedSource(items)
	dep, net, merger := newChaosDeployer(t, clk, src)
	o := obs.New(clk, obs.Config{})
	dep.SetObservability(o)
	pol := policy.New(clk, o)
	dep.SetPolicy(pol)
	plan, err := dep.Plan(chaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	dep.Planner().Release(plan)
	// killed has room for every node the topology can lose, so Kill never
	// blocks on the test.
	a := &armedLaunch{src: src, clk: clk, o: o, merger: merger, killed: make(chan string, 5)}
	net.OnLiveness(func(node string, alive bool) {
		if !alive {
			a.killed <- node
		}
	})
	for _, as := range plan.Assignments {
		if as.StageID == "summarize" {
			a.victim = as.Node
		}
	}
	if doc != nil {
		if err := pol.Load(doc(a.victim), "test"); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLauncher(dep)
	if err != nil {
		t.Fatal(err)
	}
	if a.app, err = l.LaunchConfig(context.Background(), chaosConfig(), chaosTuning); err != nil {
		t.Fatal(err)
	}
	if node, _ := a.app.NodeFor("summarize", 0); node != a.victim {
		t.Fatalf("summarize launched on %s, planned on %s", node, a.victim)
	}
	return a
}

// TestFaultPlaneArmedByPolicy launches the chaos pipeline through the
// Launcher with a policy engine attached. The default document arms
// nothing. A document that enables faults and scripts one kill of the node
// under summarize makes the Launcher checkpoint, detect, recover and replay
// on its own, all on the manual clock, and the answer matches the
// fault-free run's.
func TestFaultPlaneArmedByPolicy(t *testing.T) {
	const items = 2000
	var baseline []workload.ValueCount

	t.Run("default-document", func(t *testing.T) {
		a := launchArmed(t, items, nil)
		if a.app.faults != (faultPlane{}) {
			t.Fatalf("default document armed %+v", a.app.faults)
		}
		<-a.src.mid
		close(a.src.goOn)
		<-a.src.tail
		close(a.src.finish)
		if err := a.app.Wait(); err != nil {
			t.Fatal(err)
		}
		// No checkpointer, detector or scheduler: nothing ever slept on the
		// clock, and nothing of theirs reached the journal.
		if n := a.clk.Waiters(); n != 0 {
			t.Errorf("%d goroutines sleep on the clock after the run", n)
		}
		for _, kind := range []obs.EventKind{obs.EventCheckpoint, obs.EventRecovery, obs.EventFault} {
			if evs := a.o.Journal.Events(obs.EventFilter{Kind: kind}); len(evs) != 0 {
				t.Errorf("default document journaled %s events %+v", kind, evs)
			}
		}
		baseline = a.merger.TopK(10)
	})

	t.Run("kill-recover", func(t *testing.T) {
		const version = "armed-v1"
		a := launchArmed(t, items, func(victim string) policy.Document {
			return policy.Document{
				Version: version,
				Faults: policy.FaultPolicy{
					Enabled:            true,
					CheckpointInterval: policy.Duration(time.Hour), // the epoch-0 round only
					HealthEvery:        policy.Duration(time.Second),
					DeadAfter:          1,
					Injections: []policy.FaultInjection{
						{Name: "lose-summarize", At: policy.Duration(500 * time.Millisecond), Kill: victim},
					},
				},
			}
		})
		p := a.app.faults
		if p.ck == nil || p.rec == nil || p.sched == nil {
			t.Fatalf("faults document armed %+v, want checkpointer, detector and scheduler", p)
		}
		loops := []<-chan struct{}{
			loopDone(&p.ck.mu, &p.ck.done),
			loopDone(&p.rec.mu, &p.rec.done),
			loopDone(&p.sched.mu, &p.sched.done),
		}

		// At the mid gate, the epoch-0 checkpoint round has finished once
		// all three loops sleep: the checkpointer for an hour, the detector
		// until 1 s, the scheduler until its 500 ms kill.
		<-a.src.mid
		awaitWaiters(a.clk, 3)
		a.clk.AdvanceTo(clock.Epoch.Add(500 * time.Millisecond))
		if node := <-a.killed; node != a.victim {
			t.Fatalf("the schedule killed %s, want %s", node, a.victim)
		}
		// The second half runs into the severed links.
		close(a.src.goOn)
		<-a.src.tail
		// One health epoch declares the node dead (dead_after 1); recovery
		// pauses the parked source to replay its ring into summarize.
		a.clk.AdvanceTo(clock.Epoch.Add(time.Second))
		<-a.src.resumed
		close(a.src.finish)
		if err := a.app.Wait(); err != nil {
			t.Fatal(err)
		}
		for i, done := range loops {
			select {
			case <-done:
			default:
				t.Errorf("fault-plane loop %d still running after Wait", i)
			}
		}

		faults := a.o.Journal.Events(obs.EventFilter{Kind: obs.EventFault})
		if len(faults) != 1 || faults[0].Node != a.victim || faults[0].PolicyVersion != version {
			t.Errorf("fault events %+v, want one kill of %s citing %s", faults, a.victim, version)
		}
		recs := a.o.Journal.Events(obs.EventFilter{Kind: obs.EventRecovery})
		if len(recs) != 1 || recs[0].Stage != "summarize" || recs[0].PolicyVersion != version {
			t.Fatalf("recovery events %+v, want one of summarize citing %s", recs, version)
		}
		if rec := recs[0].Payload.(obs.Recovery); rec.From != a.victim || rec.To == a.victim || rec.Gap {
			t.Errorf("recovery %+v, want %s → another node with no gap", rec, a.victim)
		}
		if evs := a.o.Journal.Events(obs.EventFilter{Kind: obs.EventCheckpoint}); len(evs) == 0 {
			t.Error("no checkpoint round journaled")
		}

		// Full sink coverage: central's watermark for summarize reaches
		// summarize's last data emission (its final one is the marker).
		summarize, _ := a.app.Stage("summarize", 0)
		central, _ := a.app.Stage("central", 0)
		var next uint64
		for _, m := range central.Marks() {
			if m.Stage == "summarize" {
				next = m.Next
			}
		}
		if hi := summarize.EmitSeq() - 1; next == 0 || next != hi {
			t.Errorf("central's watermark for summarize %d, want its %d data emissions", next, hi)
		}
		if topk := a.merger.TopK(10); !reflect.DeepEqual(topk, baseline) {
			t.Errorf("top-10 after recovery %v differs from the fault-free %v", topk, baseline)
		}
	})
}
