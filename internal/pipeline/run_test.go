package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/obs"
)

// The tests in this file pin the visibility contract of per-run bookkeeping
// (Stage.publishLocal, StageStats godoc): counters and latency histograms
// are exact whenever the stage goroutine is blocked inside the middleware,
// Paused or stopped, and the run's shared clock read never spans a moment
// where virtual time moves.

// eventually polls cond until it holds. Used only where the awaited state is
// reached by a goroutine blocking, which leaves no event to wait on; a
// contract violation shows as the timeout, not as a flake.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("never reached: %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// latencyState reads back a stage's hop or e2e histogram.
func latencyState(reg *obs.Registry, name string, st *Stage) (sum float64, count uint64) {
	sum, count, _ = reg.Histogram(name, "", obs.LatencyBuckets, st.ObsLabels()).State()
	return sum, count
}

// holdSource emits n ints, then waits — outside the middleware, like a
// network ingress waiting for frames — for release or for a pause request,
// which it honours at PauseBoundary.
type holdSource struct {
	n       int
	emitted chan struct{}
	release chan struct{}
}

func (s *holdSource) Run(ctx *Context, out *Emitter) error {
	for i := 0; i < s.n; i++ {
		if err := out.EmitValue(i, 8); err != nil {
			return err
		}
	}
	close(s.emitted)
	for {
		select {
		case <-s.release:
			return nil
		case <-ctx.PauseRequested():
			if err := ctx.PauseBoundary(); err != nil {
				return err
			}
		}
	}
}

// TestStatsExactAfterRun: once Engine.Run returns every stage's Stats() is
// the exact total, on both drain paths, observed or not, through an SPSC
// and a fan-in (MPSC) ring. The per-source count is deliberately not a
// multiple of the run length.
func TestStatsExactAfterRun(t *testing.T) {
	const perSource = 1003
	for _, batch := range []int{1, 16} {
		for _, observed := range []bool{false, true} {
			for _, sources := range []int{1, 2} {
				name := fmt.Sprintf("batch=%d/observed=%v/sources=%d", batch, observed, sources)
				t.Run(name, func(t *testing.T) {
					clk := clock.NewManual()
					eng := New(clk)
					eng.SetDefaultBatchSize(batch)
					var ob *obs.Observability
					if observed {
						ob = obs.New(clk, obs.Config{})
						eng.SetObservability(ob)
					}
					cfg := StageConfig{DisableAdaptation: true}
					relay, _ := eng.AddProcessorStage("relay", 0, forwardProc{}, cfg)
					sink, _ := eng.AddProcessorStage("sink", 0, &countSink{}, cfg)
					var srcs []*Stage
					for i := 0; i < sources; i++ {
						src, _ := eng.AddSourceStage("src", i, &hammerSource{instance: i, count: perSource}, cfg)
						if err := eng.Connect(src, relay, nil); err != nil {
							t.Fatal(err)
						}
						srcs = append(srcs, src)
					}
					if err := eng.Connect(relay, sink, nil); err != nil {
						t.Fatal(err)
					}
					if err := eng.Run(context.Background()); err != nil {
						t.Fatal(err)
					}
					total := uint64(perSource * sources)
					out := func(n uint64) StageStats {
						return StageStats{PacketsOut: n, ItemsOut: n, BytesOut: 16 * n}
					}
					// EmitStall is wall time, kept on observed engines only.
					stats := func(st *Stage) StageStats {
						got := st.Stats()
						got.EmitStall = 0
						return got
					}
					for _, src := range srcs {
						if got := stats(src); got != out(perSource) {
							t.Errorf("%s/%d stats %+v, want %+v", src.ID(), src.Instance(), got, out(perSource))
						}
					}
					want := out(total)
					want.PacketsIn, want.ItemsIn = total, total
					if got := stats(relay); got != want {
						t.Errorf("relay stats %+v, want %+v", got, want)
					}
					if got, want := stats(sink), (StageStats{PacketsIn: total, ItemsIn: total}); got != want {
						t.Errorf("sink stats %+v, want %+v", got, want)
					}
					if observed {
						for _, st := range []*Stage{relay, sink} {
							if _, n := latencyState(ob.Registry, obs.MetricHopLatency, st); n != total {
								t.Errorf("%s recorded %d hop latencies, want %d", st.ID(), n, total)
							}
						}
					}
				})
			}
		}
	}
}

// TestStatsExactWhileBlocked: a concurrent Stats() on a processor whose
// goroutine is blocked on a full downstream buffer, on an empty input, or
// parked by Pause is exact — not "within a run".
func TestStatsExactWhileBlocked(t *testing.T) {
	clk := clock.NewManual()
	eng := New(clk)
	cfg := StageConfig{DisableAdaptation: true}
	// src → relay → slow; slow's Process holds the first packet until
	// released, so its 4-slot input fills and relay blocks pushing.
	hold := make(chan struct{})
	src := &holdSource{n: 9, emitted: make(chan struct{}), release: make(chan struct{})}
	s, _ := eng.AddSourceStage("src", 0, src, cfg)
	relay, _ := eng.AddProcessorStage("relay", 0, forwardProc{}, cfg)
	slow, _ := eng.AddProcessorStage("slow", 0, &testProc{
		process: func(*Context, *Packet, *Emitter) error { <-hold; return nil },
	}, StageConfig{DisableAdaptation: true, QueueCapacity: 4})
	if err := eng.Connect(s, relay, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Connect(relay, slow, nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- eng.Run(context.Background()) }()

	// Full downstream: slow holds packet 0 in hand and 1–4 in its buffer;
	// relay took packet 5 and its push parks, so nothing moves any more.
	// relay publishes its stats before its push parks, so wait for the park
	// too: only then is it blocked.
	<-src.emitted
	eventually(t, "relay exact once blocked on slow's full input", func() bool {
		return relay.Stats() == StageStats{PacketsIn: 6, ItemsIn: 6, PacketsOut: 5, ItemsOut: 5, BytesOut: 40} &&
			slow.QueueStats().BlockedPushes > 0
	})
	if qs := slow.QueueStats(); qs.Pushed != 5 || qs.Popped != 1 {
		t.Fatalf("slow's input %+v, want 5 pushed, 1 popped and a parked push", qs)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Empty input: with slow released everything drains and both
	// processors end up parked on an empty ring.
	close(hold)
	want := StageStats{PacketsIn: 9, ItemsIn: 9, PacketsOut: 9, ItemsOut: 9, BytesOut: 72}
	eventually(t, "relay exact once blocked on its empty input", func() bool { return relay.Stats() == want })
	eventually(t, "slow exact once blocked on its empty input", func() bool {
		return slow.Stats() == StageStats{PacketsIn: 9, ItemsIn: 9}
	})

	// Paused, a processor: exact against the ring's own pop count.
	if err := slow.Pause(ctx); err != nil {
		t.Fatal(err)
	}
	if got := slow.Stats().PacketsIn; got != slow.QueueStats().Popped {
		t.Fatalf("paused processor: PacketsIn %d, its ring popped %d", got, slow.QueueStats().Popped)
	}
	if err := slow.Resume(); err != nil {
		t.Fatal(err)
	}
	close(src.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Batch 16: the emission that fills a batch flushes it, and a stage
	// blocked in that flush reads exact — a source, all 16 emissions; a relay
	// too, mid-batch, with the 16 packets it consumed to make them.
	sixteen := StageStats{PacketsOut: 16, ItemsOut: 16, BytesOut: 16 * 16}
	batched := StageConfig{DisableAdaptation: true, BatchSize: 16}
	for _, relayed := range []bool{false, true} {
		name := "batch=16/source, full downstream"
		if relayed {
			name = "batch=16/relay, full downstream"
		}
		t.Run(name, func(t *testing.T) {
			eng := New(clock.NewManual())
			hold := make(chan struct{})
			s, _ := eng.AddSourceStage("src", 0, &hammerSource{count: 16}, batched)
			slow, _ := eng.AddProcessorStage("slow", 0, &testProc{
				process: func(*Context, *Packet, *Emitter) error { <-hold; return nil },
			}, StageConfig{DisableAdaptation: true, QueueCapacity: 4})
			blocked, want := s, sixteen
			if relayed {
				// The source's flush lands in one ring publication, so the
				// relay drains all 16 as one batch.
				blocked, _ = eng.AddProcessorStage("relay", 0, forwardProc{}, batched)
				want.PacketsIn, want.ItemsIn = 16, 16
				if err := eng.Connect(s, blocked, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Connect(blocked, slow, nil); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- eng.Run(context.Background()) }()
			eventually(t, "parked on slow's full input", func() bool { return slow.QueueStats().BlockedPushes > 0 })
			if got := blocked.Stats(); got != want {
				t.Errorf("%s blocked mid-flush: stats %+v, want %+v", blocked.ID(), got, want)
			}
			close(hold)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("batch=16/link transfer", func(t *testing.T) {
		clk := clock.NewManual() // advanced only once the source has been read
		eng := New(clk)
		s, _ := eng.AddSourceStage("src", 0, &hammerSource{count: 16}, batched)
		sink, _ := eng.AddProcessorStage("sink", 0, &countSink{}, cfg)
		// A 2048 B/s link whose burst credit is spent before the run: the
		// batch's 256 bytes owe 125 ms, and the final marker's 64 bytes
		// 31.25 ms more.
		link := netsim.NewLink(clk, netsim.LinkConfig{Bandwidth: 2048})
		if owed := link.Transfer(2048); owed != 0 {
			t.Fatalf("burst credit owed %v", owed)
		}
		if err := eng.Connect(s, sink, link); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- eng.Run(context.Background()) }()
		for i, owed := range []time.Duration{125 * time.Millisecond, 31250 * time.Microsecond} { // the batch's transfer, then the final marker's
			eventually(t, "source asleep in its link transfer", func() bool { return clk.Waiters() == 1 })
			if got := s.Stats(); i == 0 && got != sixteen {
				t.Errorf("source asleep in a transfer: stats %+v, want %+v", got, sixteen)
			}
			clk.Advance(owed)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
}

// TestPublishCarriesEveryField: publishLocal decides whether there is
// anything to publish field by field, so a StageStats field it does not look
// at would never reach Stats(). Each field, set alone, must arrive.
func TestPublishCarriesEveryField(t *testing.T) {
	fields := reflect.TypeOf(StageStats{})
	for i := 0; i < fields.NumField(); i++ {
		name := fields.Field(i).Name
		eng := New(clock.NewManual())
		st, _ := eng.AddProcessorStage("st", 0, forwardProc{}, StageConfig{DisableAdaptation: true})
		switch f := reflect.ValueOf(&st.local).Elem().Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(1)
		case reflect.Int64:
			f.SetInt(1)
		default:
			t.Fatalf("StageStats.%s is a %s: publishLocal's test for anything to publish cannot see it", name, f.Kind())
		}
		want := st.local
		st.publishLocal()
		if got := st.Stats(); got != want {
			t.Errorf("%s set alone: published %+v, want %+v", name, got, want)
		}
	}
}

// epochSource is Ingress.Run's shape: it waits outside the middleware on a
// fresh PauseRequested() each loop and parks at PauseBoundary when it fires.
type epochSource struct {
	started, release chan struct{}
	wakes            atomic.Int64
}

func (s *epochSource) Run(ctx *Context, _ *Emitter) error {
	close(s.started)
	for {
		select {
		case <-s.release:
			return nil
		case <-ctx.PauseRequested():
			s.wakes.Add(1)
			if err := ctx.PauseBoundary(); err != nil {
				return err
			}
		}
	}
}

// TestPauseRequestedAcrossEpochs: the pause epoch is read without a lock, so
// 200 Pause/Resume rounds from another goroutine must each wake the source
// exactly once — a lost wake-up hangs Pause, a stale (already closed) epoch
// channel wakes it again.
func TestPauseRequestedAcrossEpochs(t *testing.T) {
	const rounds = 200
	eng := New(clock.NewManual())
	cfg := StageConfig{DisableAdaptation: true}
	src := &epochSource{started: make(chan struct{}), release: make(chan struct{})}
	s, _ := eng.AddSourceStage("src", 0, src, cfg)
	sink, _ := eng.AddProcessorStage("sink", 0, &countSink{}, cfg)
	if err := eng.Connect(s, sink, nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- eng.Run(context.Background()) }()
	<-src.started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < rounds; i++ {
		if err := s.Pause(ctx); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if err := s.Resume(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	close(src.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := src.wakes.Load(); got != rounds {
		t.Fatalf("source woke %d times for %d pauses", got, rounds)
	}
}

// TestStatsExactInsideChargeCompute: a stage asleep in ChargeCompute on a
// clock nobody advances has published everything up to and including the
// packet it is charging for.
func TestStatsExactInsideChargeCompute(t *testing.T) {
	clk := clock.NewManual()
	eng := New(clk)
	cfg := StageConfig{DisableAdaptation: true}
	s, _ := eng.AddSourceStage("src", 0, &hammerSource{count: 7}, cfg)
	worker, _ := eng.AddProcessorStage("worker", 0, &testProc{
		process: func(ctx *Context, _ *Packet, _ *Emitter) error {
			ctx.ChargeCompute(10 * time.Millisecond)
			return nil
		},
	}, cfg)
	if err := eng.Connect(s, worker, nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- eng.Run(context.Background()) }()
	for k := uint64(1); k <= 7; k++ {
		// The only clock waiter is the worker's charge; it registers after
		// the publish.
		eventually(t, "worker asleep in its charge", func() bool { return clk.Waiters() == 1 })
		want := StageStats{PacketsIn: k, ItemsIn: k, ComputeCharged: time.Duration(k) * 10 * time.Millisecond}
		if got := worker.Stats(); got != want {
			t.Fatalf("asleep charging packet %d: stats %+v, want %+v", k, got, want)
		}
		clk.Advance(10 * time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestSourcePublishesAtNextMiddlewareBlock: a source that emits 5 packets
// and then waits on something of its own may show anything up to those 5
// (it never blocked in the middleware); its next block there — here the park
// of a Pause — publishes them.
func TestSourcePublishesAtNextMiddlewareBlock(t *testing.T) {
	clk := clock.NewManual()
	eng := New(clk)
	cfg := StageConfig{DisableAdaptation: true}
	src := &holdSource{n: 5, emitted: make(chan struct{}), release: make(chan struct{})}
	s, _ := eng.AddSourceStage("src", 0, src, cfg)
	sink, _ := eng.AddProcessorStage("sink", 0, &countSink{}, cfg)
	if err := eng.Connect(s, sink, nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- eng.Run(context.Background()) }()
	<-src.emitted
	if got := s.Stats().PacketsOut; got > 5 {
		t.Fatalf("source shows %d emissions before any publish, emitted 5", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Pause(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Stats(), (StageStats{PacketsOut: 5, ItemsOut: 5, BytesOut: 40}); got != want || s.EmitSeq() != 5 {
		t.Fatalf("source parked after 5 emissions: stats %+v, EmitSeq %d, want %+v and 5", got, s.EmitSeq(), want)
	}
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	close(src.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// chargingSource charges compute before every emission, like every app
// source. It emits warm packets, waits for release, then counts how many more
// emissions succeed before Emit reports an error.
type chargingSource struct {
	warm    int
	reached chan struct{}
	release chan struct{}
	after   int
	err     error
}

func (s *chargingSource) Run(ctx *Context, out *Emitter) error {
	for i := 0; i < s.warm+1<<14; i++ {
		if i == s.warm {
			close(s.reached)
			<-s.release
		}
		ctx.ChargeCompute(time.Nanosecond) // below the quantum: never sleeps
		if s.err = out.EmitValue(i, 8); s.err != nil {
			return s.err
		}
		if i >= s.warm {
			s.after++
		}
	}
	return nil
}

// TestCancelSeenWithinRunLag: a source whose every emission is preceded by a
// ChargeCompute — which publishes — and whose downstream ring never fills
// still learns of a canceled run within runLag emissions, because only the
// blocking push restarts that count.
func TestCancelSeenWithinRunLag(t *testing.T) {
	eng := New(clock.NewReal()) // the charges never add up to a sleep worth noticing
	src := &chargingSource{warm: 100, reached: make(chan struct{}), release: make(chan struct{})}
	s, _ := eng.AddSourceStage("src", 0, src, StageConfig{DisableAdaptation: true})
	sink, _ := eng.AddProcessorStage("sink", 0, &countSink{}, StageConfig{DisableAdaptation: true, QueueCapacity: 1 << 15})
	if err := eng.Connect(s, sink, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- eng.Run(ctx) }()
	<-src.reached
	cancel()
	close(src.release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if !errors.Is(src.err, context.Canceled) || src.after > runLag {
		t.Fatalf("after the cancel %d emissions succeeded before Emit returned %v; want context.Canceled within %d",
			src.after, src.err, runLag)
	}
}

// TestHopLatencyExactOnVirtualTime: src → worker → sink on a manual clock,
// 40 packets queued ahead of a worker that charges 10 ms each. Packet k
// (1-based) is consumed by the worker at (k−1)·10 ms and by the sink, the
// instant the worker emits it, at k·10 ms — so the histogram sums have closed
// forms, which hold only if the run's shared clock read never spans a
// ChargeCompute.
func TestHopLatencyExactOnVirtualTime(t *testing.T) {
	const n, step = 40, 10 * time.Millisecond
	clk := clock.NewManual()
	ob := obs.New(clk, obs.Config{SampleEvery: -1})
	eng := New(clk)
	eng.SetObservability(ob)
	s, _ := eng.AddSourceStage("src", 0, &hammerSource{count: n}, StageConfig{DisableAdaptation: true})
	worker, _ := eng.AddProcessorStage("worker", 0, &testProc{
		process: func(ctx *Context, pkt *Packet, out *Emitter) error {
			ctx.ChargeCompute(step)
			return out.Emit(pkt)
		},
	}, StageConfig{DisableAdaptation: true, ComputeQuantum: step})
	sink, _ := eng.AddProcessorStage("sink", 0, &countSink{}, StageConfig{DisableAdaptation: true})
	if err := eng.Connect(s, worker, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Connect(worker, sink, nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- eng.Run(context.Background()) }()

	// All 40 are emitted at the epoch: the clock moves only below.
	eventually(t, "source done", func() bool { return s.State() == StateStopped })
	for k := uint64(0); k < n; k++ {
		// Advance only once the worker sleeps on packet k+1's charge and
		// the sink has taken packet k at the current instant.
		eventually(t, "worker asleep, sink caught up", func() bool {
			return clk.Waiters() == 1 && sink.Stats().PacketsIn == k
		})
		clk.Advance(step)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		st      *Stage
		metric  string
		wantSec float64
	}{
		{worker, obs.MetricHopLatency, step.Seconds() * n * (n - 1) / 2},
		{worker, obs.MetricE2ELatency, step.Seconds() * n * (n - 1) / 2},
		{sink, obs.MetricHopLatency, 0},
		{sink, obs.MetricE2ELatency, step.Seconds() * n * (n + 1) / 2},
	} {
		sum, count := latencyState(ob.Registry, c.metric, c.st)
		if count != n || math.Abs(sum-c.wantSec) > 1e-9 {
			t.Errorf("%s %s: %d observations summing to %.9f s, want %d summing to %.9f s",
				c.st.ID(), c.metric, count, sum, n, c.wantSec)
		}
	}
}

// TestLatePushGetsItsOwnClockRead: a run's cached clock read reaches only
// the packets that were queued when it was taken. Packet 2 is pushed while
// the sink is still inside packet 1's Process, and a third party then moves
// the clock: the sink records packet 2's one-second wait, not the zero its
// earlier read would give.
func TestLatePushGetsItsOwnClockRead(t *testing.T) {
	clk := clock.NewManual()
	ob := obs.New(clk, obs.Config{SampleEvery: -1})
	eng := New(clk)
	eng.SetObservability(ob)
	cfg := StageConfig{DisableAdaptation: true}
	src := &gatedTestSource{values: []int{1, 2}, reached: make(chan struct{}), release: make(chan struct{})}
	s, _ := eng.AddSourceStage("src", 0, src, cfg)
	busy, gate := make(chan struct{}), make(chan struct{})
	sink, _ := eng.AddProcessorStage("sink", 0, &testProc{
		process: func(_ *Context, pkt *Packet, _ *Emitter) error {
			if pkt.Value == 1 {
				close(busy)
				<-gate
			}
			return nil
		},
	}, cfg)
	if err := eng.Connect(s, sink, nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- eng.Run(context.Background()) }()
	<-busy // packet 1 popped and timed with nothing queued behind it
	close(src.release)
	eventually(t, "packet 2 queued", func() bool { return s.State() == StateStopped })
	clk.Advance(time.Second)
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if sum, count := latencyState(ob.Registry, obs.MetricHopLatency, sink); count != 2 || math.Abs(sum-1) > 1e-9 {
		t.Fatalf("sink hop latency: %d observations summing to %.9f s, want 2 summing to 1 s", count, sum)
	}
}

// TestInstrumentWhileDraining is the regression test for the late hook-up
// race: a caller instruments stages of an engine that is already running
// while their drain loops read the latency scratches. Run under -race. The
// hand-over is also exact:
// a stage adopts the scratches at the start of its next run, so the 500
// packets that flow after the first Instrument returns are all observed and
// none of the 500 before it are.
func TestInstrumentWhileDraining(t *testing.T) {
	clk := clock.NewManual()
	eng := New(clk) // unobserved: Engine.Run instruments nothing
	values := make([]int, 1000)
	src := &gatedTestSource{values: values, reached: make(chan struct{}), release: make(chan struct{})}
	cfg := StageConfig{DisableAdaptation: true, QueueCapacity: 1000}
	s, _ := eng.AddSourceStage("src", 0, src, cfg)
	relay, _ := eng.AddProcessorStage("relay", 0, forwardProc{}, cfg)
	sink, _ := eng.AddProcessorStage("sink", 0, &collector{}, cfg)
	if err := eng.Connect(s, relay, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Connect(relay, sink, nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- eng.Run(context.Background()) }()

	<-src.reached
	eventually(t, "first half drained", func() bool { return sink.Stats().PacketsIn == 500 })
	reg := obs.NewRegistry(clk)
	first, stop, stopped := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for i := 0; ; i++ {
			relay.Instrument(reg)
			sink.Instrument(reg)
			if i == 0 {
				close(first)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-first
	close(src.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-stopped
	for _, st := range []*Stage{relay, sink} {
		if _, n := latencyState(reg, obs.MetricE2ELatency, st); n != 500 {
			t.Errorf("%s: %d e2e observations after a hook-up at the half-way gate, want exactly 500", st.ID(), n)
		}
	}
}
