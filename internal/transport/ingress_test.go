package transport

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/pipeline"
)

// TestIngressBuffersDuringRewiring pins the recovery-interaction contract:
// while the ingress stage is paused — exactly what a checkpoint capture or a
// recovery re-wiring does around Relink — frames keep arriving off the wire.
// Deliver must queue them in the ring's room beyond the engine-side depth and
// return promptly instead of wedging the connection's read loop (which would
// also stall exception traffic sharing the socket), and every queued frame
// must be emitted in arrival order once the stage resumes.
func TestIngressBuffersDuringRewiring(t *testing.T) {
	ing := NewIngress(1, 8) // tiny engine-side buffer: overflow is immediate
	eng := pipeline.New(clock.NewScaled(1000))
	inSt, err := eng.AddSourceStage("ingress", 0, ing, pipeline.StageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []int
	coll := &collectProc{fn: func(v any) {
		mu.Lock()
		got = append(got, v.(int))
		mu.Unlock()
	}}
	collSt, err := eng.AddProcessorStage("collect", 0, coll, pipeline.StageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Connect(inSt, collSt, nil); err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- eng.Run(context.Background()) }()

	// Prove the stream is flowing, then pause the ingress stage the way a
	// recovery holds it while links are re-wired.
	ing.Deliver(Message{Kind: KindPacket, Value: 0, Items: 1, WireSize: 8})
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first frame never reached the collector")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := inSt.Pause(ctx); err != nil {
		t.Fatal(err)
	}

	// The wire does not stop during a re-wiring: push far more frames than
	// the engine-side depth of 8. Every Deliver must return without the
	// stage consuming anything.
	const n = 100
	delivered := make(chan struct{})
	go func() {
		defer close(delivered)
		for v := 1; v <= n; v++ {
			ing.Deliver(Message{Kind: KindPacket, Value: v, Items: 1, WireSize: 8})
		}
	}()
	select {
	case <-delivered:
	case <-time.After(10 * time.Second):
		t.Fatal("Deliver wedged the connection read loop while the stage was paused for re-wiring")
	}

	// Relink done: resume, end the stream, and require zero loss in order.
	if err := inSt.Resume(); err != nil {
		t.Fatal(err)
	}
	ing.Deliver(Message{Kind: KindPacket, Final: true})
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pipeline did not finish after resume")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n+1 {
		t.Fatalf("collector got %d frames, want %d", len(got), n+1)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("frame %d out of order: got value %d", i, v)
		}
	}
}

// TestIngressReleasesFramesAfterRun pins what happens to packets nobody will
// read: frames queued behind the last Final when Run returns, and frames that
// arrive after it. Both must be released back to the pool, not left stranded
// in the ring.
func TestIngressReleasesFramesAfterRun(t *testing.T) {
	ing := NewIngress(1, 8)
	eng := pipeline.New(clock.NewScaled(1000))
	inSt, err := eng.AddSourceStage("ingress", 0, ing, pipeline.StageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	collSt, err := eng.AddProcessorStage("collect", 0, &collectProc{fn: func(any) {}}, pipeline.StageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Connect(inSt, collSt, nil); err != nil {
		t.Fatal(err)
	}
	// Queued before Run starts, so Run meets the Final first and returns
	// with two frames still behind it.
	ing.Deliver(Message{Kind: KindPacket, Final: true})
	for v := 1; v <= 2; v++ {
		ing.Deliver(Message{Kind: KindPacket, Value: v, Items: 1, WireSize: 8})
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := ing.ring.Len(); n != 0 {
		t.Fatalf("%d frames queued behind the Final left in the ring after Run", n)
	}
	for v := 3; v <= 5; v++ {
		ing.Deliver(Message{Kind: KindPacket, Value: v, Items: 1, WireSize: 8})
	}
	if n := ing.ring.Len(); n != 0 {
		t.Fatalf("%d frames delivered after Run stranded in the ring", n)
	}
}

// TestIngressParkedFramesKeepArrivalOrder pins arrival order under
// backpressure. With a 4-deep engine side (a 68-slot ring) and a consumer
// that stalls every few packets, Deliver keeps running ahead of Run, and every
// frame must still reach the engine in the order it arrived.
func TestIngressParkedFramesKeepArrivalOrder(t *testing.T) {
	const n = 20_000
	ing := NewIngress(1, 4)
	eng := pipeline.New(clock.NewScaled(1000))
	inSt, err := eng.AddSourceStage("ingress", 0, ing, pipeline.StageConfig{DisableAdaptation: true})
	if err != nil {
		t.Fatal(err)
	}
	next, misordered := 0, 0 // owned by the collector goroutine until Run returns
	coll := &collectProc{fn: func(v any) {
		if v.(int) != next {
			misordered++
		}
		next = v.(int) + 1
		if next%8 == 0 {
			runtime.Gosched() // stall: let the wire run ahead and overflow the channel
		}
	}}
	collSt, err := eng.AddProcessorStage("collect", 0, coll, pipeline.StageConfig{DisableAdaptation: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Connect(inSt, collSt, nil); err != nil {
		t.Fatal(err)
	}
	go func() {
		for v := 0; v < n; v++ {
			ing.Deliver(Message{Kind: KindPacket, Value: v, Items: 1, WireSize: 8})
		}
		ing.Deliver(Message{Kind: KindPacket, Final: true})
	}()
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if next != n || misordered != 0 {
		t.Fatalf("collector saw %d packets out of arrival order (last value %d, want %d)", misordered, next-1, n-1)
	}
}

// waitUntil polls cond until it holds, failing the test after 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIngressBlockedDeliverReleasedAtRunExit pins the ring's last resort:
// with the stage paused and all (1+16)×1 slots full, the 18th Deliver blocks
// the read loop. When Run then exits, that Deliver must return and release its
// packet, and the 17 queued frames must be released too, so Server.Close can
// always drain its serving goroutines.
func TestIngressBlockedDeliverReleasedAtRunExit(t *testing.T) {
	ing := NewIngress(1, 1)
	eng := pipeline.New(clock.NewScaled(1000))
	inSt, err := eng.AddSourceStage("ingress", 0, ing, pipeline.StageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- eng.Run(ctx) }()
	pctx, pcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer pcancel()
	if err := inSt.Pause(pctx); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 17; v++ {
		ing.Deliver(Message{Kind: KindPacket, Value: v, Items: 1, WireSize: 8})
	}
	delivered := make(chan struct{})
	go func() {
		defer close(delivered)
		ing.Deliver(Message{Kind: KindPacket, Value: 17, Items: 1, WireSize: 8})
	}()
	waitUntil(t, "the 18th Deliver never blocked on the full ring", func() bool {
		return ing.ring.Stats().BlockedPushes == 1
	})

	before := pipeline.ReadPoolStats()
	cancel()
	select {
	case <-runDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after the run was cancelled")
	}
	select {
	case <-delivered:
	case <-time.After(10 * time.Second):
		t.Fatal("the blocked Deliver did not return after Run exited")
	}
	after := pipeline.ReadPoolStats()
	if got := after.Recycled + after.Overflow - before.Recycled - before.Overflow; got != 18 {
		t.Fatalf("%d packets returned to the pool after Run, want 18 (17 queued + the blocked one)", got)
	}
}

// TestIngressTwoSendersKeepTheirOrder: two connections deliver into one
// ingress concurrently, as two upstream instances do. The ring is the only
// queue, so nothing is lost and each sender's frames reach the engine in the
// order that sender delivered them; Run ends on the second Final, which comes
// after both senders' data.
func TestIngressTwoSendersKeepTheirOrder(t *testing.T) {
	const n = 5_000
	ing := NewIngress(2, 4)
	eng := pipeline.New(clock.NewScaled(1000))
	inSt, err := eng.AddSourceStage("ingress", 0, ing, pipeline.StageConfig{DisableAdaptation: true})
	if err != nil {
		t.Fatal(err)
	}
	var next [2]int
	got, misordered := 0, 0 // owned by the collector goroutine until Run returns
	coll := &collectProc{fn: func(v any) {
		sender, k := v.(int)%2, v.(int)/2
		if k != next[sender] {
			misordered++
		}
		next[sender] = k + 1
		if got++; got%8 == 0 {
			runtime.Gosched() // stall: let both senders run ahead and fill the ring
		}
	}}
	collSt, err := eng.AddProcessorStage("collect", 0, coll, pipeline.StageConfig{DisableAdaptation: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Connect(inSt, collSt, nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for sender := 0; sender < 2; sender++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < n; k++ {
				ing.Deliver(Message{Kind: KindPacket, Value: 2*k + sender, Items: 1, WireSize: 8})
			}
			ing.Deliver(Message{Kind: KindPacket, Final: true})
		}()
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got != 2*n || misordered != 0 {
		t.Fatalf("collector got %d of %d packets, %d out of their sender's order", got, 2*n, misordered)
	}
}

// TestIngressPausesWhileIdle: a pause requested while Run waits on an empty
// ring parks the stage without any frame arriving, and Resume lets the stream
// finish.
func TestIngressPausesWhileIdle(t *testing.T) {
	ing := NewIngress(1, 8)
	eng := pipeline.New(clock.NewScaled(1000))
	inSt, err := eng.AddSourceStage("ingress", 0, ing, pipeline.StageConfig{})
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- eng.Run(context.Background()) }()
	waitUntil(t, "Run never waited on the empty ring", func() bool {
		return ing.ring.Stats().BlockedPops > 0
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := inSt.Pause(ctx); err != nil {
		t.Fatalf("pause of an idle ingress: %v", err)
	}
	if n := ing.ring.Stats().Pushed; n != 0 {
		t.Fatalf("%d frames arrived; the pause must not need one", n)
	}
	if err := inSt.Resume(); err != nil {
		t.Fatal(err)
	}
	ing.Deliver(Message{Kind: KindPacket, Final: true})
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pipeline did not finish after resume")
	}
}

// TestIngressFlushesWhenDrained pins delivery under a batching emitter: with
// a batch of 16, three frames that arrive and stop must still reach the next
// stage without waiting for more traffic or for the end-of-stream marker.
func TestIngressFlushesWhenDrained(t *testing.T) {
	ing := NewIngress(1, 8)
	eng := pipeline.New(clock.NewScaled(1000))
	eng.SetDefaultBatchSize(16)
	inSt, err := eng.AddSourceStage("ingress", 0, ing, pipeline.StageConfig{DisableAdaptation: true})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan any, 3)
	collSt, err := eng.AddProcessorStage("collect", 0, &collectProc{fn: func(v any) { got <- v }}, pipeline.StageConfig{DisableAdaptation: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Connect(inSt, collSt, nil); err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- eng.Run(context.Background()) }()

	for v := 0; v < 3; v++ {
		ing.Deliver(Message{Kind: KindPacket, Value: v, Items: 1, WireSize: 8})
	}
	timeout := time.After(10 * time.Second)
	for want := 0; want < 3; want++ {
		select {
		case v := <-got:
			if v != want {
				t.Fatalf("collector got %v, want %d", v, want)
			}
		case <-timeout:
			t.Fatalf("collector saw %d of 3 delivered frames before the end-of-stream marker", want)
		}
	}
	ing.Deliver(Message{Kind: KindPacket, Final: true})
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
}
