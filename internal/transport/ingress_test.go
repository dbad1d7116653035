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
// Deliver must park them in the bounded pending buffer and return promptly
// instead of wedging the connection's read loop (which would also stall
// exception traffic sharing the socket), and every parked frame must be
// emitted in arrival order once the stage resumes.
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
	// the engine-side channel holds. Every Deliver must return without the
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
// in the engine-side channel.
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
	if n := len(ing.ch); n != 0 {
		t.Fatalf("%d frames queued behind the Final left in the channel after Run", n)
	}
	for v := 3; v <= 5; v++ {
		ing.Deliver(Message{Kind: KindPacket, Value: v, Items: 1, WireSize: 8})
	}
	if n := len(ing.ch); n != 0 {
		t.Fatalf("%d frames delivered after Run stranded in the channel", n)
	}
}

// TestIngressParkedFramesKeepArrivalOrder pins the one-way-out rule for the
// parking lot (pending → channel → Run). With a 4-deep channel and a
// consumer that stalls every few packets, Deliver parks constantly and Run
// keeps taking the kick branch; frames used to leave the lot directly there
// and overtake older ones Deliver had just moved into the channel.
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
