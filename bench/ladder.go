package main

import (
	"runtime"
	"time"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/pipeline"
	"github.com/gates-middleware/gates/internal/queue"
	"github.com/gates-middleware/gates/internal/transport"
)

// The ladder calls each layer's public functions directly from one
// goroutine, one rung per layer operation, so a layer's cost is known apart
// from the workloads that mix it with everything else. Rungs do not depend
// on the workload; every traced run measures all of them.

// rungLoops is how many loops a rung runs; it reports the fastest.
const rungLoops = 5

// rungTime is how long each of those loops runs at least (the smoke path
// runs them shorter).
const rungTime = 30 * time.Millisecond

// rung times op, which must perform n operations, and returns nanoseconds
// per operation: the minimum over rungLoops loops, each sized to run for at
// least each. The minimum is the right statistic for a microbenchmark on a
// shared machine — interference only ever adds time.
func rung(each time.Duration, op func(n int)) float64 {
	n := 64
	for {
		t0 := nanos()
		op(n)
		if d := nanos() - t0; d >= int64(each) || n >= 1<<28 {
			break
		}
		n *= 4
	}
	best := 0.0
	for i := 0; i < rungLoops; i++ {
		t0 := nanos()
		op(n)
		per := float64(nanos()-t0) / float64(n)
		if i == 0 || per < best {
			best = per
		}
	}
	return best
}

// allocsPer returns heap allocations per call of op over n calls.
func allocsPer(n int, op func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// ladderMessage is the frame the TCP workloads send: a packet message whose
// value is one 128-word payload.
func ladderMessage(seed int64) transport.Message {
	gen := newPayloads(seed, 0, 1, 128)
	return transport.Message{
		Kind: transport.KindPacket, SourceStage: "src", Seq: 12345, WireSize: 1024,
		Value: gen.stamp(12345, 0),
	}
}

// ladder measures every rung and returns the readings by metric name.
func ladder(seed int64, each time.Duration) (map[string]float64, error) {
	out := map[string]float64{}

	spsc := queue.NewSPSC[*pipeline.Packet](1024)
	batch := make([]*pipeline.Packet, 16)
	for i := range batch {
		batch[i] = &pipeline.Packet{}
	}
	dst := make([]*pipeline.Packet, 16)
	out["queue.spsc_b16_ns_per_item"] = rung(each, func(n int) {
		for i := 0; i < n; i += 16 {
			spsc.PushBatch(batch)
			spsc.PopBatch(dst, 16)
		}
	})
	out["queue.spsc_p1_ns"] = rung(each, func(n int) {
		for i := 0; i < n; i++ {
			spsc.Push(batch[0])
			spsc.Pop()
		}
	})
	mpsc := queue.NewMPSC[*pipeline.Packet](200)
	out["queue.mpsc_p1_ns"] = rung(each, func(n int) {
		for i := 0; i < n; i++ {
			mpsc.Push(batch[0])
			mpsc.Pop()
		}
	})

	out["pipeline.pool_getput_ns"] = rung(each, func(n int) {
		for i := 0; i < n; i++ {
			pipeline.GetPacket().Release()
		}
	})

	free := netsim.NewLink(clock.NewManual(), netsim.LinkConfig{})
	out["netsim.transfer_ns"] = rung(each, func(n int) {
		for i := 0; i < n; i++ {
			free.Transfer(64)
		}
	})
	out["netsim.transfer_b16_ns_per_msg"] = rung(each, func(n int) {
		for i := 0; i < n; i += 16 {
			free.TransferBatch(16*64, 16)
		}
	})
	// A shaped link on a clock that never advances, with a quantum no
	// backlog reaches: the token-bucket arithmetic without the sleep.
	shaped := netsim.NewLink(clock.NewManual(), netsim.LinkConfig{Bandwidth: 1 << 40, Quantum: 1000 * time.Hour})
	out["netsim.shaped_transfer_ns"] = rung(each, func(n int) {
		for i := 0; i < n; i++ {
			shaped.Transfer(64)
		}
	})

	scaled := clock.NewScaled(adaptScale)
	errs := make([]float64, 15)
	for i := range errs {
		want := 100 * time.Millisecond / adaptScale
		t0 := nanos()
		scaled.Sleep(100 * time.Millisecond)
		errs[i] = float64(nanos()-t0-int64(want)) / float64(want)
	}
	out["clock.scaled_sleep_err_frac"] = median(errs)

	ctl := adapt.NewController(adapt.Defaults(200))
	if _, err := ctl.Register(adapt.ParamSpec{
		Name: "r", Initial: 0.5, Min: 0, Max: 1, Step: 0.01, Direction: adapt.IncreaseSlowsProcessing,
	}); err != nil {
		return nil, err
	}
	out["adapt.observe_ns"] = rung(each, func(n int) {
		for i := 0; i < n; i++ {
			ctl.Observe(i % 200)
		}
	})
	out["adapt.adjust_ns"] = rung(each, func(n int) {
		for i := 0; i < n; i++ {
			ctl.Adjust()
		}
	})

	msg := ladderMessage(seed)
	frame, err := transport.Encode(msg)
	if err != nil {
		return nil, err
	}
	out["transport.frame_bytes"] = float64(len(frame) + 4)
	out["transport.encode_ns"] = rung(each, func(n int) {
		for i := 0; i < n; i++ {
			transport.Encode(msg)
		}
	})
	out["transport.decode_ns"] = rung(each, func(n int) {
		for i := 0; i < n; i++ {
			transport.Decode(frame)
		}
	})
	out["transport.encode_allocs"] = allocsPer(2000, func() { transport.Encode(msg) })
	out["transport.decode_allocs"] = allocsPer(2000, func() { transport.Decode(frame) })

	// SendBatch over loopback against a server that decodes and discards:
	// closed loop under TCP flow control, sender's time per message.
	srv, err := transport.Listen("127.0.0.1:0", func(transport.Message) {})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	cli, err := transport.Dial(srv.Addr())
	if err != nil {
		return nil, err
	}
	defer cli.Close()
	msgs := make([]transport.Message, 16)
	for i := range msgs {
		msgs[i] = msg
	}
	var sendErr error
	out["transport.sendbatch16_ns_per_msg"] = rung(each, func(n int) {
		for i := 0; i < n; i += 16 {
			if err := cli.SendBatch(msgs); err != nil {
				sendErr = err
				return
			}
		}
	})
	if sendErr != nil {
		return nil, sendErr
	}

	plan, deploy, err := serviceRungs(each)
	if err != nil {
		return nil, err
	}
	out["service.plan_ns"], out["service.deploy_ns"] = plan, deploy
	return out, nil
}
