package transport

import (
	"context"
	"fmt"
	"sync/atomic"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/pipeline"
	"github.com/gates-middleware/gates/internal/queue"
)

// Egress is a pipeline Processor that forwards everything it receives to a
// remote host — the sending side of a cross-machine pipeline edge. Load
// exceptions arriving back from the remote side should be fed to the local
// upstream controller by the host program (see cmd/gates-node).
//
// With Batch > 1, packets are coalesced and flushed as one write per Batch
// packets (and at Finish), trading bounded per-packet latency for one
// syscall per batch instead of one per packet.
type Egress struct {
	client *Client
	// Batch is the number of packets coalesced per flush. 0 or 1 sends
	// every packet immediately.
	Batch int
	// Tracer, when non-nil, records a forced "egress.send" span for
	// packets that carry a trace id — the sending end of a cross-node
	// span tree.
	Tracer *obs.Tracer

	pending []Message // only touched by the owning stage goroutine
}

// NewEgress returns an egress bridge over an established client.
func NewEgress(c *Client) *Egress { return &Egress{client: c} }

// NewEgressBatch returns an egress bridge that coalesces batch packets per
// network flush.
func NewEgressBatch(c *Client, batch int) *Egress {
	return &Egress{client: c, Batch: batch}
}

// Init implements pipeline.Processor.
func (e *Egress) Init(*pipeline.Context) error { return nil }

// Process forwards one packet to the remote host, coalescing per Batch.
func (e *Egress) Process(_ *pipeline.Context, pkt *pipeline.Packet, _ *pipeline.Emitter) error {
	sp := e.Tracer.StartTraced("egress.send", pkt.TraceID, pkt.TraceHops)
	defer sp.End()
	e.pending = append(e.pending, PacketMessage(pkt))
	if len(e.pending) >= e.Batch {
		return e.flush()
	}
	return nil
}

// Finish flushes any coalesced packets and forwards the end-of-stream
// marker in the same write.
func (e *Egress) Finish(*pipeline.Context, *pipeline.Emitter) error {
	e.pending = append(e.pending, Message{Kind: KindPacket, Final: true})
	return e.flush()
}

func (e *Egress) flush() error {
	err := e.client.SendBatch(e.pending)
	e.pending = e.pending[:0]
	return err
}

// Ingress is a pipeline Source that injects packets received from the
// network into a local engine. Construct it, point a Server's handler at
// Deliver, and add it as a source stage. Run ends after ExpectFinals final
// markers (one per remote upstream instance) have arrived.
//
// Received packets wait in one bounded queue.Ring, filled by the connection
// read loops and drained by Run in arrival order. The wire does not stop when
// the engine side does: while the ingress stage is paused — a checkpoint
// capture, or a recovery holding it across a Relink — frames keep arriving,
// and the ring is sized (1+pendingFactor) times buf so that a pause rides
// out at line rate instead of wedging the read loop, which would also stall
// exception traffic sharing the socket. Only with the ring full does Deliver
// block — backpressure is the last resort, not the first.
type Ingress struct {
	// ExpectFinals is how many Final markers end the stream. Zero means
	// one.
	ExpectFinals int
	// OnException, when non-nil, receives load exceptions sent by the
	// remote side (for delivery to a local upstream controller).
	OnException func(adapt.Exception)
	// Tracer, when non-nil, samples an "ingress.emit" span around each
	// packet's hand-off into the local engine — the receiving end of the
	// hot-path trace chain (stage → emitter → link → ingress).
	Tracer *obs.Tracer

	ring   *queue.Ring[*pipeline.Packet]
	closed atomic.Bool // Run returned: Deliver builds no packet
}

// pendingFactor sizes the ring beyond the engine-side depth buf: deep enough
// to ride out a checkpoint or recovery re-wiring at line rate, small enough
// to stay a bounded buffer.
const pendingFactor = 16

// NewIngress returns an ingress expecting the given number of final markers,
// buffering up to (1+16)×buf packets between the network and the engine.
func NewIngress(expectFinals, buf int) *Ingress {
	if expectFinals < 1 {
		expectFinals = 1
	}
	if buf < 1 {
		buf = 64
	}
	return &Ingress{
		ExpectFinals: expectFinals,
		ring:         queue.NewMPSC[*pipeline.Packet]((1 + pendingFactor) * buf),
	}
}

// Deliver is the Server handler: it routes packets into the engine and
// exceptions to OnException. Once Run has returned — the stream ended or
// the engine was torn down — further packets are dropped rather than
// blocking, so Server.Close can always drain its serving goroutines.
func (i *Ingress) Deliver(m Message) {
	switch m.Kind {
	case KindPacket:
		if i.closed.Load() {
			return
		}
		pkt := pipeline.GetPacket()
		m.PacketInto(pkt)
		if pkt.TraceID != 0 {
			// One more node crossing on this packet's trace context.
			pkt.TraceHops++
		}
		if i.ring.Push(pkt) != nil {
			pkt.Release() // Run returned while this frame waited for room
		}
	case KindException:
		if i.OnException != nil {
			i.OnException(m.Exception)
		}
	}
}

// Run implements pipeline.Source: it emits received packets until the
// expected number of final markers has arrived. It honors stage pauses even
// while idle — it waits for frames under the stage's pause epoch, so a
// checkpoint or recovery never waits on the next network delivery.
func (i *Ingress) Run(ctx *pipeline.Context, out *pipeline.Emitter) error {
	// On exit, wake any Deliver blocked on a full ring and recycle what
	// nobody will read. A Deliver racing this drain may still land a frame
	// behind it; that packet is left to the garbage collector.
	defer func() {
		i.closed.Store(true)
		i.ring.Close()
		for {
			pkt, err := i.ring.Pop()
			if err != nil {
				return
			}
			pkt.Release()
		}
	}()
	op := i.Tracer.Op("ingress.emit")
	var batch [16]*pipeline.Packet // taken per pop
	finals := 0
	for {
		// An idle wait ends on a pause request: park here rather than inside
		// a future emit, so a quiet wire never stalls a checkpoint.
		if err := ctx.PauseBoundary(); err != nil {
			return err
		}
		n, err := i.ring.PopBatchCtx(ctx.PauseCtx(), batch[:], len(batch))
		for k, pkt := range batch[:n] {
			if done, err := i.handle(ctx, out, op, pkt, &finals); done || err != nil {
				for _, rest := range batch[k+1 : n] {
					rest.Release()
				}
				return err
			}
		}
		// A batching emitter holds packets until its batch fills. With the
		// ring drained, nothing more is due to fill it, so send them on.
		if n > 0 && i.ring.Len() == 0 {
			if err := out.Flush(); err != nil {
				return fmt.Errorf("transport: ingress flush: %w", err)
			}
		}
		if err != nil && ctx.Ctx().Err() != nil {
			return context.Cause(ctx.Ctx())
		}
	}
}

// handle emits one received frame into the engine, counting final markers.
// It reports done when the expected number of finals has arrived.
func (i *Ingress) handle(ctx *pipeline.Context, out *pipeline.Emitter, op *obs.Op, pkt *pipeline.Packet, finals *int) (bool, error) {
	if pkt.Final {
		*finals++
		pkt.Release()
		return *finals >= i.ExpectFinals, nil
	}
	if pkt.TraceID == 0 && !op.Due() { // between samples: no span, not even an inert one
		if err := out.Emit(pkt); err != nil {
			return false, fmt.Errorf("transport: ingress emit: %w", err)
		}
		return false, nil
	}
	var sp obs.Span
	if pkt.TraceID != 0 {
		// Traced lineage: force the span so the cross-node span tree
		// stays complete.
		sp = i.Tracer.StartTraced("ingress.emit", pkt.TraceID, pkt.TraceHops)
	} else {
		sp = op.Begin()
	}
	// Emit transfers ownership; a local sink may recycle the packet
	// immediately, so read everything the span needs first.
	items := float64(pkt.ItemCount())
	if err := out.Emit(pkt); err != nil {
		return false, fmt.Errorf("transport: ingress emit: %w", err)
	}
	sp.Annotate("items", items)
	sp.End()
	return false, nil
}
