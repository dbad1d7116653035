package transport

import (
	"context"
	"fmt"
	"sync"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/pipeline"
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
// The wire does not stop when the engine side does: while the ingress stage
// is paused — a checkpoint capture, or a recovery holding it across a Relink
// — frames keep arriving. Deliver parks the overflow in a bounded pending
// buffer (pendingFactor times the channel depth) instead of wedging the
// connection's read loop, which would also stall exception traffic sharing
// the socket; the parked frames drain in arrival order once the stage
// resumes. Only with both the channel and the parking lot full does Deliver
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

	ch   chan *pipeline.Packet
	kick chan struct{} // cap 1: tells Run the parking lot has frames

	mu      sync.Mutex
	cond    *sync.Cond // signaled when the parking lot gains room or closes
	pending []*pipeline.Packet
	maxPend int
	closed  bool // Run returned; park nothing further
}

// pendingFactor sizes the pause-overflow parking lot relative to the
// engine-side channel: deep enough to ride out a checkpoint or recovery
// re-wiring at line rate, small enough to stay a bounded buffer.
const pendingFactor = 16

// NewIngress returns an ingress expecting the given number of final markers,
// buffering up to buf packets between the network and the engine.
func NewIngress(expectFinals, buf int) *Ingress {
	if expectFinals < 1 {
		expectFinals = 1
	}
	if buf < 1 {
		buf = 64
	}
	i := &Ingress{
		ExpectFinals: expectFinals,
		ch:           make(chan *pipeline.Packet, buf),
		kick:         make(chan struct{}, 1),
		maxPend:      pendingFactor * buf,
	}
	i.cond = sync.NewCond(&i.mu)
	return i
}

// Deliver is the Server handler: it routes packets into the engine and
// exceptions to OnException. Once Run has returned — the stream ended or
// the engine was torn down — further packets are dropped rather than
// blocking, so Server.Close can always drain its serving goroutines.
func (i *Ingress) Deliver(m Message) {
	switch m.Kind {
	case KindPacket:
		pkt := pipeline.GetPacket()
		m.PacketInto(pkt)
		if pkt.TraceID != 0 {
			// One more node crossing on this packet's trace context.
			pkt.TraceHops++
		}
		i.mu.Lock()
		if i.closed {
			i.mu.Unlock()
			pkt.Release() // nobody reads the channel any more
			return
		}
		i.drainPendingLocked()
		if len(i.pending) == 0 {
			// Fast path: the channel has room and nothing is parked
			// ahead of this frame.
			select {
			case i.ch <- pkt:
				i.mu.Unlock()
				return
			default:
			}
		}
		// Park behind whatever is already waiting; blocking only when the
		// bounded lot is full keeps arrival order intact either way.
		for len(i.pending) >= i.maxPend && !i.closed {
			i.cond.Wait()
		}
		if i.closed {
			i.mu.Unlock()
			pkt.Release() // stream already ended: recycle the drop
			return
		}
		i.pending = append(i.pending, pkt)
		i.mu.Unlock()
		select {
		case i.kick <- struct{}{}:
		default: // a wake-up is already queued
		}
	case KindException:
		if i.OnException != nil {
			i.OnException(m.Exception)
		}
	}
}

// drainPendingLocked moves parked frames into the channel while both have
// capacity, oldest first. Callers hold i.mu.
func (i *Ingress) drainPendingLocked() {
	n := 0
fill:
	for ; n < len(i.pending); n++ {
		select {
		case i.ch <- i.pending[n]:
			i.pending[n] = nil
		default:
			break fill
		}
	}
	if n > 0 {
		i.cond.Broadcast()
	}
	if i.pending = i.pending[n:]; len(i.pending) == 0 {
		i.pending = nil
	}
}

// Run implements pipeline.Source: it emits received packets until the
// expected number of final markers has arrived. It honors stage pauses even
// while idle — Context.PauseRequested wakes it between frames, so a
// checkpoint or recovery never waits on the next network delivery.
func (i *Ingress) Run(ctx *pipeline.Context, out *pipeline.Emitter) error {
	defer func() {
		i.mu.Lock()
		i.closed = true
		for _, pkt := range i.pending {
			pkt.Release()
		}
		i.pending = nil
		// Deliver sends only under mu and only while open, so once closed
		// is set nothing can land in the channel behind this drain.
		for len(i.ch) > 0 {
			(<-i.ch).Release()
		}
		i.cond.Broadcast()
		i.mu.Unlock()
	}()
	op := i.Tracer.Op("ingress.emit")
	finals := 0
	for {
		select {
		case <-ctx.Done():
			return context.Cause(ctx.Ctx())
		case <-ctx.PauseRequested():
			// Idle pause boundary: park here rather than inside a future
			// emit, so a quiet wire never stalls a checkpoint or recovery.
			if err := ctx.PauseBoundary(); err != nil {
				return err
			}
		case pkt := <-i.ch:
			done, err := i.handle(ctx, out, op, pkt, &finals)
			if done || err != nil {
				return err
			}
		case <-i.kick:
			// Parked frames have one way out — pending → ch → here — so
			// they can never overtake older frames still in the channel.
			// Run is the channel's only consumer: if it is empty after a
			// refill, the lot is empty too.
			for {
				i.mu.Lock()
				i.drainPendingLocked()
				i.mu.Unlock()
				if len(i.ch) == 0 {
					break
				}
				for len(i.ch) > 0 {
					done, err := i.handle(ctx, out, op, <-i.ch, &finals)
					if done || err != nil {
						return err
					}
				}
			}
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
