package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/pipeline"
)

// frameBytes lays payloads out as the wire does: a 4-byte big-endian length
// before each.
func frameBytes(payloads ...[]byte) []byte {
	var out []byte
	for _, p := range payloads {
		out = binary.BigEndian.AppendUint32(out, uint32(len(p)))
		out = append(out, p...)
	}
	return out
}

func TestReadFrameReuse(t *testing.T) {
	payloads := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{0xAB}, 100_000)}
	r := bufio.NewReader(bytes.NewReader(frameBytes(payloads...)))
	var scratch []byte
	for _, want := range payloads {
		got, err := readFrameReuse(r, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame mismatch: got %d bytes, want %d", len(got), len(want))
		}
	}
	if _, err := readFrameReuse(r, &scratch); !errors.Is(err, io.EOF) {
		t.Fatalf("drained reader returned %v, want EOF", err)
	}
}

func TestFrameTooLargeRead(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, MaxFrameSize+1)
	var scratch []byte
	_, err := readFrameReuse(bufio.NewReader(bytes.NewReader(hdr)), &scratch)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized read = %v, want ErrFrameTooLarge", err)
	}
	if scratch != nil {
		t.Fatalf("oversized length prefix allocated %d bytes", cap(scratch))
	}
}

func TestFrameShortPayload(t *testing.T) {
	trunc := frameBytes([]byte("hello"))[:6] // header + 2 of 5 payload bytes
	var scratch []byte
	if _, err := readFrameReuse(bufio.NewReader(bytes.NewReader(trunc)), &scratch); err == nil {
		t.Fatal("truncated frame read succeeded")
	}
}

// scriptedConn is the read side of a connection whose peer sends one frame
// and then goes quiet: the first Read returns the frame, every later one
// blocks until quiet is closed. Each Read is logged before it does anything.
type scriptedConn struct {
	net.Conn // nil: readLoop only reads
	frame    []byte
	log      func(event string)
	reads    int
	waiting  chan struct{} // closed when the second Read starts
	quiet    chan struct{}
}

func (c *scriptedConn) Read(p []byte) (int, error) {
	c.log("read")
	if c.reads++; c.reads == 1 {
		return copy(p, c.frame), nil
	}
	if c.reads == 2 {
		close(c.waiting)
	}
	<-c.quiet
	return 0, io.EOF
}

// TestReadLoopYieldsToWokenConsumer pins the read loop's hand-off order on
// one P: the handler wakes a consumer that is already parked, as Deliver's
// Push wakes Ingress.Run, and the consumer must run before the loop reads the
// socket again. Reading first costs a paced stream a read(2) that finds the
// socket empty, and a netpoll park, on every packet.
//
// The yield puts the reader on the global run queue, and the scheduler takes
// that queue first on one scheduling tick in 61 (runtime.findRunnable's
// fairness check), so one attempt in ~61 legitimately reads first. The test
// makes up to three attempts; without the yield every attempt reads first.
func TestReadLoopYieldsToWokenConsumer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	frame, err := appendFrame(nil, ExceptionMessage(adapt.ExceptionOverload))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"read", "consumer", "read"}
	var got []string
	for attempt := 0; attempt < 3; attempt++ {
		if got = readLoopHandOff(t, frame); slices.Equal(got, want) {
			return
		}
	}
	t.Fatalf("event log %v on the last of three attempts, want %v: the read loop read the socket again before the consumer it woke ran", got, want)
}

// readLoopHandOff runs readLoop over a scriptedConn serving frame, with a
// handler that wakes a parked consumer, and returns the log of Reads and the
// consumer's run once both Reads have started and the consumer has run.
func readLoopHandOff(t *testing.T, frame []byte) []string {
	var mu sync.Mutex
	var events []string
	logEvent := func(ev string) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	conn := &scriptedConn{frame: frame, log: logEvent,
		waiting: make(chan struct{}), quiet: make(chan struct{})}

	wake, parked, consumed := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(consumed)
		close(parked) // on one P this goroutine runs on into the receive and parks there
		<-wake
		logEvent("consumer")
	}()
	<-parked

	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		readLoop(conn, nil, func(m Message) {
			if m.Kind != KindException {
				t.Errorf("handler got %+v, want the exception frame", m)
			}
			wake <- struct{}{}
		})
	}()
	<-conn.waiting
	<-consumed
	close(conn.quiet)
	<-readDone

	mu.Lock()
	defer mu.Unlock()
	return events
}

func TestCodecPacketRoundTrip(t *testing.T) {
	pkt := &pipeline.Packet{
		SourceStage:    "sampler",
		SourceInstance: 3,
		Seq:            42,
		Items:          7,
		WireSize:       128,
		Value:          "payload",
	}
	b, err := Encode(PacketMessage(pkt))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	var got pipeline.Packet
	m.PacketInto(&got)
	if got.SourceStage != "sampler" || got.SourceInstance != 3 || got.Seq != 42 ||
		got.Items != 7 || got.WireSize != 128 || got.Value.(string) != "payload" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestCodecExceptionRoundTrip(t *testing.T) {
	b, err := Encode(ExceptionMessage(adapt.ExceptionOverload))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindException || m.Exception != adapt.ExceptionOverload {
		t.Fatalf("decoded %+v", m)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a frame")); err == nil {
		t.Fatal("garbage decoded")
	}
	// A message of an unknown kind is refused on both sides.
	if _, err := Encode(Message{}); err == nil {
		t.Fatal("zero-kind message encoded")
	}
	if _, err := Decode([]byte{0}); err == nil {
		t.Fatal("zero-kind message accepted")
	}
}

func TestClientServerEndToEnd(t *testing.T) {
	var mu sync.Mutex
	var got []Message
	srv, err := Listen("127.0.0.1:0", func(m Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	for i := 0; i < 10; i++ {
		if err := cli.Send(PacketMessage(&pipeline.Packet{Seq: uint64(i), Value: i})); err != nil {
			t.Fatal(err)
		}
	}
	cli.Send(ExceptionMessage(adapt.ExceptionUnderload))

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 11 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d messages, want 11", n)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < 10; i++ {
		if got[i].Kind != KindPacket || got[i].Seq != uint64(i) {
			t.Fatalf("message %d = %+v", i, got[i])
		}
	}
	if got[10].Kind != KindException {
		t.Fatalf("last message = %+v, want exception", got[10])
	}
}

func TestConcurrentClients(t *testing.T) {
	var count sync.Map
	srv, err := Listen("127.0.0.1:0", func(m Message) {
		count.Store(m.Value.(int), true)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients, per = 4, 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			for i := 0; i < per; i++ {
				if err := cli.Send(PacketMessage(&pipeline.Packet{Value: c*per + i})); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := 0
		count.Range(func(_, _ any) bool { n++; return true })
		if n == clients*per {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d distinct values, want %d", n, clients*per)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestClientSendAfterClose(t *testing.T) {
	srv, _ := Listen("127.0.0.1:0", func(Message) {})
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cli.Close()
	cli.Close() // idempotent
	if err := cli.Send(ExceptionMessage(adapt.ExceptionOverload)); err == nil {
		t.Fatal("Send on closed client succeeded")
	}
}

func TestListenRequiresHandler(t *testing.T) {
	if _, err := Listen("127.0.0.1:0", nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

// TestBridgedPipelines runs a two-process-shaped topology in one test: an
// upstream engine whose sink is an Egress, TCP in the middle, and a
// downstream engine whose source is an Ingress.
func TestBridgedPipelines(t *testing.T) {
	ingress := NewIngress(1, 16)
	var excs []adapt.Exception
	var excMu sync.Mutex
	ingress.OnException = func(e adapt.Exception) {
		excMu.Lock()
		excs = append(excs, e)
		excMu.Unlock()
	}
	srv, err := Listen("127.0.0.1:0", ingress.Deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Downstream engine: ingress -> collector.
	down := pipeline.New(clock.NewScaled(1000))
	inSt, _ := down.AddSourceStage("ingress", 0, ingress, pipeline.StageConfig{})
	var mu sync.Mutex
	var got []int
	coll := &collectProc{fn: func(v any) {
		mu.Lock()
		got = append(got, v.(int))
		mu.Unlock()
	}}
	collSt, _ := down.AddProcessorStage("collect", 0, coll, pipeline.StageConfig{})
	down.Connect(inSt, collSt, nil)

	downDone := make(chan error, 1)
	go func() { downDone <- down.Run(context.Background()) }()

	// Upstream engine: source -> egress.
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	up := pipeline.New(clock.NewScaled(1000))
	src, _ := up.AddSourceStage("src", 0, &intSource{n: 20}, pipeline.StageConfig{})
	eg, _ := up.AddProcessorStage("egress", 0, NewEgress(cli), pipeline.StageConfig{})
	up.Connect(src, eg, nil)
	if err := up.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-downDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("downstream engine never finished")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 20 {
		t.Fatalf("downstream received %d values, want 20", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestIngressDefaults(t *testing.T) {
	in := NewIngress(0, 0)
	if in.ExpectFinals != 1 {
		t.Fatalf("ExpectFinals default = %d, want 1", in.ExpectFinals)
	}
	if n := in.ring.Cap(); n != 17*64 {
		t.Fatalf("buffer default = %d, want 17×64", n)
	}
}

// intSource emits 0..n-1.
type intSource struct{ n int }

func (s *intSource) Run(ctx *pipeline.Context, out *pipeline.Emitter) error {
	for i := 0; i < s.n; i++ {
		if err := out.EmitValue(i, 8); err != nil {
			return err
		}
	}
	return nil
}

// collectProc calls fn for every received value.
type collectProc struct{ fn func(any) }

func (c *collectProc) Init(*pipeline.Context) error { return nil }
func (c *collectProc) Process(_ *pipeline.Context, pkt *pipeline.Packet, _ *pipeline.Emitter) error {
	c.fn(pkt.Value)
	return nil
}
func (c *collectProc) Finish(*pipeline.Context, *pipeline.Emitter) error { return nil }

// TestExceptionBackChannel exercises the full bidirectional control plane:
// the downstream host broadcasts exceptions and the upstream client's
// ReadLoop delivers them.
func TestExceptionBackChannel(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	got := make(chan Message, 4)
	go cli.ReadLoop(func(m Message) { got <- m })

	// The server only learns of the connection after the first frame.
	if err := cli.Send(PacketMessage(&pipeline.Packet{Value: 1})); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := srv.Broadcast(ExceptionMessage(adapt.ExceptionOverload)); err != nil {
			t.Fatal(err)
		}
		select {
		case m := <-got:
			if m.Kind != KindException || m.Exception != adapt.ExceptionOverload {
				t.Fatalf("back-channel delivered %+v", m)
			}
			return
		case <-time.After(50 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("exception never came back")
			}
		}
	}
}

func TestReadLoopNilSafe(t *testing.T) {
	c := &Client{}
	c.ReadLoop(func(Message) {}) // closed client: returns immediately
	srv, _ := Listen("127.0.0.1:0", func(Message) {})
	defer srv.Close()
	cli, _ := Dial(srv.Addr())
	defer cli.Close()
	cli.ReadLoop(nil) // nil handler: returns immediately
}

func TestSendBatchDeliveredInOrder(t *testing.T) {
	const n = 50
	var mu sync.Mutex
	var seqs []uint64
	done := make(chan struct{})
	srv, err := Listen("127.0.0.1:0", func(m Message) {
		mu.Lock()
		seqs = append(seqs, m.Seq)
		if len(seqs) == n {
			close(done)
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	msgs := make([]Message, n)
	for i := range msgs {
		msgs[i] = PacketMessage(&pipeline.Packet{Seq: uint64(i), Value: i})
	}
	if err := cli.SendBatch(msgs); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("batch not fully delivered")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("message %d has seq %d: batch order not preserved", i, s)
		}
	}
}

func TestSendBatchOnClosedClient(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cli.Close()
	if err := cli.SendBatch([]Message{PacketMessage(&pipeline.Packet{})}); err == nil {
		t.Fatal("SendBatch on closed client succeeded")
	}
}

func TestEgressBatchFlushesAtBatchAndFinish(t *testing.T) {
	var mu sync.Mutex
	var got []Message
	done := make(chan struct{})
	srv, err := Listen("127.0.0.1:0", func(m Message) {
		mu.Lock()
		got = append(got, m)
		if m.Final {
			close(done)
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	eg := NewEgressBatch(cli, 4)
	// 6 packets: one full flush of 4, then 2 flushed by Finish with the
	// final marker.
	for i := 0; i < 6; i++ {
		if err := eg.Process(nil, &pipeline.Packet{Seq: uint64(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := eg.Finish(nil, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("final marker never arrived")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 7 {
		t.Fatalf("received %d messages, want 7 (6 packets + final)", len(got))
	}
	for i := 0; i < 6; i++ {
		if got[i].Seq != uint64(i) || got[i].Final {
			t.Fatalf("message %d = %+v, want seq %d", i, got[i], i)
		}
	}
	if !got[6].Final {
		t.Fatal("last message is not the final marker")
	}
}

func TestCloseWriteDrainsBothDirections(t *testing.T) {
	// The shutdown hazard in a bidirectional bridge: the server pushes an
	// exception the client has not read yet, and the client then ends its
	// stream. A full Close with that frame unread resets the connection,
	// which can destroy the client's still-in-flight frames (including
	// the Final marker) on the server side. CloseWrite must instead
	// deliver every forward frame, leave the reverse frame readable, and
	// only then let the connection wind down.
	var (
		mu    sync.Mutex
		seen  []*pipeline.Packet
		first = make(chan struct{})
		once  sync.Once
		all   = make(chan struct{})
	)
	srv, err := Listen("127.0.0.1:0", func(m Message) {
		if m.Kind != KindPacket {
			return
		}
		mu.Lock()
		pkt := &pipeline.Packet{}
		m.PacketInto(pkt)
		seen = append(seen, pkt)
		n := len(seen)
		mu.Unlock()
		once.Do(func() { close(first) })
		if n == 11 {
			close(all)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// The server only learns of the connection after the first frame.
	if err := cli.Send(PacketMessage(&pipeline.Packet{Seq: 0})); err != nil {
		t.Fatal(err)
	}
	select {
	case <-first:
	case <-time.After(5 * time.Second):
		t.Fatal("server never saw the first frame")
	}
	// Park an exception in the client's receive queue, deliberately
	// unread at half-close time.
	if err := srv.Broadcast(ExceptionMessage(adapt.ExceptionOverload)); err != nil {
		t.Fatal(err)
	}

	msgs := make([]Message, 0, 10)
	for i := 1; i <= 9; i++ {
		msgs = append(msgs, PacketMessage(&pipeline.Packet{Seq: uint64(i)}))
	}
	msgs = append(msgs, PacketMessage(&pipeline.Packet{Final: true}))
	if err := cli.SendBatch(msgs); err != nil {
		t.Fatal(err)
	}
	if err := cli.CloseWrite(); err != nil {
		t.Fatal(err)
	}

	// Every forward frame survives the half-close.
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		t.Fatalf("server received %d of 11 frames after CloseWrite", n)
	}
	mu.Lock()
	if !seen[10].Final {
		t.Error("last delivered frame is not the final marker")
	}
	mu.Unlock()

	// And the reverse direction is still readable afterwards.
	excCh := make(chan adapt.Exception, 1)
	go cli.ReadLoop(func(m Message) {
		if m.Kind == KindException {
			select {
			case excCh <- m.Exception:
			default:
			}
		}
	})
	select {
	case e := <-excCh:
		if e != adapt.ExceptionOverload {
			t.Fatalf("reverse channel delivered %v", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("exception unreadable after CloseWrite")
	}
}

func TestIngressDeliverAfterRunDrops(t *testing.T) {
	// Once the stream has ended, stray packets must be dropped instead of
	// wedging the delivering goroutine (and with it Server.Close) on a
	// full channel.
	ingress := NewIngress(1, 4)
	eng := pipeline.New(clock.NewScaled(1000))
	inSt, _ := eng.AddSourceStage("ingress", 0, ingress, pipeline.StageConfig{})
	sink := &collectProc{fn: func(any) {}}
	sinkSt, _ := eng.AddProcessorStage("sink", 0, sink, pipeline.StageConfig{})
	eng.Connect(inSt, sinkSt, nil)

	ingress.Deliver(PacketMessage(&pipeline.Packet{Final: true}))
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 64; i++ { // far more than the channel buffers
			ingress.Deliver(PacketMessage(&pipeline.Packet{Seq: uint64(i)}))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Deliver blocked after Run returned")
	}
}
