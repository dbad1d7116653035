package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime/pprof"
	"sync"
	"sync/atomic"
)

// labelTransport tags the calling goroutine with stage=transport so the
// obs.Profiler attributes framing/decoding CPU to the network plane rather
// than leaving it unlabeled.
func labelTransport() {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("stage", "transport")))
}

// readBufSize is each connection's read buffer: one read(2) picks up a whole
// batch of summary-sized frames instead of two reads per frame.
const readBufSize = 64 << 10

// Handler consumes messages arriving at a Server.
type Handler func(Message)

// readLoop decodes conn's inbound gob stream frame by frame, handing each
// message to handler after onFrame (nil-able) has seen its payload size. It
// returns at end of stream, on a broken peer, or on the first frame that
// does not decode — a stateful stream cannot resync past one.
func readLoop(conn net.Conn, onFrame func(payload int), handler Handler) {
	labelTransport()
	br := bufio.NewReaderSize(conn, readBufSize)
	dec := newStreamDecoder()
	var scratch []byte // reused: the decoder copies everything it keeps
	for {
		frame, err := readFrameReuse(br, &scratch)
		if err != nil {
			return
		}
		if onFrame != nil {
			onFrame(len(frame))
		}
		msg, err := dec.decode(frame)
		if err != nil {
			return
		}
		handler(msg)
	}
}

// upstream is one accepted connection and the gob stream the server writes
// back on it. enc is guarded by Server.writeMu.
type upstream struct {
	net.Conn
	enc *streamEncoder
}

// Server accepts stage-to-stage connections and dispatches every decoded
// message to its handler. It is the listening half of a GATES grid-service
// instance's network endpoint.
type Server struct {
	ln      net.Listener
	handler Handler

	framesIn  atomic.Uint64
	bytesIn   atomic.Uint64
	framesOut atomic.Uint64 // broadcast (exception) frames written back
	bytesOut  atomic.Uint64

	mu      sync.Mutex
	writeMu sync.Mutex
	conns   map[*upstream]bool
	closed  bool
	wg      sync.WaitGroup
}

// Listen starts a server on addr ("host:port"; ":0" picks a free port).
func Listen(addr string, handler Handler) (*Server, error) {
	if handler == nil {
		return nil, errors.New("transport: Listen requires a handler")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, handler: handler, conns: make(map[*upstream]bool)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	labelTransport()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		conn := &upstream{Conn: nc, enc: newStreamEncoder()}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn *upstream) {
	defer s.wg.Done()
	readLoop(conn, func(payload int) {
		s.framesIn.Add(1)
		s.bytesIn.Add(uint64(payload))
	}, s.handler)
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Broadcast writes one message back to every live upstream connection —
// the §4 control plane over TCP: a stage host reports its over/under-load
// exceptions "to the sending server" on the connections that feed it.
// Each connection has its own gob stream, so the message is encoded once per
// connection (exceptions are rare and tiny). Broken peers are dropped
// silently (their read side ends the connection); a message that cannot be
// encoded is returned as an error and costs the peer it was tried on.
func (s *Server) Broadcast(m Message) error {
	s.mu.Lock()
	conns := make([]*upstream, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		s.writeMu.Lock()
		n, err := c.enc.appendFrame(m)
		if err != nil {
			s.writeMu.Unlock()
			c.Close() // its stream is broken for good
			return err
		}
		err = c.enc.flush(c)
		s.writeMu.Unlock()
		if err != nil {
			c.Close()
			continue
		}
		s.framesOut.Add(1)
		s.bytesOut.Add(uint64(n))
	}
	return nil
}

// Close stops accepting, closes every live connection, and waits for the
// serving goroutines to drain. It is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*upstream, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// Client is the sending half of a stage-to-stage connection. It is safe for
// concurrent use. Messages the peer writes back (load exceptions) are
// consumed by ReadLoop.
type Client struct {
	framesOut atomic.Uint64
	bytesOut  atomic.Uint64

	mu   sync.Mutex
	conn net.Conn
	enc  *streamEncoder // the outbound gob stream; guarded by mu
}

// ReadLoop consumes messages the server writes back on this connection,
// dispatching each to handler; it returns when the connection closes. Run it
// once, in its own goroutine, to receive the downstream host's load
// exceptions: it owns the inbound stream's decoder, and a second call would
// start mid-stream without the type descriptors.
func (c *Client) ReadLoop(handler Handler) {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn == nil || handler == nil {
		return
	}
	readLoop(conn, nil, handler)
}

// Dial connects to a Server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, enc: newStreamEncoder()}, nil
}

// Send encodes and frames one message and writes it in one conn.Write.
func (c *Client) Send(m Message) error { return c.SendBatch([]Message{m}) }

// SendBatch appends every message to the connection's gob stream, one frame
// each, and flushes them in a single write; peers decode the result exactly
// as a sequence of Send calls. A message that cannot be encoded (an
// unregistered Value type, a frame beyond MaxFrameSize) sends nothing and
// breaks the client: every later send fails rather than corrupt the peer.
func (c *Client) SendBatch(msgs []Message) error {
	if len(msgs) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return errors.New("transport: client closed")
	}
	var total uint64
	for _, m := range msgs {
		n, err := c.enc.appendFrame(m)
		if err != nil {
			return err
		}
		total += uint64(n)
	}
	if err := c.enc.flush(c.conn); err != nil {
		return fmt.Errorf("transport: write frames: %w", err)
	}
	c.framesOut.Add(uint64(len(msgs)))
	c.bytesOut.Add(total)
	return nil
}

// CloseWrite half-closes the connection: the peer observes end-of-stream
// only after draining every frame already sent, while exception traffic
// flowing back stays readable here. Use it (followed by waiting for
// ReadLoop to end) instead of an immediate Close when reverse traffic may
// be in flight: fully closing a socket with unread data queued locally
// resets the connection, and the reset can destroy frames — including the
// end-of-stream marker — that the peer has not yet read.
func (c *Client) CloseWrite() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	if cw, ok := c.conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}

// Close shuts the connection down. It is idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}
