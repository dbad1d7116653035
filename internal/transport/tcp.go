package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
)

// labelTransport tags the calling goroutine with stage=transport so
// /debug/pprof profiles attribute framing/decoding CPU to the network plane
// rather than leaving it unlabeled.
func labelTransport() {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("stage", "transport")))
}

// readBufSize is each connection's read buffer: one read(2) picks up a whole
// batch of summary-sized frames instead of two reads per frame.
const readBufSize = 64 << 10

// Handler consumes messages arriving at a Server.
type Handler func(Message)

// readLoop decodes conn's inbound frames one by one, handing each message to
// handler after onFrame (nil-able) has seen its payload size. It returns at
// end of stream, on a broken peer, or on the first frame that does not
// decode: a peer that sends garbage is broken or hostile, not worth a resync.
//
// Once every frame the last read returned has been handed on, the loop
// yields before it reads the socket again. A handler that wakes a parked
// consumer (Ingress.Deliver's Push waking Run) makes it this goroutine's
// runnext, which would otherwise run only after the next read had found the
// socket empty and parked in the netpoller: one wasted read(2) per packet on
// a paced stream. After the yield the consumer runs first and the next read
// usually finds the next frame (DESIGN.md §6).
func readLoop(conn net.Conn, onFrame func(payload int), handler Handler) {
	labelTransport()
	br := bufio.NewReaderSize(conn, readBufSize)
	var dec decoder
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
		if br.Buffered() == 0 {
			runtime.Gosched()
		}
	}
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

	mu     sync.Mutex
	conns  map[net.Conn]bool // true once the handshake is done: Broadcast may write
	closed bool
	wg     sync.WaitGroup
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
	s := &Server{ln: ln, handler: handler, conns: make(map[net.Conn]bool)}
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
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = false
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn checks the peer's preamble, then reads frames until the
// connection ends. A peer with the wrong preamble, or none within the
// deadline, is closed before any frame is read or counted.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	if handshake(conn, false) == nil {
		s.mu.Lock()
		s.conns[conn] = true
		s.mu.Unlock()
		readLoop(conn, func(payload int) {
			s.framesIn.Add(1)
			s.bytesIn.Add(uint64(payload))
		}, s.handler)
	}
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Broadcast writes one message back to every live upstream connection —
// the §4 control plane over TCP: a stage host reports its over/under-load
// exceptions "to the sending server" on the connections that feed it.
// The frame is encoded once and written whole to each connection (a net.Conn
// serializes concurrent Writes). Broken peers are dropped silently (their
// read side ends the connection); a message that cannot be encoded is
// returned as an error and reaches nobody.
func (s *Server) Broadcast(m Message) error {
	frame, err := appendFrame(nil, m)
	if err != nil {
		return err
	}
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c, ready := range s.conns {
		if ready {
			conns = append(conns, c)
		}
	}
	s.mu.Unlock()
	for _, c := range conns {
		if _, err := c.Write(frame); err != nil {
			c.Close()
			continue
		}
		s.framesOut.Add(1)
		s.bytesOut.Add(uint64(len(frame) - 4))
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
	conns := make([]net.Conn, 0, len(s.conns))
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
	buf  []byte // frames encoded since the last write; guarded by mu
}

// ReadLoop consumes messages the server writes back on this connection,
// dispatching each to handler; it returns when the connection closes. Run it
// once, in its own goroutine, to receive the downstream host's load
// exceptions: a second reader would split frames with the first.
func (c *Client) ReadLoop(handler Handler) {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn == nil || handler == nil {
		return
	}
	readLoop(conn, nil, handler)
}

// Dial connects to a Server and exchanges preambles with it: a peer that is
// not a GATES server, or speaks another wire version, fails here with an
// error saying so rather than mid-stream.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	if err := handshake(conn, true); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return &Client{conn: conn}, nil
}

// Send encodes and frames one message and writes it in one conn.Write.
func (c *Client) Send(m Message) error { return c.SendBatch([]Message{m}) }

// SendBatch encodes every message into its own frame and writes them all in
// a single write; peers decode the result exactly as a sequence of Send
// calls. If a message cannot be encoded (an unregistered Value type, a frame
// beyond MaxFrameSize) nothing of the batch is sent and the client stays
// usable.
func (c *Client) SendBatch(msgs []Message) error {
	if len(msgs) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return errors.New("transport: client closed")
	}
	buf := c.buf[:0]
	for _, m := range msgs {
		var err error
		if buf, err = appendFrame(buf, m); err != nil {
			return err
		}
	}
	c.buf = buf[:0] // keep the grown buffer, not its contents
	if _, err := c.conn.Write(buf); err != nil {
		return fmt.Errorf("transport: write frames: %w", err)
	}
	c.framesOut.Add(uint64(len(msgs)))
	c.bytesOut.Add(uint64(len(buf) - 4*len(msgs))) // payload bytes: each frame's prefix excluded
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
