// Package transport carries packets and load exceptions between stage hosts
// over real TCP sockets.
//
// The paper's deployment ran each GATES grid-service instance on its own
// node, exchanging data and control (over/under-load exceptions) over Java
// sockets. This package is the Go equivalent: an explicit, versioned wire
// format (DESIGN.md §6) — a 4-byte preamble from each end, dialer first, then
// length-prefixed frames that each hold one hand-encoded Message — and a
// client/server pair with pipeline bridges (Egress forwards a local stage's
// output to a remote host; Ingress feeds packets received from the network
// into a local engine as a Source). Frames are self-contained: a connection
// keeps no decoder state, so nothing a peer sends can cost more than the
// frame it arrives in, and both ends need only run the same wire version. The
// emulated in-process links in netsim remain the transport used by the
// repeatable experiments; TCP mode is for genuinely distributed runs (see
// cmd/gates-node).
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// WireVersion is the version of the wire format this build speaks: the last
// byte of the preamble. Any change to the frame layout, a built-in value tag
// or a registered payload's encoding raises it.
const WireVersion = 1

// handshakeTimeout bounds the preamble exchange on both ends, so a peer that
// connects and says nothing costs a goroutine for this long, not forever.
// Tests shorten it.
var handshakeTimeout = 5 * time.Second

// handshake exchanges preambles — 'G', 'T', 'S', WireVersion — under
// handshakeTimeout. The ends take turns, the dialer writing first, so the
// exchange completes on a conn with no buffering (net.Pipe) as well as over
// TCP. The listener answers even a wrong preamble, so a peer of another wire
// version learns which one this end speaks.
func handshake(conn net.Conn, dialer bool) error {
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	defer conn.SetDeadline(time.Time{})
	if dialer {
		if err := writePreamble(conn); err != nil {
			return err
		}
	}
	var peer [4]byte
	if _, err := io.ReadFull(conn, peer[:]); err != nil {
		return fmt.Errorf("transport: read preamble: %w", err)
	}
	err := checkPreamble(peer)
	if !dialer {
		if werr := writePreamble(conn); err == nil {
			err = werr
		}
	}
	return err
}

func writePreamble(conn net.Conn) error {
	if _, err := conn.Write([]byte{'G', 'T', 'S', WireVersion}); err != nil {
		return fmt.Errorf("transport: write preamble: %w", err)
	}
	return nil
}

// checkPreamble accepts exactly this build's preamble.
func checkPreamble(peer [4]byte) error {
	if string(peer[:3]) != "GTS" {
		return fmt.Errorf("transport: peer does not speak the GATES wire protocol (preamble %q)", peer[:])
	}
	if peer[3] != WireVersion {
		return fmt.Errorf("transport: peer speaks wire version %d, this build version %d", peer[3], WireVersion)
	}
	return nil
}

// MaxFrameSize bounds a single frame's payload. Frames beyond it are
// rejected on both sides so a corrupt length prefix cannot trigger an
// enormous allocation.
const MaxFrameSize = 16 << 20

// ErrFrameTooLarge is returned for frames exceeding MaxFrameSize.
var ErrFrameTooLarge = errors.New("transport: frame exceeds MaxFrameSize")

// readFrameReuse reads one frame — a 4-byte big-endian payload length, then
// the payload — into *scratch and returns the payload aliasing it; the caller
// must fully consume (or copy from) the payload before the next call.
// Steady-state reads allocate nothing. A frame larger than the scratch grows
// it as the bytes arrive, never on the length prefix's word: capacity at
// most doubles past what has been read, so a peer that announces 16 MB and
// stalls holds one read buffer's worth, not 16 MB.
func readFrameReuse(r *bufio.Reader, scratch *[]byte) ([]byte, error) {
	hdr, err := r.Peek(4) // in place: a header array handed to Read would escape
	if err != nil {
		return nil, err // io.EOF passes through for clean stream end
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	r.Discard(4) // cannot fail: Peek just buffered these bytes
	buf := (*scratch)[:0]
	for len(buf) < n {
		end := min(n, len(buf)+readBufSize)
		if end > cap(buf) {
			buf = append(make([]byte, 0, min(n, max(end, 2*cap(buf)))), buf...)
		}
		if _, err := io.ReadFull(r, buf[len(buf):end]); err != nil {
			return nil, fmt.Errorf("transport: short frame payload: %w", err)
		}
		buf = buf[:end]
	}
	*scratch = buf
	return buf, nil
}
