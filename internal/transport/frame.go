// Package transport carries packets and load exceptions between stage hosts
// over real TCP sockets.
//
// The paper's deployment ran each GATES grid-service instance on its own
// node, exchanging data and control (over/under-load exceptions) over Java
// sockets. This package is the Go equivalent: one gob stream per connection
// and direction, cut into length-prefixed frames, and a client/server pair
// with pipeline bridges (Egress forwards a local stage's output to a remote
// host; Ingress feeds packets received from the network into a local engine
// as a Source). Frames are not self-contained — type descriptors cross the
// wire once per connection — so a decode error ends the connection and both
// ends must run the same build. The emulated in-process links in netsim
// remain the transport used by the repeatable experiments; TCP mode is for
// genuinely distributed runs (see cmd/gates-node).
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrameSize bounds a single frame's payload. Frames beyond it are
// rejected on both sides so a corrupt length prefix cannot trigger an
// enormous allocation.
const MaxFrameSize = 16 << 20

// ErrFrameTooLarge is returned for frames exceeding MaxFrameSize.
var ErrFrameTooLarge = errors.New("transport: frame exceeds MaxFrameSize")

// readFrameReuse reads one frame — a 4-byte big-endian payload length, then
// the payload — into *scratch, growing it only when a frame exceeds its
// capacity, and returns the payload aliasing *scratch. Steady-state reads
// therefore allocate nothing. The caller must fully consume (or copy from)
// the payload before the next call.
func readFrameReuse(r *bufio.Reader, scratch *[]byte) ([]byte, error) {
	hdr, err := r.Peek(4) // in place: a header array handed to Read would escape
	if err != nil {
		return nil, err // io.EOF passes through for clean stream end
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	r.Discard(4) // cannot fail: Peek just buffered these bytes
	if uint32(cap(*scratch)) < n {
		*scratch = make([]byte, n)
	}
	payload := (*scratch)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("transport: short frame payload: %w", err)
	}
	return payload, nil
}
