// Package wire holds the primitives of the GATES wire format (DESIGN.md §6):
// integers as varints (signed ones zig-zagged), float64 as eight
// little-endian bytes of its bit pattern, bool as one byte, and a slice as
// its element count followed by the elements. The transport's frame codec
// and every application payload's AppendWire/DecodeWire are written with
// them, so the rules that keep a peer's bytes from costing more than their
// length — every read bounds-checked, every element count checked against
// the bytes left before anything is allocated — are stated once.
package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
)

// ErrMalformed matches (errors.Is) every failure a Reader reports: bytes that
// are not the encoding of a value — truncated, out of range, or longer than
// the value.
var ErrMalformed = errors.New("wire: malformed value")

// AppendInt appends v as a zig-zag varint.
func AppendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

// AppendUint appends v as a varint.
func AppendUint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendFloat64 appends v's IEEE 754 bit pattern, little-endian: NaN payloads
// and the sign of zero cross unchanged.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendInts appends a slice: its length, then each element as AppendInt
// would. The loop is written out — this is the TCP path's hot spot, and a
// call per element that does not inline costs more than the rest of a frame —
// and b grows once, to the longest the elements can encode to, so each byte
// is a store by index rather than an append's capacity check.
func AppendInts(b []byte, v []int) []byte {
	b = slices.Grow(AppendUint(b, uint64(len(v))), len(v)*binary.MaxVarintLen64)
	n, out := len(b), b[:cap(b)]
	for _, x := range v {
		u := uint64(x)<<1 ^ uint64(x>>63) // zig-zag
		for u >= 0x80 {
			out[n] = byte(u) | 0x80
			n++
			u >>= 7
		}
		out[n] = byte(u)
		n++
	}
	return out[:n]
}

// AppendFloat64s appends a slice: its length, then each element as
// AppendFloat64 would.
func AppendFloat64s(b []byte, v []float64) []byte {
	b = AppendUint(b, uint64(len(v)))
	for _, f := range v {
		b = AppendFloat64(b, f)
	}
	return b
}

// Reader consumes primitives from the front of a byte slice. The first
// failure sticks: every later read returns zero, so a decoder reads all its
// fields and checks Done once. A Reader never panics and never allocates.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b. It keeps no reference to b once the
// caller drops the Reader.
func NewReader(b []byte) Reader { return Reader{b: b} }

// malformed is a failure's description; it matches ErrMalformed.
type malformed string

func (m malformed) Error() string        { return ErrMalformed.Error() + ": " + string(m) }
func (m malformed) Is(target error) bool { return target == ErrMalformed }

func (r *Reader) fail(what malformed) {
	if r.err == nil {
		r.err = what
	}
	r.b = nil
}

// Uint reads a varint.
func (r *Reader) Uint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad or truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// UintMax reads a varint that must not exceed max.
func (r *Reader) UintMax(max uint64) uint64 {
	v := r.Uint()
	if v > max {
		r.fail("integer out of range")
		return 0
	}
	return v
}

// Int64 reads a zig-zag varint.
func (r *Reader) Int64() int64 {
	u := r.Uint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a zig-zag varint as an int (64 bits on the wire).
func (r *Reader) Int() int { return int(r.Int64()) }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.b) == 0 {
		r.fail("truncated")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	c := r.Byte()
	if c > 1 {
		r.fail("bool byte out of range")
	}
	return c == 1
}

// Float64 reads eight little-endian bytes as an IEEE 754 bit pattern.
func (r *Reader) Float64() float64 {
	if len(r.b) < 8 {
		r.fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// Count reads a slice's element count and checks it against the bytes left,
// each element taking at least minBytes on the wire: the caller may allocate
// Count elements, which is at most len(remaining)/minBytes of them.
func (r *Reader) Count(minBytes int) int {
	n := r.Uint()
	if n > uint64(len(r.b)/minBytes) {
		r.fail("element count exceeds the bytes that follow")
		return 0
	}
	return int(n)
}

// Ints reads a slice written by AppendInts into a fresh one; a zero-length
// slice is nil. One byte per element is the common case and stays in line
// with the loop.
func (r *Reader) Ints() []int {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out, b, pos := make([]int, n), r.b, 0
	for i := range out {
		if pos >= len(b) {
			r.fail("truncated []int")
			return nil
		}
		u := uint64(b[pos])
		pos++
		if u >= 0x80 {
			u &= 0x7f
			for shift := uint(7); ; shift += 7 {
				if pos >= len(b) || shift > 63 || shift == 63 && b[pos] > 1 {
					r.fail("bad or truncated varint in []int")
					return nil
				}
				c := b[pos]
				pos++
				u |= uint64(c&0x7f) << shift
				if c < 0x80 {
					break
				}
			}
		}
		out[i] = int(u>>1) ^ -int(u&1)
	}
	r.b = b[pos:]
	return out
}

// Float64s reads a slice written by AppendFloat64s into a fresh one; a
// zero-length slice is nil.
func (r *Reader) Float64s() []float64 {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64()
	}
	return out
}

// Rest returns the unread bytes (nil after a failure).
func (r *Reader) Rest() []byte { return r.b }

// Next reads n raw bytes, aliasing the Reader's input; nil after a failure.
func (r *Reader) Next(n int) []byte {
	if n < 0 || n > len(r.b) {
		r.fail("truncated")
		return nil
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

// Done returns the first failure, or an error if bytes are left over: a
// value's encoding has exactly one length.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		r.fail("bytes left over")
	}
	return r.err
}
