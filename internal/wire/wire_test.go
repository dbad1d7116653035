package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	ints := []int{0, -1, 63, 64, -64, -65, 1 << 20, math.MaxInt64, math.MinInt64}
	floats := []float64{0, math.Copysign(0, -1), 1.5, math.Inf(-1), math.MaxFloat64}
	b := AppendInt(nil, -300)
	b = AppendUint(b, math.MaxUint64)
	b = AppendFloat64(b, -0.25)
	b = AppendBool(AppendBool(b, true), false)
	b = AppendInts(b, ints)
	b = AppendFloat64s(b, floats)
	b = AppendInts(b, nil)
	b = append(b, 0xAB, 'x', 'y')

	r := NewReader(b)
	if v := r.Int(); v != -300 {
		t.Errorf("Int = %d", v)
	}
	if v := r.Uint(); v != math.MaxUint64 {
		t.Errorf("Uint = %d", v)
	}
	if v := r.Float64(); v != -0.25 {
		t.Errorf("Float64 = %v", v)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool pair did not read true, false")
	}
	if v := r.Ints(); !reflect.DeepEqual(v, ints) {
		t.Errorf("Ints = %v", v)
	}
	if v := r.Float64s(); !reflect.DeepEqual(v, floats) || !math.Signbit(v[1]) {
		t.Errorf("Float64s = %v", v)
	}
	if v := r.Ints(); v != nil {
		t.Errorf("empty Ints = %#v, want nil", v)
	}
	if c := r.Byte(); c != 0xAB {
		t.Errorf("Byte = %#x", c)
	}
	if v := r.Next(2); string(v) != "xy" {
		t.Errorf("Next = %q", v)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRejects: every way bytes can fail to be a value is ErrMalformed,
// and none of them panics or allocates on a count's say-so.
func TestReaderRejects(t *testing.T) {
	overlong := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	tenthByteTooBig := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}
	for name, read := range map[string]func(*Reader){
		"empty varint":       func(r *Reader) { *r = NewReader(nil); r.Uint() },
		"truncated varint":   func(r *Reader) { *r = NewReader([]byte{0x80}); r.Uint() },
		"overlong varint":    func(r *Reader) { *r = NewReader(overlong); r.Uint() },
		"short float":        func(r *Reader) { *r = NewReader(make([]byte, 7)); r.Float64() },
		"bool two":           func(r *Reader) { *r = NewReader([]byte{2}); r.Bool() },
		"out of range":       func(r *Reader) { *r = NewReader([]byte{0x80, 0x80, 0x04}); r.UintMax(math.MaxUint16) },
		"no byte":            func(r *Reader) { *r = NewReader(nil); r.Byte() },
		"next past end":      func(r *Reader) { *r = NewReader([]byte{1, 2}); r.Next(3) },
		"next negative":      func(r *Reader) { *r = NewReader([]byte{1, 2}); r.Next(-1) },
		"count past end":     func(r *Reader) { *r = NewReader([]byte{3, 1, 2}); r.Count(1) },
		"count of wide":      func(r *Reader) { *r = NewReader(append([]byte{2}, make([]byte, 15)...)); r.Count(8) },
		"huge count":         func(r *Reader) { *r = NewReader(append(overlong[:8:8], 0x40, 1, 2)); r.Ints() }, // 2^62 elements
		"ints truncated":     func(r *Reader) { *r = NewReader([]byte{2, 1, 0x80}); r.Ints() },
		"ints overlong":      func(r *Reader) { *r = NewReader(append([]byte{1}, overlong...)); r.Ints() },
		"ints tenth byte":    func(r *Reader) { *r = NewReader(append([]byte{1}, tenthByteTooBig...)); r.Ints() },
		"floats count":       func(r *Reader) { *r = NewReader(append([]byte{2}, make([]byte, 15)...)); r.Float64s() },
		"bytes left over":    func(r *Reader) { *r = NewReader([]byte{1, 0}); r.Byte() },
		"sticky first error": func(r *Reader) { *r = NewReader([]byte{0x80}); r.Uint(); r.Byte(); r.Float64() },
	} {
		var r Reader
		read(&r)
		if err := r.Done(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: Done = %v, want ErrMalformed", name, err)
		}
		if r.Rest() != nil || r.Int() != 0 || r.Ints() != nil || r.Next(0) != nil {
			t.Errorf("%s: a failed Reader still yields values", name)
		}
	}
}

// TestAppendIntsMatchesVarint: AppendInts writes by index into capacity it
// grew once, and its bytes are the length as a uvarint followed by each
// element exactly as binary.AppendVarint encodes it — at every varint length
// boundary, at both ends of int64, and whether or not b already had room.
func TestAppendIntsMatchesVarint(t *testing.T) {
	edges := []int{0, 63, -63, 64, -64, 8191, -8191, 8192, -8192, math.MinInt64, math.MaxInt64}
	rng := rand.New(rand.NewSource(1))
	random := make([]int, 500)
	for i := range random {
		random[i] = int(rng.Uint64()) >> rng.Intn(64) // every encoded length
	}
	for _, v := range [][]int{nil, edges, random} {
		want := binary.AppendUvarint([]byte("prefix"), uint64(len(v)))
		for _, x := range v {
			want = binary.AppendVarint(want, int64(x))
		}
		for name, b := range map[string][]byte{
			"no spare capacity": []byte("prefix")[:6:6],
			"spare capacity":    append(make([]byte, 0, 4096), "prefix"...),
		} {
			if got := AppendInts(b, v); !bytes.Equal(got, want) {
				t.Errorf("%d ints, %s: AppendInts = %x, want %x", len(v), name, got, want)
			}
		}
	}
}
