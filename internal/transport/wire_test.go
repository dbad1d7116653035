package transport_test

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/adapt"
	"github.com/gates-middleware/gates/internal/apps/compsteer"
	"github.com/gates-middleware/gates/internal/apps/countsamps"
	"github.com/gates-middleware/gates/internal/apps/intrusion"
	"github.com/gates-middleware/gates/internal/apps/surveillance"
	"github.com/gates-middleware/gates/internal/apps/tieredfilter"
	"github.com/gates-middleware/gates/internal/builtin"
	"github.com/gates-middleware/gates/internal/clock"
	. "github.com/gates-middleware/gates/internal/transport"
	"github.com/gates-middleware/gates/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/wire_v1 from what this build encodes")

func packet(v any) Message {
	return Message{Kind: KindPacket, SourceStage: "src", SourceInstance: 2, Seq: 300, Items: 3, WireSize: 1024, Value: v}
}

// goldenMessages is one message per thing the format can say: every built-in
// value tag, every struct builtin.RegisterWireTypes registers, an exception,
// an end-of-stream marker and a traced packet with a birth time.
var goldenMessages = []struct {
	name string
	m    Message
}{
	{"nil", packet(nil)},
	{"int", packet(-42)},
	{"int64", packet(int64(math.MinInt64))},
	{"uint64", packet(uint64(math.MaxUint64))},
	{"float64", packet(-0.5)},
	{"bool", packet(true)},
	{"string", packet("grid")},
	{"ints", packet([]int{0, -1, 63, 64, -65, 50_000, math.MaxInt64})},
	{"float64s", packet([]float64{1.5, math.Inf(-1)})},
	{"bytes", packet([]byte{0xCA, 0xFE})},
	{"summary", packet(&countsamps.Summary{SourceInstance: 2, Span: 2500,
		Entries: []workload.ValueCount{{Value: 5, Count: 11}, {Value: -7, Count: 0.25}}})},
	{"connbatch", packet(&intrusion.ConnBatch{Site: 1, Records: []intrusion.Conn{{Src: 0xBADF00D, Port: 443}, {Src: 1, Port: 22}}})},
	{"sitereport", packet(&intrusion.SiteReport{Site: 3, Span: 500, Talkers: []workload.ValueCount{{Value: 0xBADF00D, Count: 800}}})},
	{"frame", packet(&surveillance.Frame{Camera: 1, Seq: 9, Objects: []int{2, 5, 7}, Bytes: 65536})},
	{"detections", packet(&surveillance.Detections{Camera: 1, Seq: 9, Objects: []int{2, 5}})},
	{"eventbatch", packet(&tieredfilter.EventBatch{Detector: 4, Events: []tieredfilter.Event{
		{ID: 77, Energy: 4.5, Quality: 3.25, Signal: true}, {ID: 78, Energy: 0.5, Quality: 1}}})},
	{"meshchunk", packet(&compsteer.MeshChunk{Region: 6, Values: []float64{0.125, -2}})},
	{"steeringcommand", packet(&compsteer.SteeringCommand{Region: 6, Severity: 1.75})},
	{"exception", ExceptionMessage(adapt.ExceptionUnderload)},
	{"final", Message{Kind: KindPacket, Final: true}},
	{"traced", Message{Kind: KindPacket, SourceStage: "sampler", Seq: 9, Value: 1,
		Birth: clock.Epoch.Add(1500 * time.Millisecond), TraceID: 0xDEADBEEF, TraceHops: 2}},
}

// TestWireGoldenBytes pins wire version 1: each message must encode to the
// hex committed under testdata/wire_v1 and that hex must decode back to the
// message, so a layout change fails here instead of between two builds. A
// deliberate change raises WireVersion and gets a new directory
// (go test -run TestWireGoldenBytes -update writes it).
func TestWireGoldenBytes(t *testing.T) {
	builtin.RegisterWireTypes()
	covered := map[reflect.Type]bool{}
	for _, g := range goldenMessages {
		covered[reflect.TypeOf(g.m.Value)] = true
		path := filepath.Join("testdata", fmt.Sprintf("wire_v%d", WireVersion), g.name+".hex")
		got, err := Encode(g.m)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if *update {
			if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := hex.DecodeString(strings.TrimSpace(string(file)))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s encodes to\n  %x\nwire version %d says\n  %x", g.name, got, WireVersion, want)
		}
		back, err := Decode(want)
		if err != nil {
			t.Fatalf("%s: golden bytes do not decode: %v", g.name, err)
		}
		if !back.Birth.Equal(g.m.Birth) {
			t.Errorf("%s: birth %v decoded as %v", g.name, g.m.Birth, back.Birth)
		}
		back.Birth = g.m.Birth // the instant crosses, its zone and monotonic reading do not
		if !reflect.DeepEqual(back, g.m) {
			t.Errorf("%s: golden bytes decode to\n  %+v\nwant\n  %+v", g.name, back, g.m)
		}
	}
	for _, v := range builtin.WireTypes() {
		if !covered[reflect.TypeOf(v)] {
			t.Errorf("builtin.WireTypes lists %T, which has no golden message", v)
		}
	}
}

// TestWireEdgeValuesCrossLoopback sends the values a hand-written codec gets
// wrong through SendBatch and a real socket, in one batch, and compares what
// the server's handler receives. builtin.RegisterWireTypes is deliberately
// not called here: []int and the other built-in tags need no registration.
func TestWireEdgeValuesCrossLoopback(t *testing.T) {
	nan := math.Float64frombits(0x7FF8_0000_DEAD_BEEF) // a NaN with a payload
	type edge struct {
		name string
		send Message
		want any // the Value that must arrive; nil-ness of slices does not cross
	}
	val := func(name string, v, want any) edge {
		return edge{name, Message{Kind: KindPacket, Value: v}, want}
	}
	edges := []edge{
		val("negative int", -1, -1),
		val("min int", math.MinInt64, math.MinInt64),
		val("max int", math.MaxInt64, math.MaxInt64),
		val("min int64", int64(math.MinInt64), int64(math.MinInt64)),
		val("max uint64", uint64(math.MaxUint64), uint64(math.MaxUint64)),
		val("extreme ints", []int{math.MinInt64, -1, 0, 1, math.MaxInt64}, []int{math.MinInt64, -1, 0, 1, math.MaxInt64}),
		val("nil ints", []int(nil), []int(nil)),
		val("empty ints", []int{}, []int(nil)), // a zero-length slice decodes as nil
		val("nil bytes", []byte(nil), []byte(nil)),
		val("empty bytes", []byte{}, []byte(nil)),
		val("empty float64s", []float64{}, []float64(nil)),
		val("empty string", "", ""),
		val("non-ASCII string", "μ-stream ✓", "μ-stream ✓"),
		val("untyped nil", nil, nil),
		val("false", false, false),
		{"empty stage", Message{Kind: KindPacket, SourceStage: "", Value: 1}, 1},
		{"non-ASCII stage", Message{Kind: KindPacket, SourceStage: "étape-λ", SourceInstance: -3, Value: 1}, 1},
		{"zero birth", Message{Kind: KindPacket, Value: 1}, 1},
		{"epoch birth", Message{Kind: KindPacket, Birth: clock.Epoch, Value: 1}, 1},
		{"local-zone birth", Message{Kind: KindPacket, Birth: clock.Epoch.In(time.FixedZone("x", 3600)), Value: 1}, 1},
		{"hops without id", Message{Kind: KindPacket, TraceHops: 3, Value: 1}, 1},
	}
	floats := []float64{nan, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.SmallestNonzeroFloat64}

	got := make(chan Message, len(edges)+2)
	srv, err := Listen("127.0.0.1:0", func(m Message) { got <- m })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	batch := []Message{{Kind: KindPacket, Value: floats}, {Kind: KindPacket, Value: nan}}
	for _, e := range edges {
		batch = append(batch, e.send)
	}
	if err := cli.SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	recv := func() Message {
		select {
		case m := <-got:
			return m
		case <-time.After(5 * time.Second):
			t.Fatal("batch not fully delivered")
			panic("unreachable")
		}
	}

	// Floats compare by bit pattern: NaN != NaN, and -0 == +0.
	arrived := append(recv().Value.([]float64), recv().Value.(float64))
	for i, want := range append(floats, nan) {
		if math.Float64bits(arrived[i]) != math.Float64bits(want) {
			t.Errorf("float %d: sent bits %#x, got %#x", i, math.Float64bits(want), math.Float64bits(arrived[i]))
		}
	}
	for _, e := range edges {
		m := recv()
		if !reflect.DeepEqual(m.Value, e.want) {
			t.Errorf("%s: value arrived as %#v, want %#v", e.name, m.Value, e.want)
		}
		if !m.Birth.Equal(e.send.Birth) || m.Birth.IsZero() != e.send.Birth.IsZero() {
			t.Errorf("%s: birth %v arrived as %v", e.name, e.send.Birth, m.Birth)
		}
		m.Value, m.Birth, e.send.Value, e.send.Birth = nil, time.Time{}, nil, time.Time{}
		if !reflect.DeepEqual(m, e.send) {
			t.Errorf("%s: header arrived as %+v, want %+v", e.name, m, e.send)
		}
	}
}

// heldBytes is the memory a decoded value holds: itself, and the full
// capacity of every slice and string in it.
func heldBytes(v reflect.Value) int {
	if !v.IsValid() {
		return 0
	}
	held := int(v.Type().Size())
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			held += heldBytes(v.Elem())
		}
	case reflect.String:
		held += v.Len()
	case reflect.Slice:
		held += v.Cap() * int(v.Type().Elem().Size()) // elements are flat in every payload type
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			held += heldBytes(v.Field(i)) - int(v.Field(i).Type().Size()) // counted in the struct's own size
		}
	}
	return held
}

// FuzzWireValues feeds arbitrary bytes to every value decoder a peer can
// reach — each built-in tag and each registered struct's DecodeWire — as the
// value of an otherwise valid packet frame. No input may panic or allocate
// more than a small multiple of its length, and whatever decodes must
// re-encode to bytes that decode to the same value, with no room for a
// trailing byte.
func FuzzWireValues(f *testing.F) {
	builtin.RegisterWireTypes()
	header, err := EncodeFresh(Message{Kind: KindPacket, SourceStage: "s"})
	if err != nil {
		f.Fatal(err)
	}
	header = header[:len(header)-1] // drop the nil value's tag: the fuzzer supplies tag and value
	for _, g := range goldenMessages {
		if frame, err := EncodeFresh(Message{Kind: KindPacket, SourceStage: "s", Value: g.m.Value}); err == nil {
			f.Add(frame[len(header):])
		}
	}
	f.Fuzz(func(t *testing.T, tagged []byte) {
		frame := append(bytes.Clone(header), tagged...)
		m, err := DecodeFresh(frame)
		if err != nil {
			return
		}
		// The densest value is an []int of one-byte elements: 8 bytes of
		// slice per byte of input.
		if held := heldBytes(reflect.ValueOf(m.Value)); held > 16*len(tagged)+64 {
			t.Fatalf("%d bytes of value decoded into %d bytes: %#v", len(tagged), held, m.Value)
		}
		again, err := EncodeFresh(m)
		if err != nil {
			t.Fatalf("decoded %#v, which does not encode: %v", m.Value, err)
		}
		m2, err := DecodeFresh(again)
		if err != nil {
			t.Fatalf("re-encoding of %#v does not decode: %v", m.Value, err)
		}
		if third, _ := EncodeFresh(m2); !bytes.Equal(again, third) { // by bytes: NaN is not DeepEqual to itself
			t.Fatalf("value changed across a round trip: %#v then %#v", m.Value, m2.Value)
		}
		if _, err := DecodeFresh(append(again, 0)); err == nil {
			t.Fatalf("a trailing byte after %#v decoded", m.Value)
		}
	})
}
