package obs

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
)

// start is what an instrumented site does per span: Due, then Begin when
// this span is the sampled one. Between samples the span is inert.
func start(op *Op) Span {
	if !op.Due() {
		return Span{}
	}
	return op.Begin()
}

func TestTracerSamplingCadence(t *testing.T) {
	clk := clock.NewManual()
	tr := NewTracer(clk, 4, 16)
	op := tr.Op("op")
	var recorded int
	for i := 0; i < 12; i++ {
		sp := start(op)
		if sp.Sampled() {
			recorded++
			clk.Advance(time.Millisecond)
		}
		sp.End()
	}
	if recorded != 3 {
		t.Fatalf("sampled %d of 12 at 1-in-4, want 3", recorded)
	}
	// The Op published its count at its third sample, the ninth span.
	started, sampled := tr.Counts()
	if started != 9 || sampled != 3 {
		t.Fatalf("counts = %d started / %d sampled, want 9 / 3", started, sampled)
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("retained %d spans", len(spans))
	}
	for _, s := range spans {
		if s.Name != "op" || s.Duration != time.Millisecond {
			t.Fatalf("span %+v, want name=op duration=1ms", s)
		}
	}
}

func TestTracerFirstSpanSampled(t *testing.T) {
	tr := NewTracer(clock.NewManual(), 64, 8)
	if sp := start(tr.Op("first")); !sp.Sampled() {
		t.Fatal("first span must be sampled so short runs still trace")
	}
}

func TestInertSpansAreFree(t *testing.T) {
	// Zero-value span: every method is a no-op.
	var sp Span
	if sp.Sampled() {
		t.Fatal("zero span reports sampled")
	}
	sp.Annotate("k", 1)
	if d := sp.End(); d != 0 {
		t.Fatalf("zero span End = %v", d)
	}

	// Nil tracer: its Op is never due, so its spans are inert.
	var tr *Tracer
	s2 := start(tr.Op("x"))
	if s2.Sampled() {
		t.Fatal("nil tracer produced a sampled span")
	}
	s2.End()
	if got, _ := tr.Counts(); got != 0 {
		t.Fatalf("nil tracer counts = %d", got)
	}
	if tr.Spans() != nil {
		t.Fatal("nil tracer has spans")
	}
}

// TestSampledSpansAreFree: a sampled span holds its annotations inline, so
// starting one, annotating it twice and ending it allocates nothing; the
// slice a reader sees is built when the spans are read, and an annotation
// past maxSpanAttrs is dropped.
func TestSampledSpansAreFree(t *testing.T) {
	tr := NewTracer(clock.NewManual(), 1, 8)
	op := tr.Op("batch")
	allocs := testing.AllocsPerRun(100, func() {
		sp := start(op)
		sp.Annotate("packets", 16)
		sp.Annotate("bytes", 1024)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("sampled span with two annotations: %v allocs, want 0", allocs)
	}
	sp := start(op)
	sp.Annotate("packets", 1)
	sp.Annotate("bytes", 2)
	sp.Annotate("dropped", 3)
	sp.End()
	spans := tr.Spans()
	want := []SpanAttr{{Key: "packets", Value: 1}, {Key: "bytes", Value: 2}}
	if got := spans[len(spans)-1].Attrs; !reflect.DeepEqual(got, want) {
		t.Fatalf("attrs %+v, want %+v", got, want)
	}
	bare := start(op)
	bare.End()
	if spans = tr.Spans(); spans[len(spans)-1].Attrs != nil {
		t.Fatalf("span without annotations reads attrs %+v, want nil (omitted from /traces)", spans[len(spans)-1].Attrs)
	}
}

func TestSpanAnnotationsAndRing(t *testing.T) {
	clk := clock.NewManual()
	tr := NewTracer(clk, 1, 2) // sample everything, keep 2
	op := tr.Op("batch")
	for i := 0; i < 5; i++ {
		sp := start(op)
		sp.Annotate("items", float64(i))
		sp.End()
	}
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("ring retained %d, want 2", len(spans))
	}
	// Oldest-first: the last two recorded were i=3 and i=4.
	if spans[0].Attrs[0].Value != 3 || spans[1].Attrs[0].Value != 4 {
		t.Fatalf("ring order wrong: %+v", spans)
	}
}

func TestSpanDoubleEndRecordsOnce(t *testing.T) {
	tr := NewTracer(clock.NewManual(), 1, 8)
	sp := start(tr.Op("op"))
	sp.End()
	sp.End()
	if _, sampled := tr.Counts(); sampled != 1 {
		t.Fatalf("double End recorded %d spans", sampled)
	}
}

// TestTracerOpCadence pins an Op's contract for a power-of-two period, one
// that is not (there is one code path, so it gets a row, not a branch) and
// the record-everything period: the first span is sampled, then exactly one
// in every; Counts' started is exact right after a sampled span, trails a
// running site by fewer than every between them and never reads below
// sampled; and every Op keeps a cadence of its own.
func TestTracerOpCadence(t *testing.T) {
	for _, every := range []int{1, 3, 64} {
		t.Run(fmt.Sprintf("every=%d", every), func(t *testing.T) {
			tr := NewTracer(clock.NewManual(), every, 16)
			op := tr.Op("a")
			for i := 0; i < 5*every+2; i++ {
				sp := start(op)
				wasSampled := sp.Sampled()
				if want := i%every == 0; wasSampled != want {
					t.Fatalf("span %d: sampled = %v, want %v", i, wasSampled, want)
				}
				sp.End()
				started, sampled := tr.Counts()
				if wantSampled := uint64(i/every + 1); sampled != wantSampled {
					t.Fatalf("after span %d: sampled = %d, want %d", i, sampled, wantSampled)
				}
				real := uint64(i + 1)
				if wasSampled && started != real {
					t.Fatalf("right after sampled span %d: started = %d, want %d", i, started, real)
				}
				if started > real || real-started >= uint64(every) || started < sampled {
					t.Fatalf("after span %d: started = %d with %d really started, %d sampled, every %d",
						i, started, real, sampled, every)
				}
			}
			// b's first span is sampled however many a has burned.
			before, _ := tr.Counts()
			sp := start(tr.Op("b"))
			if !sp.Sampled() {
				t.Fatal("a second op's first span not sampled")
			}
			sp.End()
			if started, _ := tr.Counts(); started != before+1 {
				t.Fatalf("started = %d after a second op's first span, want %d", started, before+1)
			}
		})
	}
}

// TestTracerOpDueBegin checks the split form per-packet sites use: Due counts
// the span whether or not it is the sampled one, and Begin starts exactly the
// spans Due called for.
func TestTracerOpDueBegin(t *testing.T) {
	tr := NewTracer(clock.NewManual(), 3, 16)
	op := tr.Op("x")
	var due int
	for i := 0; i < 9; i++ {
		if op.Due() {
			due++
			sp := op.Begin()
			if !sp.Sampled() {
				t.Fatalf("span %d: Begin returned an inert span", i)
			}
			sp.End()
		}
	}
	if started, sampled := tr.Counts(); due != 3 || sampled != 3 || started != 7 {
		t.Fatalf("due %d, Counts() = %d started, %d sampled; want 3, 7, 3", due, started, sampled)
	}
}

// TestTracerOpCountsWhileRunning is the one sharing an Op allows: its owner
// starts spans while another goroutine reads Counts. Run under -race.
func TestTracerOpCountsWhileRunning(t *testing.T) {
	const spans, every = 100000, 64
	tr := NewTracer(clock.NewManual(), every, 16)
	op := tr.Op("hot")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < spans; i++ {
			if op.Due() {
				sp := op.Begin()
				sp.End()
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if started, sampled := tr.Counts(); started > spans || started < sampled {
			t.Fatalf("Counts() = %d started, %d sampled of %d", started, sampled, spans)
		}
	}
	wantSampled := uint64((spans + every - 1) / every)
	started, sampled := tr.Counts()
	if sampled != wantSampled || started != (wantSampled-1)*every+1 {
		t.Fatalf("final Counts() = %d started, %d sampled; want %d, %d",
			started, sampled, (wantSampled-1)*every+1, wantSampled)
	}
}

func TestTracerOpNil(t *testing.T) {
	var tr *Tracer
	op := tr.Op("x")
	if op != nil {
		t.Fatal("nil tracer returned a non-nil op")
	}
	if op.Due() {
		t.Fatal("nil op reports a span due")
	}
	sp := start(op)
	if sp.Sampled() {
		t.Fatal("nil op produced a sampled span")
	}
	sp.Annotate("k", 1)
	sp.End()
}
