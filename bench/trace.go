package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/gates-middleware/gates/internal/pipeline"
	"github.com/gates-middleware/gates/internal/transport"
)

// The traced run stamps sampled packets at every layer boundary the
// benchmark's own code can see: around the calls it makes into the program
// (source Emit, Egress.Process, Ingress.Deliver) and in the stages it owns
// (relays, sink). Each stamp is one column of a preallocated table, one row
// per sampled packet; nothing is allocated or written while packets flow.
const (
	colDue = iota // open loop only: when the packet was scheduled
	colEmitStart
	colEmitEnd
	colRelay1In
	colRelay1Out
	colRelay2In
	colRelay2Out
	colEgressIn
	colEgressOut
	colDeliverIn
	colDeliverOut
	colSinkIn
	nCols
)

// sampleEvery is the trace sampling period: one packet in 64 is stamped.
const sampleEvery = 64

// maxTraceRows bounds the table: at one row per sampleEvery packets it
// covers 16 M packets per source, more than any trial sends.
const maxTraceRows = 1 << 18

// maxTracePackets bounds the trace file: the hop metrics use every stamped
// packet, the file keeps an even selection of them.
const maxTracePackets = 2048

// tracer is the stamp table. A nil tracer is valid and records nothing,
// which is how the untraced trials run: one nil check per call.
type tracer struct {
	every uint64
	rows  [][][nCols]int64 // [source][row][column] nanos(), 0 = not stamped
}

func newTracer(sources int, every uint64) *tracer {
	t := &tracer{every: every, rows: make([][][nCols]int64, sources)}
	for i := range t.rows {
		t.rows[i] = make([][nCols]int64, maxTraceRows)
	}
	return t
}

func (t *tracer) mark(src int, idx uint64, col int) {
	if t == nil || idx%t.every != 0 {
		return
	}
	t.markAt(src, idx, col, nanos())
}

func (t *tracer) markAt(src int, idx uint64, col int, at int64) {
	if t == nil || idx%t.every != 0 {
		return
	}
	if r := idx / t.every; r < maxTraceRows {
		t.rows[src][r][col] = at
	}
}

// markPayload stamps by the index the payload itself carries, for the
// boundaries that see a packet or message rather than the generator's
// counter.
func (t *tracer) markPayload(v any, col int) {
	if vals, ok := v.([]int); ok && len(vals) > headWords {
		t.mark(vals[wordSrc], uint64(vals[wordIndex]), col)
	}
}

// tracedProc wraps a Processor the benchmark hands to the engine — a relay,
// or the program's own transport.Egress — with a stamp before and after
// Process.
type tracedProc struct {
	inner pipeline.Processor
	tr    *tracer
	in    int // column stamped on entry; in+1 on return
}

func (p *tracedProc) Init(ctx *pipeline.Context) error { return p.inner.Init(ctx) }
func (p *tracedProc) Process(ctx *pipeline.Context, pkt *pipeline.Packet, out *pipeline.Emitter) error {
	// Process may hand the packet on, after which it is not ours to read.
	v := pkt.Value
	p.tr.markPayload(v, p.in)
	err := p.inner.Process(ctx, pkt, out)
	p.tr.markPayload(v, p.in+1)
	return err
}
func (p *tracedProc) Finish(ctx *pipeline.Context, out *pipeline.Emitter) error {
	return p.inner.Finish(ctx, out)
}

// traced returns proc itself when tr is nil, so an untraced trial runs the
// program's processors with nothing in between.
func traced(proc pipeline.Processor, tr *tracer, inCol int) pipeline.Processor {
	if tr == nil {
		return proc
	}
	return &tracedProc{inner: proc, tr: tr, in: inCol}
}

// tracedHandler wraps the transport handler (Ingress.Deliver) the same way.
func tracedHandler(h transport.Handler, tr *tracer) transport.Handler {
	if tr == nil {
		return h
	}
	return func(m transport.Message) {
		tr.markPayload(m.Value, colDeliverIn)
		h(m)
		tr.markPayload(m.Value, colDeliverOut)
	}
}

// span is one interval of one sampled packet's life. Spans of a packet
// share its trace id; Parent names the span that caused this one.
type span struct {
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"` // duration minus the part child spans cover
}

// spanDefs are the child spans of a packet's root span: the intervals the
// table's columns delimit, in path order. The gaps between them (queue
// waits, the socket) are the root's self time.
var spanDefs = []struct {
	name     string
	from, to int
}{
	{"source.emit", colEmitStart, colEmitEnd},
	{"relay1.process", colRelay1In, colRelay1Out},
	{"relay2.process", colRelay2In, colRelay2Out},
	{"egress.process", colEgressIn, colEgressOut},
	{"ingress.deliver", colDeliverIn, colDeliverOut},
}

// spans turns the stamp table into span records: per sampled packet a root
// from its due (or emit) time to its arrival at the sink, and one child per
// stamped layer call.
func (t *tracer) spans() []span {
	complete := 0
	for _, rows := range t.rows {
		for r := range rows {
			if rows[r][colSinkIn] != 0 && rows[r][colEmitStart] != 0 {
				complete++
			}
		}
	}
	stride := complete/maxTracePackets + 1
	var out []span
	seen := 0
	for src, rows := range t.rows {
		for r := range rows {
			row := &rows[r]
			if row[colSinkIn] == 0 || row[colEmitStart] == 0 {
				continue
			}
			if seen++; seen%stride != 0 {
				continue
			}
			id := fmt.Sprintf("%d/%d", src, uint64(r)*t.every)
			start := row[colEmitStart]
			if row[colDue] != 0 {
				start = row[colDue]
			}
			root := span{Trace: id, Name: "packet", StartNS: start, EndNS: row[colSinkIn]}
			root.SelfNS = root.EndNS - root.StartNS
			var kids []span
			for _, d := range spanDefs {
				if row[d.from] == 0 || row[d.to] == 0 {
					continue
				}
				c := span{Trace: id, Name: d.name, Parent: "packet", StartNS: row[d.from], EndNS: row[d.to]}
				c.SelfNS = c.EndNS - c.StartNS
				// A child can outlast the root: a batched stage returns from
				// Process after the sink has already seen the packet.
				lo, hi := max(c.StartNS, root.StartNS), min(c.EndNS, root.EndNS)
				if hi > lo {
					root.SelfNS -= hi - lo
				}
				kids = append(kids, c)
			}
			out = append(out, root)
			out = append(out, kids...)
		}
	}
	return out
}

// gapsUS returns, over the sampled packets that carry both stamps, the
// microseconds between column from and column to.
func (t *tracer) gapsUS(from, to int) []float64 {
	var out []float64
	for _, rows := range t.rows {
		for r := range rows {
			if a, b := rows[r][from], rows[r][to]; a != 0 && b != 0 {
				out = append(out, float64(b-a)/1e3)
			}
		}
	}
	return out
}

// writeTrace stores the spans of one traced trial.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
