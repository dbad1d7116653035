package main

import (
	"time"

	streams "github.com/gates-middleware/gates/internal/workload"
)

// Every packet the benchmark sends carries a []int: three header words the
// generator stamps per packet, then seeded data words the sink checks.
const (
	wordIndex = 0 // per-source packet index, from 0, +1 per packet
	wordStamp = 1 // nanos() the latency clock starts at, 0 = not sampled
	wordSrc   = 2 // source ordinal
	headWords = 3
)

// payloads is one source's seeded payload ring. The program under test sees
// only these slices; the seed reaches nothing else. Slot i%len(boxed) backs
// packet i, so the ring must be longer than the number of packets one source
// can have in flight — if it were not, the sink would read a younger index
// than it expects and count the packet as failed.
//
// Values are boxed once here, so handing a slot to Packet.Value costs no
// allocation per packet: the in-process workloads measure the pipeline's
// allocations, not the generator's.
type payloads struct {
	src   int
	boxed []any // each a []int of the workload's word count
	sums  []uint64
}

// newPayloads fills a ring of slots payloads, words ints each (header
// included), with Zipf-distributed values — the count-samps stream shape
// (s = 1.5 over 50 000 values), whose small common values and rare large
// ones exercise the codec's variable-length integers.
func newPayloads(seed int64, src, slots, words int) *payloads {
	if words < headWords+1 {
		words = headWords + 1
	}
	z := streams.NewZipf(seed+int64(src)*7919, 1.5, 50_000)
	p := &payloads{src: src, boxed: make([]any, slots), sums: make([]uint64, slots)}
	for i := range p.boxed {
		vals := make([]int, words)
		vals[wordSrc] = src
		for j := headWords; j < words; j++ {
			vals[j] = z.Next()
		}
		p.boxed[i] = vals
		p.sums[i] = checksum(vals)
	}
	return p
}

// stamp prepares the slot for packet idx and returns it ready for
// Packet.Value.
func (p *payloads) stamp(idx uint64, stampNS int64) any {
	v := p.boxed[idx%uint64(len(p.boxed))]
	vals := v.([]int)
	vals[wordIndex] = int(idx)
	vals[wordStamp] = int(stampNS)
	return v
}

// want is the checksum the generator computed for packet idx's data words.
func (p *payloads) want(idx uint64) uint64 { return p.sums[idx%uint64(len(p.sums))] }

// checksum is FNV-1a over the data words of a payload (the header words
// change per packet and are verified by their own rules).
func checksum(vals []int) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vals[headWords:] {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// procStart anchors nanos(); only differences are ever used.
var procStart = time.Now()

// nanos is the benchmark's own monotonic clock. Every engine in a workload
// runs in this process, so source and sink read the same clock whatever
// (real, scaled or manual) clock the engine under test was given.
func nanos() int64 { return int64(time.Since(procStart)) }

// dueNS is the open-loop schedule: packet k of a stream offered at rate
// packets per second is due k/rate seconds after the stream starts, uniformly
// spaced (the sources GATES serves are instruments, not users). Computed
// from k each time so rounding never accumulates.
func dueNS(k uint64, rate float64) int64 {
	return int64(float64(k) * 1e9 / rate)
}

// waitUntil polls the clock until nanos() reaches due and returns how late
// it got there. It does not sleep: the paced generator shares its one CPU
// with the path it feeds and only waits while that path is idle, so spinning
// costs the path nothing, whereas a sleeping virtual CPU is handed to the
// machine's other tenants and comes back with cold caches (measured: the
// paced p50 rose 50 % in the machine's slow episodes with a sleeping
// generator, against 15 % for everything that stays busy).
func waitUntil(due int64) time.Duration {
	for {
		if now := nanos(); now >= due {
			return time.Duration(now - due)
		}
	}
}
