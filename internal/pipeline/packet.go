// Package pipeline implements the GATES stage-execution engine.
//
// An application built on GATES "comprises a set of pipelined stages"; each
// stage "accepts data from one or more input streams and outputs zero or
// more streams" (paper §3.1, goal 2). This package provides the stage
// container: a bounded input queue (the server queue of the §4 model), a
// user-supplied Processor or Source, emitters that carry packets across
// emulated or real links, and the engine's adaptation loop that samples each
// stage's queue, delivers its load exceptions upstream, and then adjusts
// every stage's registered parameters.
package pipeline

import "time"

// Packet is the unit of data flowing between stages. The paper assumes
// "data arrives at a server in fixed-size packets"; applications are free to
// vary sizes, and links charge WireSize bytes per packet.
type Packet struct {
	// SourceStage and SourceInstance identify the emitting stage.
	SourceStage    string
	SourceInstance int
	// Seq is the per-emitter sequence number.
	Seq uint64
	// Value is the in-process payload. To cross a TCP edge it must be one
	// of transport's built-in value types or a registered
	// transport.WireValue.
	Value any
	// Items is the logical item count the packet carries (for accounting
	// and adaptation diagnostics). Zero is treated as one.
	Items int
	// WireSize is the number of bytes this packet occupies on a link.
	// The paper's JVM-era transport wrapped every message in a heavy
	// envelope; experiments model that with explicit wire sizes. Zero is
	// charged as 64 bytes.
	WireSize int
	// Created is the virtual time the packet was emitted.
	Created time.Time
	// Birth is the virtual time the packet's lineage entered the
	// pipeline at a source stage. Unlike Created it is preserved across
	// re-emission: processors' outputs inherit the Birth of the input
	// packet being processed, so sink-side Now()-Birth is the
	// end-to-end latency of the paper's real-time constraint. Zero
	// means "no lineage" (e.g. packets emitted outside any input, by an
	// unobserved engine, or by tests that build packets directly).
	Birth time.Time
	// TraceID is the distributed trace this packet belongs to; 0 means
	// unsampled. Source stages assign ids on the tracer's 1-in-N
	// cadence, downstream emissions inherit them, and the transport
	// carries them across nodes, so one sampled batch produces a span
	// at every stage it crosses.
	TraceID uint64
	// Final marks an end-of-stream control packet; it carries no value.
	// (Declared here with the other sub-word fields so the whole struct
	// packs into two cache lines — recycled packets migrate between the
	// producing and consuming cores on every reuse cycle, and the transfer
	// cost is per line.)
	Final bool
	// TraceHops counts node crossings since the trace root; the remote
	// ingress increments it.
	TraceHops uint8

	// pooled marks a packet owned by the packet pool (see GetPacket);
	// refs counts its outstanding owners. refs is a plain int32 operated
	// on with sync/atomic so Packet values stay copyable (an embedded
	// atomic type would trip go vet's copylocks on existing by-value
	// uses); packets built with &Packet{...} leave both zero and skip
	// the pool lifecycle entirely. Pooled packets must not be copied by
	// value: the copy would inherit the reference count.
	pooled bool
	refs   int32
}

// ItemCount returns Items, treating zero as one.
func (p *Packet) ItemCount() int {
	if p.Items <= 0 {
		return 1
	}
	return p.Items
}

// defaultPacketSize is the wire size charged for packets that do not set
// one.
const defaultPacketSize = 64

// size returns the bytes charged on links: WireSize if set, otherwise
// defaultPacketSize.
func (p *Packet) size() int {
	if p.WireSize > 0 {
		return p.WireSize
	}
	return defaultPacketSize
}
