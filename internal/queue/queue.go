// Package queue implements the bounded, instrumented FIFO that backs every
// stage's input buffer.
//
// Section 4.1 of the GATES paper models each pipeline stage as a server in a
// queuing network whose input buffer is the server's queue; the
// self-adaptation algorithm observes the queue's current length d, its
// recent average, and its capacity C. This package provides exactly that
// observable queue, in one implementation: Ring, a bounded lock-free FIFO
// with a single consumer (the owning stage's drain loop) and either one
// producer (SPSC) or many (MPSC). Pushes and pops are a few atomic
// operations; a goroutine parks on a condition variable only when the ring
// is full or empty. PushBatch/PopBatch move many items per cursor update,
// and Len and Stats are atomic loads, so the adaptation controller's
// periodic sampling never contends with the data path.
package queue

import "errors"

// ErrClosed is returned by Push operations on a closed ring and by Pop
// operations once a closed ring has been fully drained.
var ErrClosed = errors.New("queue: closed")

// ErrEmpty is returned by TryPop when the ring holds no items.
var ErrEmpty = errors.New("queue: empty")

// Stats is a snapshot of a ring's lifetime counters. All counts are
// monotonically non-decreasing for the life of the ring.
type Stats struct {
	// Pushed is the number of items accepted.
	Pushed uint64
	// Popped is the number of items removed.
	Popped uint64
	// BlockedPushes counts push waits — each is one backpressure event
	// propagated to the producer. A batch push that waits for space more
	// than once counts one event per wait episode.
	BlockedPushes uint64
	// BlockedPops counts pop waits for an item.
	BlockedPops uint64
	// HighWater is the maximum occupancy ever observed.
	HighWater int
	// PushStallNS and PopStallNS are the cumulative wall-clock
	// nanoseconds producers spent parked on a full buffer and the
	// consumer spent parked on an empty one. Wall time, not virtual: a
	// parked goroutine does not advance any virtual schedule, and the
	// bottleneck-attribution engine compares these against a wall-clock
	// epoch. Only the parked slow path pays the clock reads.
	PushStallNS uint64
	PopStallNS  uint64
}
