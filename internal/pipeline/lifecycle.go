package pipeline

import (
	"context"
	"errors"
	"fmt"

	"github.com/gates-middleware/gates/internal/obs"
)

// ErrStopped is wrapped by Pause when the stage has stopped: before the
// call, while the call waited its turn, or while the stage drained.
var ErrStopped = errors.New("stage stopped")

// StageState is one phase of a stage instance's lifecycle. A stage is born
// Init, becomes Running when the engine starts it, and ends Stopped. A
// pause request moves it Running → Draining (the stage finishes its current
// work item) → Paused (the goroutine is parked at a drain boundary); Resume
// returns it to Running. The Draining/Paused leg is what live migration
// stands on: a Paused stage holds no in-flight packet, so its processor
// state and queued input can be captured and moved consistently.
type StageState int32

const (
	// StateInit is the pre-run state: registered, not yet started.
	StateInit StageState = iota
	// StateRunning is the normal pop-process-emit (or generate) loop.
	StateRunning
	// StateDraining means a pause was requested and the stage is
	// finishing its current work item before parking.
	StateDraining
	// StatePaused means the stage goroutine is parked at a drain
	// boundary with no packet in flight; its input queue keeps accepting
	// pushes (backpressure applies once full), so pausing loses nothing.
	StatePaused
	// StateStopped is terminal: the stage ran to completion or failed.
	StateStopped
)

// String renders the state name.
func (s StageState) String() string {
	switch s {
	case StateInit:
		return "init"
	case StateRunning:
		return "running"
	case StateDraining:
		return "draining"
	case StatePaused:
		return "paused"
	case StateStopped:
		return "stopped"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Snapshotter is implemented by Processors and Sources whose state must
// survive a move between nodes. Snapshot serializes the live state;
// Restore replaces the current state with a previously captured one. Both
// are called only while the owning stage is Paused, so implementations
// need no locking against Process/Run.
type Snapshotter interface {
	Snapshot() ([]byte, error)
	Restore([]byte) error
}

// Snapshotter returns the stage's user code as a Snapshotter when it
// implements the interface.
func (s *Stage) Snapshotter() (Snapshotter, bool) {
	if sn, ok := s.proc.(Snapshotter); ok {
		return sn, true
	}
	if sn, ok := s.src.(Snapshotter); ok {
		return sn, true
	}
	return nil, false
}

// IsSource reports whether the stage generates its own stream (no inputs).
func (s *Stage) IsSource() bool { return s.src != nil }

// State returns the stage's current lifecycle state.
func (s *Stage) State() StageState { return StageState(s.state.Load()) }

// toState transitions the lifecycle state and records the edge in the obs
// journal (when the stage is observed).
func (s *Stage) toState(to StageState) {
	from := StageState(s.state.Swap(int32(to)))
	if from == to || s.o == nil {
		return
	}
	s.recordTransition(from, to)
}

// markStarted moves Init → Running when the engine launches the stage
// goroutine. A pause requested before the run began (state already
// Draining) is left in place; the stage parks at its first drain boundary.
func (s *Stage) markStarted() {
	if s.state.CompareAndSwap(int32(StateInit), int32(StateRunning)) && s.o != nil {
		s.recordTransition(StateInit, StateRunning)
	}
}

// recordTransition journals one lifecycle edge of an observed stage.
func (s *Stage) recordTransition(from, to StageState) {
	s.o.Journal.Record(obs.Event{
		Kind:     obs.EventLifecycle,
		Stage:    s.id,
		Instance: s.instance,
		Node:     s.Node(),
		Detail:   from.String() + " → " + to.String(),
		Payload:  obs.Lifecycle{From: from.String(), To: to.String()},
	})
	s.o.Log().Debug("stage lifecycle",
		"stage", s.id, "instance", s.instance, "node", s.Node(),
		"from", from.String(), "to", to.String())
}

// Pause asks the stage to drain its current work item and park, and blocks
// until it is Paused. A pause is a lock: nil means the caller holds the pause
// until it calls Resume; an error means it holds nothing. While another
// pause is in flight (the stage is Draining or Paused), Pause waits for that
// holder's Resume and then takes its own. The input queue stays open:
// producers keep pushing until it fills, then block — nothing is dropped.
// Pause fails with ErrStopped once the stage has stopped, and with ctx's
// error when ctx expires first; a request the stage has not yet parked for
// is then taken back, and a stage that parked for it meanwhile is released.
func (s *Stage) Pause(ctx context.Context) error {
	for {
		s.pauseMu.Lock()
		switch StageState(s.state.Load()) {
		case StateStopped:
			s.pauseMu.Unlock()
			return fmt.Errorf("pipeline: pause %s/%d: %w", s.id, s.instance, ErrStopped)
		case StateDraining, StatePaused:
			resume := s.resumeCh // another holder's: wait for its Resume
			s.pauseMu.Unlock()
			select {
			case <-resume:
			case <-s.doneCh: // Stopped is set before doneCh closes
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		s.pausedCh = make(chan struct{})
		s.resumeCh = make(chan struct{})
		s.pauseReq.Store(true)
		// Wake sources blocked outside the emit path; the channel stays
		// closed — observably "pause pending" — until release re-arms it.
		close(*s.pauseWake.Load())
		if s.popCancel != nil {
			// Wake a pop blocked on an empty queue; the queue removes
			// nothing on cancellation, so no packet is lost.
			s.popCancel()
		}
		s.toState(StateDraining)
		paused := s.pausedCh
		s.pauseMu.Unlock()

		select {
		case <-paused:
			return nil
		case <-s.doneCh:
			continue
		case <-ctx.Done():
			// Take the request back, or release the stage that parked for
			// it meanwhile; a stopped stage, or a later epoch, is not ours.
			s.pauseMu.Lock()
			if st := s.State(); s.pausedCh == paused && (st == StateDraining || st == StatePaused) {
				s.release()
			}
			s.pauseMu.Unlock()
			return ctx.Err()
		}
	}
}

// Resume releases a Paused stage back to Running with a fresh pop context.
func (s *Stage) Resume() error {
	s.pauseMu.Lock()
	defer s.pauseMu.Unlock()
	if StageState(s.state.Load()) != StatePaused {
		return fmt.Errorf("pipeline: resume %s/%d: stage is not paused", s.id, s.instance)
	}
	s.release()
	return nil
}

// release ends the current pause epoch: the stage returns to Running with
// its wake-up re-armed and a fresh pop context, and whoever waits on the
// epoch's resume channel — the parked stage, a queued pauser — goes on.
// Caller holds pauseMu.
func (s *Stage) release() {
	s.pauseReq.Store(false)
	wake := make(chan struct{}) // re-arm the cooperative wake-up
	s.pauseWake.Store(&wake)
	if s.runCtx != nil {
		s.newPopCtx()
	}
	s.toState(StateRunning)
	close(s.resumeCh)
}

// parkIfRequested parks the stage goroutine at a drain boundary when a
// pause is pending, until Resume or run cancellation. It returns ctx's
// error when the run was canceled while parked, nil otherwise. Only the
// stage goroutine calls it.
func (s *Stage) parkIfRequested(ctx context.Context) error {
	if !s.pauseReq.Load() {
		return nil
	}
	s.pauseMu.Lock()
	if !s.pauseReq.Load() { // resumed between the check and the lock
		s.pauseMu.Unlock()
		return nil
	}
	paused, resume := s.pausedCh, s.resumeCh
	s.toState(StatePaused)
	s.pauseMu.Unlock()
	// End the run before anyone reading the paused channel inspects Stats()
	// or the registry: a checkpoint or migration must see every packet and
	// every latency observation the stage made, not lose the tail of a run.
	// Safe here — still on the stage goroutine, before close(paused).
	s.publishLocal()
	close(paused)
	select {
	case <-resume:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// bindRunContext installs the run context and derives the first pop
// context; the stage goroutine calls it once on entry.
func (s *Stage) bindRunContext(ctx context.Context) {
	s.pauseMu.Lock()
	s.runCtx = ctx
	s.newPopCtx()
	s.pauseMu.Unlock()
}

// newPopCtx publishes a fresh pop context derived from the run context.
// Caller holds pauseMu.
func (s *Stage) newPopCtx() {
	ctx, cancel := context.WithCancel(s.runCtx)
	s.popCtx.Store(&ctx)
	s.popCancel = cancel
}

// currentPopCtx returns the pop context of the current pause epoch (nil
// before bindRunContext). A pause request cancels it (waking a blocked pop
// without consuming an item); Resume replaces it.
func (s *Stage) currentPopCtx() context.Context {
	if p := s.popCtx.Load(); p != nil {
		return *p
	}
	return nil
}

// QueuedState reports the packets currently parked in the input queue and
// the wire bytes they occupy — the in-flight buffer a migration must move
// with the stage.
func (s *Stage) QueuedState() (packets int, bytes int) {
	for _, p := range s.inq().Snapshot() {
		packets++
		bytes += p.size()
	}
	return packets, bytes
}
