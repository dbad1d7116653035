package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/pipeline"
)

// Checkpoint is one captured recovery point for a stage instance: the
// serialized processor state (when the stage implements
// pipeline.Snapshotter), the emission cursor, and the per-upstream
// consumption watermarks. Restoring all three and replaying the sequence
// interval [Marks.Next, upstream emission cursor) reconstructs the instance
// as of the capture with at-least-once delivery — effectively-once when the
// stage state and emission cadence are deterministic functions of the
// consumed sequence numbers (see DESIGN.md §13).
type Checkpoint struct {
	Stage    string                  `json:"stage"`
	Instance int                     `json:"instance"`
	At       time.Time               `json:"at"`
	EmitSeq  uint64                  `json:"emit_seq"`
	Marks    []pipeline.UpstreamMark `json:"marks,omitempty"`
	State    []byte                  `json:"state,omitempty"`
	HasState bool                    `json:"has_state"`
}

// CheckpointStore holds the latest checkpoint per stage instance. It is an
// in-memory stand-in for the stable store a real grid deployment would use;
// the recovery protocol only ever needs the most recent capture.
type CheckpointStore struct {
	mu   sync.RWMutex
	last map[instRef]Checkpoint
}

// NewCheckpointStore returns an empty store.
func NewCheckpointStore() *CheckpointStore {
	return &CheckpointStore{last: make(map[instRef]Checkpoint)}
}

// Put records cp as the latest checkpoint for its instance.
func (s *CheckpointStore) Put(cp Checkpoint) {
	s.mu.Lock()
	s.last[instRef{stage: cp.Stage, instance: cp.Instance}] = cp
	s.mu.Unlock()
}

// Latest returns the most recent checkpoint for the instance, if any.
func (s *CheckpointStore) Latest(stage string, instance int) (Checkpoint, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cp, ok := s.last[instRef{stage: stage, instance: instance}]
	return cp, ok
}

// Len returns the number of instances with at least one checkpoint.
func (s *CheckpointStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.last)
}

// Checkpointer periodically captures every stage instance of a deployment
// into a CheckpointStore. Each capture briefly pauses one instance at a
// drain boundary (the same mechanism migration uses), so a round perturbs
// the stream but never loses or reorders packets. Captures are per-instance
// consistent, which is all the recovery protocol needs: the replay interval
// is recomputed per upstream edge at recovery time from the restored marks.
type Checkpointer struct {
	dep      *Deployment
	store    *CheckpointStore
	interval time.Duration

	mu     sync.Mutex
	cancel context.CancelFunc
	done   chan struct{}

	rounds    *obs.Counter
	captures  *obs.Counter
	failures  *obs.Counter
	stateSize *obs.Counter
}

// NewCheckpointer returns a checkpointer over the deployment writing to
// store every interval of virtual time.
func NewCheckpointer(dep *Deployment, store *CheckpointStore, interval time.Duration) (*Checkpointer, error) {
	if dep == nil || store == nil {
		return nil, errors.New("service: NewCheckpointer requires a deployment and a store")
	}
	if interval <= 0 {
		return nil, fmt.Errorf("service: checkpoint interval must be positive, got %v", interval)
	}
	c := &Checkpointer{dep: dep, store: store, interval: interval}
	if o := dep.deployer.o; o != nil {
		c.rounds = o.Registry.Counter("gates_checkpoint_rounds_total",
			"Completed checkpoint rounds.", nil)
		c.captures = o.Registry.Counter("gates_checkpoints_total",
			"Stage-instance checkpoints captured.", nil)
		c.failures = o.Registry.Counter("gates_checkpoint_failures_total",
			"Stage-instance checkpoint attempts that failed.", nil)
		c.stateSize = o.Registry.Counter("gates_checkpoint_state_bytes_total",
			"Serialized snapshot bytes captured across all checkpoints.", nil)
	}
	return c, nil
}

// Store returns the store the checkpointer writes to.
func (c *Checkpointer) Store() *CheckpointStore { return c.store }

// Start launches the periodic capture loop. It takes an immediate epoch-0
// round before the first tick so a crash early in the run still finds a
// checkpoint to restore, then captures every interval until Stop or ctx.
func (c *Checkpointer) Start(ctx context.Context) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cancel != nil {
		return
	}
	ctx, c.cancel = context.WithCancel(ctx)
	c.done = make(chan struct{})
	clk := c.dep.deployer.clk
	go func() {
		defer close(c.done)
		labelControlPlane()
		c.CheckpointAll(ctx)
		for {
			select {
			case <-ctx.Done():
				return
			case <-clk.After(c.interval):
				c.CheckpointAll(ctx)
			}
		}
	}()
}

// Stop halts the capture loop and waits for an in-flight round to finish.
func (c *Checkpointer) Stop() {
	c.mu.Lock()
	cancel, done := c.cancel, c.done
	c.cancel, c.done = nil, nil
	c.mu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
}

// CheckpointAll captures every instance of the deployment once, skipping
// instances that are stopped or already being paused by someone else (the
// next round, or recovery itself, will cover them). It returns the number
// of instances captured.
func (c *Checkpointer) CheckpointAll(ctx context.Context) int {
	captured := 0
	for _, sts := range c.dep.Stages {
		for _, st := range sts {
			if ctx.Err() != nil {
				return captured
			}
			if err := c.CheckpointInstance(ctx, st); err != nil {
				if c.failures != nil {
					c.failures.Inc()
				}
				continue
			}
			captured++
		}
	}
	dep := c.dep.deployer
	if c.rounds != nil {
		c.rounds.Inc()
	}
	if o := dep.o; o != nil {
		o.Journal.Record(obs.Event{
			Kind:   obs.EventCheckpoint,
			Detail: fmt.Sprintf("checkpoint round: %d instance(s) captured", captured),
		})
	}
	return captured
}

// CheckpointInstance captures one instance: pause at a drain boundary,
// snapshot state + cursors, resume. Contention with another pauser
// (a migration, a recovery) is reported as an error, not retried — the
// instance keeps its previous checkpoint.
func (c *Checkpointer) CheckpointInstance(ctx context.Context, st *pipeline.Stage) error {
	if st.State() == pipeline.StateStopped {
		// A finished stage needs no recovery point; its final state
		// already reached downstream.
		return fmt.Errorf("service: checkpoint %s/%d: stage stopped", st.ID(), st.Instance())
	}
	if err := st.Pause(ctx); err != nil {
		return fmt.Errorf("service: checkpoint %s/%d: %w", st.ID(), st.Instance(), err)
	}
	if st.PausedMidEmit() {
		// The goroutine parked inside an emission (blocked push): the
		// user code may be mid-Process, so this pause is not a consistent
		// cut. Skip the round; the instance keeps its previous checkpoint.
		if err := st.Resume(); err != nil {
			return fmt.Errorf("service: checkpoint %s/%d: %w", st.ID(), st.Instance(), err)
		}
		return nil
	}
	cp := Checkpoint{
		Stage:    st.ID(),
		Instance: st.Instance(),
		At:       c.dep.deployer.clk.Now(),
		EmitSeq:  st.EmitSeq(),
		Marks:    st.Marks(),
	}
	var snapErr error
	if snap, ok := st.Snapshotter(); ok {
		var b []byte
		if b, snapErr = snap.Snapshot(); snapErr == nil {
			cp.State = b
			cp.HasState = true
		}
	}
	if err := st.Resume(); err != nil {
		return fmt.Errorf("service: checkpoint %s/%d: %w", st.ID(), st.Instance(), err)
	}
	if snapErr != nil {
		return fmt.Errorf("service: checkpoint %s/%d: snapshot: %w", st.ID(), st.Instance(), snapErr)
	}
	c.store.Put(cp)
	if c.captures != nil {
		c.captures.Inc()
	}
	if c.stateSize != nil {
		c.stateSize.Add(float64(len(cp.State)))
	}
	return nil
}
