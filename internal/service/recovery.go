package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/gates-middleware/gates/internal/grid"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/pipeline"
)

// RecoveryEvent is one completed (or attempted) recovery of a stage
// instance off a dead node.
type RecoveryEvent struct {
	At        time.Time     `json:"at"`
	Node      string        `json:"node"` // the dead node
	Stage     string        `json:"stage"`
	Instance  int           `json:"instance"`
	To        string        `json:"to"`        // node the instance landed on
	Restored  bool          `json:"restored"`  // checkpoint state restored
	Replayed  int           `json:"replayed"`  // packets re-injected from upstream rings
	Discarded int           `json:"discarded"` // stale queued packets dropped
	Gap       bool          `json:"gap"`       // replay interval outran a ring's retention
	Duration  time.Duration `json:"duration"`
	Err       string        `json:"err,omitempty"`
}

// Recovery is the failure detector and recovery controller: it watches the
// deployment's nodes over periodic health epochs, declares a node dead after
// DeadAfter consecutive missed epochs, and re-plans the dead node's
// instances onto live nodes — restoring each instance's latest checkpoint
// and replaying the upstream sequence interval the crash swallowed. The
// recovered stream is at-least-once; the consumer-side watermarks turn the
// replay overlap into effectively-once for deterministic emitters (see
// DESIGN.md §13).
type Recovery struct {
	dep   *Deployment
	store *CheckpointStore

	every     time.Duration // health-epoch length (virtual time)
	deadAfter int           // consecutive missed epochs before a node is dead

	mu        sync.Mutex
	cancel    context.CancelFunc
	done      chan struct{}
	missed    map[string]int
	recovered map[string]bool
	events    []RecoveryEvent

	recoveries *obs.Counter
	replayed   *obs.Counter
	discarded  *obs.Counter
	gaps       *obs.Counter
}

// NewRecovery returns a recovery controller over the deployment reading
// checkpoints from store. every is the health-epoch length; deadAfter is
// how many consecutive epochs a node must miss before recovery starts.
func NewRecovery(dep *Deployment, store *CheckpointStore, every time.Duration, deadAfter int) (*Recovery, error) {
	if dep == nil || store == nil {
		return nil, errors.New("service: NewRecovery requires a deployment and a store")
	}
	if every <= 0 {
		return nil, fmt.Errorf("service: health epoch must be positive, got %v", every)
	}
	if deadAfter < 1 {
		deadAfter = 1
	}
	r := &Recovery{
		dep:       dep,
		store:     store,
		every:     every,
		deadAfter: deadAfter,
		missed:    make(map[string]int),
		recovered: make(map[string]bool),
	}
	if o := dep.deployer.o; o != nil {
		r.recoveries = o.Registry.Counter("gates_recoveries_total",
			"Stage instances recovered off dead nodes.", nil)
		r.replayed = o.Registry.Counter("gates_replayed_packets_total",
			"Packets re-injected from upstream replay rings during recovery.", nil)
		r.discarded = o.Registry.Counter("gates_recovery_discarded_total",
			"Stale queued packets discarded from crashed instances.", nil)
		r.gaps = o.Registry.Counter("gates_replay_gaps_total",
			"Recoveries whose replay interval outran a ring's retention.", nil)
	}
	return r, nil
}

// Events returns a copy of the recovery log.
func (r *Recovery) Events() []RecoveryEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RecoveryEvent, len(r.events))
	copy(out, r.events)
	return out
}

// Start launches the health monitor: every epoch it checks each node that
// hosts an instance against the network's liveness state, and recovers a
// node after deadAfter consecutive misses. Stop (or ctx) halts it.
func (r *Recovery) Start(ctx context.Context) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cancel != nil {
		return
	}
	ctx, r.cancel = context.WithCancel(ctx)
	r.done = make(chan struct{})
	clk := r.dep.deployer.clk
	go func() {
		defer close(r.done)
		labelControlPlane()
		for {
			select {
			case <-ctx.Done():
				return
			case <-clk.After(r.every):
				for _, node := range r.tick() {
					_ = r.RecoverNode(ctx, node)
				}
			}
		}
	}()
}

// Stop halts the health monitor and waits for an in-flight recovery.
func (r *Recovery) Stop() {
	r.mu.Lock()
	cancel, done := r.cancel, r.done
	r.cancel, r.done = nil, nil
	r.mu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
}

// tick runs one health epoch and returns the nodes newly declared dead.
func (r *Recovery) tick() []string {
	hosts := make(map[string]bool)
	r.dep.mu.RLock()
	for _, node := range r.dep.nodeOf {
		hosts[node] = true
	}
	r.dep.mu.RUnlock()

	net := r.dep.deployer.net
	r.mu.Lock()
	defer r.mu.Unlock()
	var dead []string
	for node := range hosts {
		if net.Alive(node) {
			r.missed[node] = 0
			delete(r.recovered, node)
			continue
		}
		r.missed[node]++
		if r.missed[node] >= r.deadAfter && !r.recovered[node] {
			r.recovered[node] = true
			dead = append(dead, node)
		}
	}
	sort.Strings(dead)
	return dead
}

// RecoverNode moves every instance currently placed on the named node onto
// live nodes, upstream-most first — a downstream instance recovered later
// then finds its already-recovered upstreams' post-replay emissions still
// in their rings. It aggregates per-instance errors and keeps going: a
// partially recovered node is strictly better than a dead one.
func (r *Recovery) RecoverNode(ctx context.Context, node string) error {
	insts := r.instancesOn(node)
	if len(insts) == 0 {
		return nil
	}
	var errs []error
	for _, st := range insts {
		if err := r.recoverInstance(ctx, st, node); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// instancesOn returns the stage instances placed on node, topologically
// ordered upstream-first (ties in declaration order).
func (r *Recovery) instancesOn(node string) []*pipeline.Stage {
	onNode := make(map[*pipeline.Stage]bool)
	var all []*pipeline.Stage
	for _, sts := range r.dep.Stages {
		for _, st := range sts {
			if n, ok := r.dep.NodeFor(st.ID(), st.Instance()); ok && n == node {
				onNode[st] = true
				all = append(all, st)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].ID() != all[j].ID() {
			return all[i].ID() < all[j].ID()
		}
		return all[i].Instance() < all[j].Instance()
	})
	var order []*pipeline.Stage
	visited := make(map[*pipeline.Stage]bool)
	var visit func(st *pipeline.Stage)
	visit = func(st *pipeline.Stage) {
		if visited[st] {
			return
		}
		visited[st] = true
		for _, up := range st.Upstreams() {
			if onNode[up] {
				visit(up)
			}
		}
		order = append(order, st)
	}
	for _, st := range all {
		visit(st)
	}
	return order
}

// pauseForRecovery pauses st, retrying while another pauser (a checkpointer
// round, a concurrent migration) holds the pause. A stopped stage returns
// errStopped.
var errStopped = errors.New("stage stopped")

func pauseForRecovery(ctx context.Context, st *pipeline.Stage) error {
	for {
		if st.State() == pipeline.StateStopped {
			return errStopped
		}
		err := st.Pause(ctx)
		if err == nil {
			return nil
		}
		if errors.Is(err, pipeline.ErrPausePending) {
			// The holder's pause/capture/resume runs in wall time;
			// yield and retry rather than fail the recovery.
			if ctx.Err() != nil {
				return ctx.Err()
			}
			runtime.Gosched()
			continue
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// "already stopped" / "stopped while draining" — terminal.
		return errStopped
	}
}

// recoverInstance executes the recovery protocol for one instance:
//
//  1. reserve capacity on the best live node,
//  2. pause the crashed instance (its goroutine is a healthy zombie — the
//     process shares our address space; only its links are black-holed)
//     and read its emission cursor,
//  3. discard the crashed instance's queued input (replay re-covers it),
//     holding any final markers aside — before pausing upstreams, so a
//     producer wedged mid-push into the full queue can complete and park,
//  4. pause every upstream and read each one's emission cursor,
//  5. sweep the queue again (packets an unwedged pusher landed between the
//     first discard and its pause fall inside the replay interval),
//  6. restore the latest checkpoint (state, emission cursor, watermarks),
//  7. rewire the instance to its new node,
//  8. heal the output gaps: for each downstream, replay this instance's
//     own ring over [downstream watermark, pre-restore cursor) — the
//     emissions the black-holed links swallowed — while the instance is
//     still paused (sole producer on those edges),
//  9. resume the instance,
//  10. per upstream: replay [watermark, upstream cursor) into the instance,
//     then resume that upstream — replay-before-resume keeps the replayed
//     interval ahead of new traffic in sequence order — and finally
//     re-queue the held finals so termination trails every replayed byte.
//
// Steps 8 and 10 compose: a restored (Snapshotter) instance re-consumes its
// post-checkpoint inputs and deterministically re-emits them with its
// rewound cursor, and every re-emission at or below a downstream's healed
// watermark is absorbed by dedupe; an unrestored instance keeps its live
// zombie state, so only the black-holed gaps themselves are replayed.
func (r *Recovery) recoverInstance(ctx context.Context, st *pipeline.Stage, deadNode string) (err error) {
	dep := r.dep.deployer
	stageID, instance := st.ID(), st.Instance()
	start := dep.clk.Now()
	ev := RecoveryEvent{At: start, Node: deadNode, Stage: stageID, Instance: instance}
	defer func() {
		if err != nil {
			if errors.Is(err, errStopped) {
				// Nothing to recover; not a failure.
				err = nil
				return
			}
			ev.Err = err.Error()
		}
		ev.Duration = dep.clk.Now().Sub(start)
		r.mu.Lock()
		r.events = append(r.events, ev)
		r.mu.Unlock()
	}()

	// 1. Choose and reserve the destination: the directory's best
	// candidate that is alive and not the dead node itself.
	req, _ := r.dep.planRequirement(stageID, instance)
	req.NearSource = ""
	toNode, err := r.allocateLive(req, deadNode)
	if err != nil {
		return fmt.Errorf("service: recover %s/%d: %w", stageID, instance, err)
	}
	ev.To = toNode
	released := false
	defer func() {
		if err != nil && !released {
			dep.dir.Release(toNode, req)
		}
	}()

	// Held-aside final markers from the discard sweeps below. Registered
	// before the pause defer so it runs after the stage is resumed on
	// every path: Requeue blocks on a full queue (a dropped final would
	// wedge every downstream), and only a draining stage can make room.
	var finals []*pipeline.Packet
	defer func() { st.Requeue(finals) }()

	// 2. Pause the crashed instance and capture its pre-restore emission
	// cursor — the upper bound of the output intervals to heal.
	if err = pauseForRecovery(ctx, st); err != nil {
		return err
	}
	hiSelf := st.EmitSeq()
	resumed := false
	defer func() {
		if !resumed {
			_ = st.Resume()
		}
	}()

	// 3. Clear the crashed instance's queued input BEFORE pausing the
	// upstreams. An upstream caught mid-push into this full queue when the
	// node died is parked inside emit and cannot reach a pause boundary;
	// severing the link stops new pushes but never wakes a blocked one.
	// Discarding frees the queue so any such pusher completes and parks —
	// without this, pausing upstreams deadlocks: the queue cannot drain
	// (st is paused) and the upstream cannot park (push blocked). The
	// queued data is stale anyway: replay re-covers the interval. Finals
	// are held aside and re-queued (by the deferred Requeue above) once
	// replay has refilled the data they must trail.
	ev.Discarded, finals = st.DiscardQueued()

	// 4. Pause the upstreams and capture their emission cursors. A
	// stopped upstream needs no pause — its cursor and ring are stable.
	ups := st.Upstreams()
	hi := make([]uint64, len(ups))
	pausedUp := make([]bool, len(ups))
	defer func() {
		for i, up := range ups {
			if pausedUp[i] {
				_ = up.Resume()
			}
		}
	}()
	for i, up := range ups {
		upErr := pauseForRecovery(ctx, up)
		switch {
		case upErr == nil:
			pausedUp[i] = true
		case errors.Is(upErr, errStopped):
			// fine: cursor is final
		default:
			return fmt.Errorf("service: recover %s/%d: pause upstream %s/%d: %w",
				stageID, instance, up.ID(), up.Instance(), upErr)
		}
		hi[i] = up.EmitSeq()
	}

	// 5. Sweep the queue again now that the upstreams are quiet. Between
	// the first discard and their pause, an unwedged pusher may have
	// landed a few more packets; their sequence numbers fall inside the
	// replay interval read above, and consuming them here too would
	// double-count (or, worse, advance the restored watermark past
	// replayed-but-unprocessed data). Finals join the held-aside set.
	moreDiscarded, moreFinals := st.DiscardQueued()
	ev.Discarded += moreDiscarded
	finals = append(finals, moreFinals...)
	if r.discarded != nil {
		r.discarded.Add(float64(ev.Discarded))
	}

	// 6. Restore the checkpoint. Without a Snapshotter the instance keeps
	// its live (zombie) state and watermarks — replay then covers only the
	// black-holed gap, giving at-least-once without state rewind. With
	// one, state + cursors rewind together so re-emission after restore
	// reproduces the original sequence numbering. A stage parked inside an
	// emission is mid-Process: restoring state under its live stack would
	// splice checkpointed state into a half-applied update, so it keeps
	// its zombie state instead.
	if cp, ok := r.store.Latest(stageID, instance); ok && cp.HasState && !st.PausedMidEmit() {
		if snap, has := st.Snapshotter(); has {
			if err = snap.Restore(cp.State); err != nil {
				return fmt.Errorf("service: recover %s/%d: restore: %w", stageID, instance, err)
			}
			st.SetEmitSeq(cp.EmitSeq)
			st.SetMarks(cp.Marks)
			ev.Restored = true
		}
	}

	// 7. Re-home the instance.
	st.SetNode(toNode)
	r.dep.Engine.Relink(st, func(a, b *pipeline.Stage) *netsim.Link {
		if a.Node() == b.Node() {
			return nil
		}
		return dep.net.Link(a.Node(), b.Node())
	})
	if dep.o != nil {
		st.Instrument(dep.o.Registry)
	}

	// 8. Heal the output gaps while the instance is still paused (sole
	// producer on its outbound edges): each healthy downstream's watermark
	// for this emitter tells exactly which interval its black-holed link
	// swallowed.
	for _, down := range st.Downstreams() {
		if down == st {
			continue
		}
		var from uint64
		var known bool
		dErr := pauseForRecovery(ctx, down)
		switch {
		case dErr == nil:
			if m := markOf(down.Marks(), stageID, instance); m != nil {
				from, known = m.Next, true
			}
			if rErr := down.Resume(); rErr != nil {
				return fmt.Errorf("service: recover %s/%d: resume downstream %s/%d: %w",
					stageID, instance, down.ID(), down.Instance(), rErr)
			}
		case errors.Is(dErr, errStopped):
			// The downstream already terminated; nothing to heal into.
			continue
		default:
			return fmt.Errorf("service: recover %s/%d: pause downstream %s/%d: %w",
				stageID, instance, down.ID(), down.Instance(), dErr)
		}
		if !known {
			// Fault tolerance off downstream: no watermark to anchor a
			// heal, and no dedupe to absorb one.
			ev.Gap = true
			continue
		}
		if from >= hiSelf {
			continue // this edge lost nothing
		}
		replayed, gap, repErr := st.ReplayInto(ctx, down, from, hiSelf)
		ev.Replayed += replayed
		if gap {
			ev.Gap = true
		}
		if repErr != nil {
			return fmt.Errorf("service: recover %s/%d: heal %s/%d: %w",
				stageID, instance, down.ID(), down.Instance(), repErr)
		}
	}

	// 9. Bring the instance back.
	if err = st.Resume(); err != nil {
		return fmt.Errorf("service: recover %s/%d: %w", stageID, instance, err)
	}
	resumed = true
	dep.dir.Release(deadNode, req)
	released = true
	r.dep.setPlacement(stageID, instance, toNode)

	// 10. Replay the swallowed input interval per upstream, each before its
	// upstream resumes so new emissions queue behind the replay.
	marks := st.Marks() // st runs again, but only its own goroutine mutates marks; this copy is the paused-time table
	for i, up := range ups {
		from := uint64(0)
		if m := markOf(marks, up.ID(), up.Instance()); m != nil {
			from = m.Next
		} else if marks == nil {
			// Fault tolerance off for this stage: no watermark, no
			// dedupe — replaying would blindly duplicate. Count the
			// uncovered interval as a gap instead.
			ev.Gap = true
			continue
		}
		if from >= hi[i] {
			continue // nothing swallowed on this edge
		}
		replayed, gap, repErr := up.ReplayInto(ctx, st, from, hi[i])
		ev.Replayed += replayed
		if gap {
			ev.Gap = true
		}
		if repErr != nil {
			return fmt.Errorf("service: recover %s/%d: %w", stageID, instance, repErr)
		}
		if pausedUp[i] {
			pausedUp[i] = false
			if upErr := up.Resume(); upErr != nil {
				return fmt.Errorf("service: recover %s/%d: resume upstream %s/%d: %w",
					stageID, instance, up.ID(), up.Instance(), upErr)
			}
		}
	}
	if r.recoveries != nil {
		r.recoveries.Inc()
	}
	if r.replayed != nil {
		r.replayed.Add(float64(ev.Replayed))
	}
	if ev.Gap && r.gaps != nil {
		r.gaps.Inc()
	}
	ev.Duration = dep.clk.Now().Sub(start)
	r.observe(ev, deadNode, toNode)
	return nil
}

// markOf finds the watermark for the named emitter in a copied table.
func markOf(marks []pipeline.UpstreamMark, stage string, instance int) *pipeline.UpstreamMark {
	for i := range marks {
		if marks[i].Stage == stage && marks[i].Instance == instance {
			return &marks[i]
		}
	}
	return nil
}

// allocateLive reserves capacity for req on the directory's best-scored
// live node other than deadNode.
func (r *Recovery) allocateLive(req grid.Requirement, deadNode string) (string, error) {
	dep := r.dep.deployer
	for _, n := range dep.dir.Query(req) {
		if n.Name == deadNode || !dep.net.Alive(n.Name) {
			continue
		}
		if err := dep.dir.Allocate(n.Name, req); err == nil {
			return n.Name, nil
		}
	}
	return "", fmt.Errorf("no live node satisfies the requirement (dead: %s)", deadNode)
}

// observe records the recovery as one journal event — through the policy
// engine when one is attached, so it cites the version in force — and logs
// it.
func (r *Recovery) observe(ev RecoveryEvent, from, to string) {
	dep := r.dep.deployer
	o := dep.o
	if o == nil {
		return
	}
	rec := obs.Event{
		Kind:     obs.EventRecovery,
		Stage:    ev.Stage,
		Instance: ev.Instance,
		Node:     to,
		Detail:   fmt.Sprintf("%s → %s (replayed %d, discarded %d, restored %t)", from, to, ev.Replayed, ev.Discarded, ev.Restored),
		Payload: obs.Recovery{
			From:      from,
			To:        to,
			Restored:  ev.Restored,
			Replayed:  ev.Replayed,
			Discarded: ev.Discarded,
			Gap:       ev.Gap,
			Duration:  ev.Duration,
		},
	}
	if pol := dep.pol; pol != nil {
		pol.RecordDecision(rec)
	} else {
		o.Journal.Record(rec)
	}
	o.Log().Info("instance recovered",
		"stage", ev.Stage, "instance", ev.Instance, "from", from, "to", to,
		"replayed", ev.Replayed, "discarded", ev.Discarded,
		"restored", ev.Restored, "gap", ev.Gap, "duration", ev.Duration)
}
