package service

import (
	"context"
	"fmt"

	"github.com/gates-middleware/gates/internal/grid"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/pipeline"
)

// Migrate moves a running stage instance to another grid node without
// losing a packet: the §3.2 "initiate the services at the chosen sites"
// duty, re-executed for one instance while the rest of the application
// keeps flowing. The protocol is
//
//  1. reserve capacity for the instance's requirement on the target node,
//  2. pause the stage (drain its current work item, park the goroutine),
//  3. snapshot the processor state when it implements pipeline.Snapshotter,
//  4. charge the moved bytes (state + queued input) to the inter-node link,
//  5. rewire the instance's inbound and outbound edges to the links the
//     new placement implies,
//  6. restore the state and resume the stage on its new node, and
//  7. release the old node's reservation and update the placement records.
//
// The input queue is untouched throughout — producers keep pushing into it
// (blocking only if it fills), and its backlog resumes draining on the new
// node — so migration reorders nothing and drops nothing. The stage's
// adaptation controller rides along untouched: a tuned adjustment parameter
// keeps its value across the move.
//
// Migrate blocks until the move completes and is safe to call while the
// engine runs; a move of an instance another pauser holds (a checkpoint
// round, a recovery, another move) waits until that holder resumes it.
func (d *Deployment) Migrate(ctx context.Context, stageID string, instance int, toNode string) error {
	return d.migrate(ctx, stageID, instance, toNode, "manual")
}

func (d *Deployment) migrate(ctx context.Context, stageID string, instance int, toNode string, reason string) error {
	if d.deployer == nil {
		return fmt.Errorf("service: migrate %s/%d: deployment was not built by a Deployer", stageID, instance)
	}
	dep := d.deployer
	st, ok := d.Stage(stageID, instance)
	if !ok {
		return fmt.Errorf("service: migrate: unknown stage instance %s/%d", stageID, instance)
	}
	from := st.Node()
	if from == toNode {
		return nil
	}

	// Reserve the destination before disturbing the stage, so a full node
	// fails the move while the instance is still running. The near-source
	// hint is dropped: an explicit destination overrides placement policy.
	req, _ := d.planRequirement(stageID, instance)
	req.NearSource = ""
	if err := dep.dir.Allocate(toNode, req); err != nil {
		return fmt.Errorf("service: migrate %s/%d to %s: %w", stageID, instance, toNode, err)
	}

	drainStart := dep.clk.Now()
	if err := st.Pause(ctx); err != nil {
		dep.dir.Release(toNode, req)
		return fmt.Errorf("service: migrate %s/%d: %w", stageID, instance, err)
	}
	drain := dep.clk.Now().Sub(drainStart)
	// A holder this pause waited behind may have re-homed the instance.
	if from = st.Node(); from == toNode {
		_ = st.Resume()
		dep.dir.Release(toNode, req)
		return nil
	}

	var state []byte
	snap, hasState := st.Snapshotter()
	if hasState {
		b, err := snap.Snapshot()
		if err != nil {
			_ = st.Resume()
			dep.dir.Release(toNode, req)
			return fmt.Errorf("service: migrate %s/%d: snapshot: %w", stageID, instance, err)
		}
		state = b
	}
	qPkts, qBytes := st.QueuedState()

	// The serialized state and the queued backlog travel over the wire
	// between the two nodes; charge the transfer so migration cost is
	// visible to the network simulation.
	if moved := len(state) + qBytes; moved > 0 {
		dep.net.Link(from, toNode).Transfer(moved)
	}

	st.SetNode(toNode)
	d.Engine.Relink(st, func(a, b *pipeline.Stage) *netsim.Link {
		if a.Node() == b.Node() {
			return nil
		}
		return dep.net.Link(a.Node(), b.Node())
	})
	if hasState {
		if err := snap.Restore(state); err != nil {
			// The stage still holds its pre-snapshot state; fall back to
			// the old node rather than run inconsistently on the new one.
			st.SetNode(from)
			d.Engine.Relink(st, func(a, b *pipeline.Stage) *netsim.Link {
				if a.Node() == b.Node() {
					return nil
				}
				return dep.net.Link(a.Node(), b.Node())
			})
			_ = st.Resume()
			dep.dir.Release(toNode, req)
			return fmt.Errorf("service: migrate %s/%d: restore: %w", stageID, instance, err)
		}
	}
	if dep.o != nil {
		// Metrics series are labeled by node; publish under the new one.
		st.Instrument(dep.o.Registry)
	}
	if err := st.Resume(); err != nil {
		dep.dir.Release(toNode, req)
		return fmt.Errorf("service: migrate %s/%d: %w", stageID, instance, err)
	}
	dep.dir.Release(from, req)
	d.setPlacement(stageID, instance, toNode)

	if dep.o != nil {
		dep.o.Journal.Record(obs.Event{
			At:       dep.clk.Now(),
			Kind:     obs.EventMigration,
			Stage:    stageID,
			Instance: instance,
			Node:     toNode,
			Detail:   from + " → " + toNode + " (" + reason + ")",
			Payload: obs.Migration{
				From:          from,
				To:            toNode,
				Drain:         drain,
				StateBytes:    len(state),
				QueuedPackets: qPkts,
				QueuedBytes:   qBytes,
				Reason:        reason,
			},
		})
	}
	dep.o.Log().Info("stage migrated",
		"stage", stageID, "instance", instance, "from", from, "to", toNode,
		"drain", drain, "state_bytes", len(state),
		"queued_packets", qPkts, "queued_bytes", qBytes, "reason", reason)
	return nil
}

// planRequirement returns the requirement the instance was planned with,
// falling back to the zero requirement when the plan is absent.
func (d *Deployment) planRequirement(stageID string, instance int) (grid.Requirement, bool) {
	if d.Plan == nil {
		return grid.Requirement{}, false
	}
	return d.Plan.Requirement(stageID, instance)
}
