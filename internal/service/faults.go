package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/netsim"
	"github.com/gates-middleware/gates/internal/obs"
	"github.com/gates-middleware/gates/internal/policy"
)

// FaultScheduler replays a policy document's scripted fault schedule
// against the network: node kills and heals, partitions, and per-link
// loss/reorder injections, each at its declared virtual-time offset from
// Start. Every applied injection lands in the journal, so a chaos
// run's failure script and the middleware's reaction share one timeline.
type FaultScheduler struct {
	clk clock.Clock
	net *netsim.Network
	o   *obs.Observability

	injections []policy.FaultInjection

	mu     sync.Mutex
	cancel context.CancelFunc
	done   chan struct{}
}

// NewFaultScheduler returns a scheduler that will apply the given
// injections to net. The slice is copied and sorted by offset.
func NewFaultScheduler(clk clock.Clock, net *netsim.Network, injections []policy.FaultInjection, o *obs.Observability) (*FaultScheduler, error) {
	if clk == nil || net == nil {
		return nil, errors.New("service: NewFaultScheduler requires a clock and a network")
	}
	inj := make([]policy.FaultInjection, len(injections))
	copy(inj, injections)
	sort.SliceStable(inj, func(i, j int) bool { return inj[i].At < inj[j].At })
	return &FaultScheduler{clk: clk, net: net, o: o, injections: inj}, nil
}

// Start launches the schedule from virtual-time zero (now). Stop or ctx
// halts it; already-applied injections stay applied.
func (f *FaultScheduler) Start(ctx context.Context) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cancel != nil {
		return
	}
	ctx, f.cancel = context.WithCancel(ctx)
	f.done = make(chan struct{})
	start := f.clk.Now()
	go func() {
		defer close(f.done)
		labelControlPlane()
		for _, inj := range f.injections {
			due := start.Add(inj.At.Std())
			if wait := due.Sub(f.clk.Now()); wait > 0 {
				select {
				case <-ctx.Done():
					return
				case <-f.clk.After(wait):
				}
			}
			if ctx.Err() != nil {
				return
			}
			f.Apply(inj)
		}
	}()
}

// Stop halts the schedule; it does not undo applied injections.
func (f *FaultScheduler) Stop() {
	f.mu.Lock()
	cancel, done := f.cancel, f.done
	f.cancel, f.done = nil, nil
	f.mu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
}

// Apply executes one injection immediately.
func (f *FaultScheduler) Apply(inj policy.FaultInjection) {
	var detail string
	switch {
	case inj.Kill != "":
		f.net.Kill(inj.Kill)
		detail = "kill " + inj.Kill
	case inj.Heal != "":
		f.net.Heal(inj.Heal)
		detail = "heal " + inj.Heal
	case inj.Partition:
		f.net.Partition(inj.From, inj.To)
		detail = "partition " + inj.From + " ⇹ " + inj.To
	case inj.HealPartition:
		f.net.HealPartition(inj.From, inj.To)
		detail = "heal partition " + inj.From + " ⇹ " + inj.To
	case inj.Loss == 0 && inj.Reorder == 0:
		f.net.Link(inj.From, inj.To).ClearFaults()
		detail = "clear faults " + inj.From + " → " + inj.To
	default:
		f.net.InjectFaults(inj.From, inj.To, netsim.FaultConfig{
			Seed:    inj.Seed,
			Loss:    inj.Loss,
			Reorder: inj.Reorder,
			Depth:   inj.Depth,
		})
		detail = fmt.Sprintf("inject %s → %s (loss %g, reorder %g)", inj.From, inj.To, inj.Loss, inj.Reorder)
	}
	if f.o != nil {
		f.o.Journal.Record(obs.Event{
			Kind:   obs.EventFault,
			Node:   inj.Kill + inj.Heal,
			Detail: inj.Name + ": " + detail,
		})
		f.o.Log().Info("fault injected", "name", inj.Name, "detail", detail)
	}
}
