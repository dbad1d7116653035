package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"

	"github.com/gates-middleware/gates/internal/policy"
)

// Launcher is the user-facing entry point: "to start the application, the
// user simply passes the XML file's URL link to the Launcher" (§3.2). It
// fetches and parses the descriptor, hands it to the Deployer, and returns a
// running Application handle.
type Launcher struct {
	deployer *Deployer
}

// NewLauncher returns a launcher over the given deployer.
func NewLauncher(d *Deployer) (*Launcher, error) {
	if d == nil {
		return nil, errors.New("service: NewLauncher requires a deployer")
	}
	return &Launcher{deployer: d}, nil
}

// Fetch retrieves an application descriptor. The locator may be an
// http(s):// URL (the paper's repository-hosted configuration), a file path,
// or — as a convenience for embedding — a literal XML document (detected by
// a leading '<').
func Fetch(locator string) (*AppConfig, error) {
	switch {
	case strings.HasPrefix(strings.TrimSpace(locator), "<"):
		return ParseConfigString(locator)
	case strings.HasPrefix(locator, "http://"), strings.HasPrefix(locator, "https://"):
		resp, err := http.Get(locator)
		if err != nil {
			return nil, fmt.Errorf("service: fetch %s: %w", locator, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("service: fetch %s: HTTP %d", locator, resp.StatusCode)
		}
		return ParseConfig(resp.Body)
	default:
		f, err := os.Open(locator)
		if err != nil {
			return nil, fmt.Errorf("service: open config: %w", err)
		}
		defer f.Close()
		return ParseConfig(f)
	}
}

// Launch fetches the descriptor at locator, deploys it, and starts it.
// The returned Application is already running; use Wait to collect its
// outcome and Stop to end it early.
func (l *Launcher) Launch(ctx context.Context, locator string, tuning StageTuning) (*Application, error) {
	cfg, err := Fetch(locator)
	if err != nil {
		return nil, err
	}
	return l.LaunchConfig(ctx, cfg, tuning)
}

// LaunchConfig deploys and starts an already parsed descriptor. It reads
// the deployer's policy document once, here, and arms the fault plane from
// it: with faults.enabled every stage keeps a replay ring of
// faults.replay_buffer packets, a Checkpointer captures every instance each
// faults.checkpoint_interval, and a Recovery detector probes the nodes each
// faults.health_every; faults.injections start a FaultScheduler. Each of
// them stops before Wait returns.
func (l *Launcher) LaunchConfig(ctx context.Context, cfg *AppConfig, tuning StageTuning) (*Application, error) {
	snap := l.deployer.Policy().Active()
	dep, err := l.deployer.Deploy(cfg, tuning)
	if err != nil {
		l.deployer.o.Log().Warn("deployment failed", "app", cfg.Name, "err", err)
		return nil, err
	}
	plane, err := armFaults(dep, snap)
	if err != nil {
		l.deployer.Planner().Release(dep.Plan)
		return nil, err
	}
	l.deployer.o.Log().Info("application launched",
		"app", cfg.Name, "stages", len(cfg.Stages), "placements", len(dep.Placements))
	runCtx, cancel := context.WithCancel(ctx)
	app := &Application{
		Deployment: dep,
		cancel:     cancel,
		done:       make(chan struct{}),
		faults:     plane,
	}
	// The plane starts before the engine: a checkpoint round that reaches
	// a stage first parks it at its first drain boundary.
	app.faults.start(runCtx)
	go func() {
		defer close(app.done)
		err := dep.Engine.Run(runCtx)
		app.faults.stop()
		app.mu.Lock()
		app.err = err
		app.mu.Unlock()
	}()
	return app, nil
}

// faultPlane is the fault-tolerance machinery one launch armed from its
// policy document; a nil member is one the document left off.
type faultPlane struct {
	ck    *Checkpointer
	rec   *Recovery
	sched *FaultScheduler
}

// armFaults builds the fault plane snap's faults section asks for, sizing
// the engine's replay rings when faults are enabled. Normalize has filled
// every zero knob of an enabled section with its default.
func armFaults(dep *Deployment, snap *policy.Snapshot) (p faultPlane, err error) {
	ft := snap.Doc.Faults
	d := dep.deployer
	if ft.Enabled {
		dep.Engine.SetDefaultReplayBuffer(ft.ReplayBuffer)
		store := NewCheckpointStore()
		if p.ck, err = NewCheckpointer(dep, store, ft.CheckpointInterval.Std()); err != nil {
			return p, err
		}
		if p.rec, err = NewRecovery(dep, store, ft.HealthEvery.Std(), ft.DeadAfter); err != nil {
			return p, err
		}
	}
	if len(ft.Injections) > 0 {
		if p.sched, err = NewFaultScheduler(d.clk, d.net, ft.Injections, d.o); err != nil {
			return p, err
		}
		p.sched.version = snap.Version
	}
	return p, nil
}

func (p faultPlane) start(ctx context.Context) {
	if p.ck != nil {
		p.ck.Start(ctx)
		p.rec.Start(ctx)
	}
	if p.sched != nil {
		p.sched.Start(ctx)
	}
}

// stop halts every loop of the plane and waits for each to exit.
func (p faultPlane) stop() {
	if p.sched != nil {
		p.sched.Stop()
	}
	if p.ck != nil {
		p.rec.Stop()
		p.ck.Stop()
	}
}

// Application is a running deployment: the paper's application-user handle,
// which only needs to start and stop the application.
type Application struct {
	// Deployment is the underlying wired application.
	*Deployment

	cancel context.CancelFunc
	done   chan struct{}
	faults faultPlane
	mu     sync.Mutex
	err    error
}

// Wait blocks until the application finishes and returns its terminal error
// (nil on a clean end-of-stream completion).
func (a *Application) Wait() error {
	<-a.done
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// Done returns a channel closed when the application has finished.
func (a *Application) Done() <-chan struct{} { return a.done }

// Stop cancels the application and waits for it to wind down. Stopping an
// already finished application is a no-op returning its terminal error.
func (a *Application) Stop() error {
	a.cancel()
	return a.Wait()
}
