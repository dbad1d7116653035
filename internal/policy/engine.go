package policy

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/obs"
)

// Snapshot is one immutable active policy: the normalized document plus the
// load bookkeeping decision logs cite. Consumers hold a *Snapshot for the
// duration of one control-plane epoch (a Plan, a sweep, an evaluation) so
// every decision inside the epoch is judged by one consistent version.
type Snapshot struct {
	// Doc is the normalized, validated document.
	Doc Document `json:"policy"`
	// Version is the label decisions cite: the document's own Version, or
	// "v<seq>" when it declared none.
	Version string `json:"version"`
	// Seq counts loads since the engine started (1 = the initial policy).
	Seq uint64 `json:"seq"`
	// LoadedAt is the virtual time the snapshot became active.
	LoadedAt time.Time `json:"loaded_at"`
	// Origin says where the document came from ("default", "file:...",
	// "http", "config"), for the operator reading /policy.
	Origin string `json:"origin"`
}

// Engine owns the active policy snapshot and records the decisions made
// under it.
// Reads (Active, Rebalance, Placement, SLO) are lock-free — one atomic
// pointer load — so consulting policy at a control-plane epoch costs
// nothing measurable. Loads serialize under a mutex and follow
// validate-then-swap: a document that fails to parse or validate is
// recorded in the journal and discarded, and the previously active
// snapshot keeps serving — rollback is the no-op.
//
// A nil *Engine is valid everywhere and behaves as the default policy with
// no logging, so policy-unaware call sites need no checks.
type Engine struct {
	clk clock.Clock
	o   *obs.Observability

	mu  sync.Mutex // serializes loads
	seq uint64
	cur atomic.Pointer[Snapshot]
}

// New returns an engine with the default document active, timestamping on
// clk and recording into o's journal (o may be nil for a silent engine).
func New(clk clock.Clock, o *obs.Observability) *Engine {
	e := &Engine{clk: clk, o: o}
	if err := e.Load(DefaultDocument(), "default"); err != nil {
		// The default document always validates; a failure here is a
		// programming error.
		panic(err)
	}
	return e
}

// Active returns the current snapshot. Never nil on an engine built with
// New; nil receivers get the default policy under version "default".
func (e *Engine) Active() *Snapshot {
	if e == nil {
		doc := DefaultDocument()
		return &Snapshot{Doc: doc, Version: doc.Version, Origin: "default"}
	}
	return e.cur.Load()
}

// Load validates doc and atomically makes it the active policy. On
// validation failure the active policy is untouched and the rejection is
// itself recorded, so /events shows rejected reloads next to the decisions
// they failed to influence.
func (e *Engine) Load(doc Document, origin string) error {
	if e == nil {
		return fmt.Errorf("policy: load on nil engine")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	doc.Normalize()
	if err := e.validateLocked(doc, origin); err != nil {
		return err
	}
	e.seq++
	version := doc.Version
	if version == "" {
		version = fmt.Sprintf("v%d", e.seq)
		doc.Version = version
	}
	snap := &Snapshot{
		Doc:      doc,
		Version:  version,
		Seq:      e.seq,
		LoadedAt: e.now(),
		Origin:   origin,
	}
	prev := e.cur.Load()
	e.cur.Store(snap)
	detail := fmt.Sprintf("policy %s loaded (%s)", version, origin)
	input := map[string]any{
		"origin":              origin,
		"seq":                 e.seq,
		"rebalance_threshold": doc.Rebalance.Threshold,
		"rebalance_interval":  doc.Rebalance.Interval.Std().String(),
		"rebalance_cooldown":  doc.Rebalance.Cooldown.Std().String(),
		"migration_budget":    doc.Rebalance.MigrationBudget,
		"placement_rules":     len(doc.Placement.Rules),
		"target_p99":          doc.SLO.TargetP99.Std().Seconds(),
	}
	if prev != nil {
		input["replaced"] = prev.Version
		detail = fmt.Sprintf("policy %s loaded (%s), replacing %s", version, origin, prev.Version)
	}
	if e.o != nil {
		e.o.Journal.Record(obs.Event{
			Kind:          obs.EventPolicy,
			PolicyVersion: version,
			Detail:        detail,
			Payload:       obs.Decision{Rule: "load", Outcome: "loaded", Input: input},
		})
		e.o.Log().Info("policy loaded", "version", version, "origin", origin, "seq", e.seq)
	}
	return nil
}

// validateLocked validates doc and logs a rejection when it fails.
func (e *Engine) validateLocked(doc Document, origin string) error {
	err := doc.Validate()
	if err != nil {
		e.logRejectLocked(origin, err, map[string]any{"candidate": doc.Version})
	}
	return err
}

// LoadBytes parses a JSON or XML document and loads it.
func (e *Engine) LoadBytes(b []byte, origin string) error {
	doc, err := Parse(b)
	if err != nil {
		if e != nil {
			e.mu.Lock()
			// A Document that fails Parse never reaches Validate.
			e.logRejectLocked(origin, err, map[string]any{})
			e.mu.Unlock()
		}
		return err
	}
	return e.Load(doc, origin)
}

// logRejectLocked records a rejected load — input plus origin and error —
// citing the version that stays active.
func (e *Engine) logRejectLocked(origin string, err error, input map[string]any) {
	if e.o == nil {
		return
	}
	active := "none"
	if cur := e.cur.Load(); cur != nil {
		active = cur.Version
	}
	input["origin"] = origin
	input["error"] = err.Error()
	e.o.Journal.Record(obs.Event{
		Kind:          obs.EventPolicy,
		PolicyVersion: active,
		Detail:        fmt.Sprintf("policy reload rejected (%s): %v; %s stays active", origin, err, active),
		Payload:       obs.Decision{Rule: "load", Outcome: "rejected", Input: input},
	})
	e.o.Log().Error("policy reload rejected", "origin", origin, "err", err, "active", active)
}

// LoadFile reads and loads a policy document from disk.
func (e *Engine) LoadFile(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("policy: read %s: %w", path, err)
	}
	return e.LoadBytes(b, "file:"+path)
}

// Watch polls path every interval (wall-clock — the file is external to
// the simulation) and hot-reloads it on modification-time changes. A load
// failure leaves the active policy in place and keeps watching. The
// returned stop function terminates the watch.
func (e *Engine) Watch(path string, every time.Duration) (stop func()) {
	if e == nil || path == "" {
		return func() {}
	}
	if every <= 0 {
		every = time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		var lastMod time.Time
		if fi, err := os.Stat(path); err == nil {
			lastMod = fi.ModTime()
		}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fi, err := os.Stat(path)
				if err != nil || !fi.ModTime().After(lastMod) {
					continue
				}
				lastMod = fi.ModTime()
				_ = e.LoadFile(path) // rejection already logged; keep watching
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// now returns the virtual time, or wall time on an engine without a clock.
func (e *Engine) now() time.Time {
	if e.clk != nil {
		return e.clk.Now()
	}
	return time.Time{}
}

// Rebalance returns the active rebalance policy and its version.
func (e *Engine) Rebalance() (RebalancePolicy, string) {
	s := e.Active()
	return s.Doc.Rebalance, s.Version
}

// Placement returns the active placement policy and its version.
func (e *Engine) Placement() (PlacementPolicy, string) {
	s := e.Active()
	return s.Doc.Placement, s.Version
}

// SLO returns the active objectives compiled for the obs detector, plus
// the policy version — the exact shape obs.SLOSource wants.
func (e *Engine) SLO() (obs.SLOConfig, string) {
	s := e.Active()
	return s.Doc.SLO.SLOConfig(), s.Version
}

// SLOSource adapts the engine to the detector's objective-source hook.
// Valid on a nil engine (serves defaults).
func (e *Engine) SLOSource() obs.SLOSource {
	return func() (obs.SLOConfig, string) { return e.SLO() }
}

// RecordDecision stamps ev with the active policy version (unless the
// caller already set one) and records it in the journal, naming a Decision
// payload's outcome and rule in Detail when the caller left it empty. A
// no-op on a nil engine or an engine without observability.
func (e *Engine) RecordDecision(ev obs.Event) {
	if e == nil || e.o == nil {
		return
	}
	if ev.PolicyVersion == "" {
		ev.PolicyVersion = e.Active().Version
	}
	if d, ok := ev.Payload.(obs.Decision); ok && ev.Detail == "" {
		ev.Detail = d.Outcome + " (rule " + d.Rule + ")"
	}
	e.o.Journal.Record(ev)
}

// Handler returns the /policy HTTP surface: GET serves the active snapshot
// as JSON, POST hot-reloads the request body (JSON or XML) and answers 400
// with the still-active version on parse or validation failure.
func (e *Engine) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			writeJSON(w, http.StatusOK, e.Active())
		case http.MethodPost, http.MethodPut:
			body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := e.LoadBytes(body, "http"); err != nil {
				writeJSON(w, http.StatusBadRequest, map[string]any{
					"error":  err.Error(),
					"active": e.Active().Version,
				})
				return
			}
			writeJSON(w, http.StatusOK, e.Active())
		default:
			w.Header().Set("Allow", "GET, POST, PUT")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
	w.Write([]byte("\n"))
}
