package policy

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/obs"
)

func newTestEngine(t *testing.T) (*Engine, *obs.Observability) {
	t.Helper()
	clk := clock.NewManual()
	ob := obs.New(clk, obs.Config{})
	return New(clk, ob), ob
}

// lastEvent returns the journal's newest event and its Decision payload.
func lastEvent(t *testing.T, ob *obs.Observability) (obs.Event, obs.Decision) {
	t.Helper()
	evs := ob.Journal.Events(obs.EventFilter{})
	if len(evs) == 0 {
		t.Fatal("journal is empty")
	}
	ev := evs[len(evs)-1]
	d, _ := ev.Payload.(obs.Decision)
	return ev, d
}

// TestEngineDefaultSnapshot: a fresh engine serves the default document as
// load #1.
func TestEngineDefaultSnapshot(t *testing.T) {
	eng, ob := newTestEngine(t)
	s := eng.Active()
	if s.Version != "default" || s.Seq != 1 || s.Origin != "default" {
		t.Errorf("initial snapshot %+v", s)
	}
	if s.Doc.Rebalance.Threshold != DefaultRebalanceThreshold {
		t.Errorf("default threshold %g", s.Doc.Rebalance.Threshold)
	}
	// The initial load itself is a decision.
	if ev, d := lastEvent(t, ob); ev.Kind != obs.EventPolicy || d.Outcome != "loaded" {
		t.Errorf("initial load decision %+v", ev)
	}
}

// TestEngineLoadAndVersionStamp: loads bump seq, empty versions are stamped
// v<seq>, and the journal records each load, once, with its predecessor.
func TestEngineLoadAndVersionStamp(t *testing.T) {
	eng, ob := newTestEngine(t)
	doc := Document{Version: "v-ops"}
	if err := eng.Load(doc, "test"); err != nil {
		t.Fatal(err)
	}
	if s := eng.Active(); s.Version != "v-ops" || s.Seq != 2 || s.Origin != "test" {
		t.Errorf("snapshot %+v", s)
	}
	// An unversioned document gets the sequence label.
	if err := eng.Load(Document{}, "test2"); err != nil {
		t.Fatal(err)
	}
	if s := eng.Active(); s.Version != "v3" {
		t.Errorf("stamped version %q, want v3", s.Version)
	}
	if _, d := lastEvent(t, ob); d.Input["replaced"] != "v-ops" {
		t.Errorf("load decision input %+v, want replaced=v-ops", d.Input)
	}
	// Each load — the default one included — is exactly one journal event.
	if evs := ob.Journal.Events(obs.EventFilter{}); len(evs) != 3 {
		t.Errorf("three loads recorded %d events: %+v", len(evs), evs)
	}
	if got := len(ob.Journal.Events(obs.EventFilter{Kind: obs.EventPolicy})); got != 3 {
		t.Errorf("%d policy events for three loads", got)
	}
}

// TestEngineRollback: an invalid document never becomes active, and the
// rejection is itself a logged decision citing the surviving version.
func TestEngineRollback(t *testing.T) {
	eng, ob := newTestEngine(t)
	if err := eng.Load(Document{Version: "good"}, "test"); err != nil {
		t.Fatal(err)
	}
	bad := Document{Version: "bad"}
	bad.Rebalance.Threshold = -4
	if err := eng.Load(bad, "test"); err == nil {
		t.Fatal("invalid document loaded")
	}
	if s := eng.Active(); s.Version != "good" {
		t.Errorf("active after rejected load = %q, want good", s.Version)
	}
	ev, d := lastEvent(t, ob)
	if ev.Kind != obs.EventPolicy || d.Outcome != "rejected" || ev.PolicyVersion != "good" {
		t.Errorf("rejection decision %+v", ev)
	}
	if d.Input["candidate"] != "bad" {
		t.Errorf("rejection input %+v", d.Input)
	}
	// Unparseable bytes roll back the same way.
	if err := eng.LoadBytes([]byte(`{"nope":`), "http"); err == nil {
		t.Fatal("garbage bytes loaded")
	}
	if s := eng.Active(); s.Version != "good" {
		t.Errorf("active after parse failure = %q", s.Version)
	}
	if ev, d := lastEvent(t, ob); d.Outcome != "rejected" || d.Input["origin"] != "http" {
		t.Errorf("parse-failure decision %+v", ev)
	}
}

// TestNilEngine: every read works on a nil engine and serves defaults;
// RecordDecision is a no-op.
func TestNilEngine(t *testing.T) {
	var eng *Engine
	if s := eng.Active(); s.Version != "default" {
		t.Errorf("nil Active = %+v", s)
	}
	if pol, v := eng.Rebalance(); pol.Threshold != DefaultRebalanceThreshold || v != "default" {
		t.Errorf("nil Rebalance = %+v, %q", pol, v)
	}
	if plc, _ := eng.Placement(); plc.LinkCostWeight != DefaultLinkCostWeight {
		t.Errorf("nil Placement = %+v", plc)
	}
	cfg, v := eng.SLOSource()()
	if cfg.GrowthEpochs != obs.DefaultSLOGrowthEpochs || v != "default" {
		t.Errorf("nil SLOSource = %+v, %q", cfg, v)
	}
	eng.RecordDecision(obs.Event{Kind: obs.EventPlacement}) // must not panic
	if err := eng.Load(Document{}, "x"); err == nil {
		t.Error("nil Load succeeded")
	}
}

// TestRecordDecisionStamping: the engine stamps version and virtual time,
// names the outcome and rule in Detail, and records each decision once.
func TestRecordDecisionStamping(t *testing.T) {
	clk := clock.NewManual()
	ob := obs.New(clk, obs.Config{})
	eng := New(clk, ob)
	if err := eng.Load(Document{Version: "stamp"}, "test"); err != nil {
		t.Fatal(err)
	}
	before := ob.Journal.Total()

	eng.RecordDecision(obs.Event{
		Kind: obs.EventPlacement, Stage: "merge", Node: "central",
		Payload: obs.Decision{Rule: "pin-merge", Outcome: "placed"},
	})
	ev, _ := lastEvent(t, ob)
	if ev.PolicyVersion != "stamp" {
		t.Errorf("placement decision version %q", ev.PolicyVersion)
	}
	if ev.At.IsZero() {
		t.Error("decision not timestamped")
	}
	if ev.Detail != "placed (rule pin-merge)" {
		t.Errorf("placement detail %q", ev.Detail)
	}
	if got := ob.Journal.Total(); got != before+1 {
		t.Errorf("one decision recorded %d events", got-before)
	}

	// A caller's detail and an explicit version are preserved.
	eng.RecordDecision(obs.Event{
		Kind: obs.EventRebalance, PolicyVersion: "older", Detail: "kept",
		Payload: obs.Decision{Rule: "cooldown", Outcome: "skip"},
	})
	if ev, _ := lastEvent(t, ob); ev.PolicyVersion != "older" || ev.Detail != "kept" {
		t.Errorf("explicit fields overwritten: %+v", ev)
	}
	if got := ob.Journal.Total(); got != before+2 {
		t.Errorf("two decisions recorded %d events", got-before)
	}
}

// TestHandler drives the /policy HTTP surface: GET, a good reload, a
// rejected reload answering 400 with the still-active version, and the
// method guard.
func TestHandler(t *testing.T) {
	eng, _ := newTestEngine(t)
	h := eng.Handler()

	get := func() Snapshot {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/policy", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /policy = %d", rec.Code)
		}
		var s Snapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
			t.Fatalf("GET body not JSON: %v\n%s", err, rec.Body.String())
		}
		return s
	}
	if s := get(); s.Version != "default" {
		t.Errorf("GET version %q", s.Version)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/policy",
		strings.NewReader(`{"version": "posted", "rebalance": {"threshold": 4}}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST = %d: %s", rec.Code, rec.Body.String())
	}
	if s := get(); s.Version != "posted" || s.Doc.Rebalance.Threshold != 4 {
		t.Errorf("after POST: %+v", s)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/policy",
		strings.NewReader(`{"rebalance": {"threshold": -1}}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid POST = %d, want 400", rec.Code)
	}
	var failure struct {
		Error  string `json:"error"`
		Active string `json:"active"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &failure); err != nil {
		t.Fatalf("400 body not JSON: %s", rec.Body.String())
	}
	if failure.Active != "posted" || failure.Error == "" {
		t.Errorf("400 body %+v", failure)
	}
	if s := get(); s.Version != "posted" {
		t.Errorf("rejected POST changed active policy to %q", s.Version)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/policy", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE = %d, want 405", rec.Code)
	}
}

// TestLoadFileAndWatch: a document loads from disk, and the watcher picks
// up a rewrite (and survives a broken one).
func TestLoadFileAndWatch(t *testing.T) {
	eng, _ := newTestEngine(t)
	path := filepath.Join(t.TempDir(), "policy.json")
	if err := os.WriteFile(path, []byte(`{"version": "disk-1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if s := eng.Active(); s.Version != "disk-1" || s.Origin != "file:"+path {
		t.Errorf("snapshot %+v", s)
	}
	if err := eng.LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file loaded")
	}

	stop := eng.Watch(path, 5*time.Millisecond)
	defer stop()
	if err := os.WriteFile(path, []byte(`{"version": "disk-2"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// The watcher triggers on mtime changes, and its baseline stat races
	// with the rewrite above; keep pushing the mtime forward so some bump
	// is unambiguously newer than whatever baseline it captured.
	deadline := time.Now().Add(5 * time.Second)
	future := time.Now()
	for eng.Active().Version != "disk-2" {
		if time.Now().After(deadline) {
			t.Fatalf("watcher never loaded disk-2; active %q", eng.Active().Version)
		}
		future = future.Add(time.Hour)
		if err := os.Chtimes(path, future, future); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	stop() // idempotent

	// A nil engine or empty path yields a no-op watcher.
	var nilEng *Engine
	nilEng.Watch(path, time.Millisecond)()
	eng.Watch("", time.Millisecond)()
}

// TestAccessorVersions: the typed accessors agree with the active snapshot.
func TestAccessorVersions(t *testing.T) {
	eng, _ := newTestEngine(t)
	doc := Document{Version: "acc"}
	doc.Rebalance.Threshold = 9
	doc.Placement.TopologyAware = true
	doc.SLO.TargetP99 = Duration(2 * time.Second)
	if err := eng.Load(doc, "test"); err != nil {
		t.Fatal(err)
	}
	if pol, v := eng.Rebalance(); pol.Threshold != 9 || v != "acc" {
		t.Errorf("Rebalance = %+v, %q", pol, v)
	}
	if plc, v := eng.Placement(); !plc.TopologyAware || v != "acc" {
		t.Errorf("Placement = %+v, %q", plc, v)
	}
	if cfg, v := eng.SLO(); cfg.TargetP99 != 2 || v != "acc" {
		t.Errorf("SLO = %+v, %q", cfg, v)
	}
}
