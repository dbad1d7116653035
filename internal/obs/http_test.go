package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
)

func newTestBundle(t *testing.T) (*Observability, *clock.Manual) {
	t.Helper()
	clk := clock.NewManual()
	o := New(clk, Config{SampleEvery: 1, TraceCapacity: 8, JournalCapacity: 8})
	o.Registry.Counter("gates_items_total", "items", map[string]string{"stage": "sink"}).Add(9)
	sp := start(o.Tracer.Op("stage.batch"))
	clk.Advance(5 * time.Millisecond)
	sp.End()
	o.Journal.Record(Event{Kind: EventAdaptation, Stage: "sink", Payload: Adaptation{DeltaP: -0.25}})
	o.Journal.Record(Event{Kind: EventLifecycle, Stage: "sink", Instance: 1, Detail: "init → running"})
	o.Journal.Record(Event{Kind: EventPolicy, Detail: "policy v1 loaded (test)"})
	return o, clk
}

func get(t *testing.T, h http.Handler, path string) (int, string, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Header().Get("Content-Type"), rec.Body.String()
}

func TestHandlerMetrics(t *testing.T) {
	o, _ := newTestBundle(t)
	code, ct, body := get(t, Handler(o), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	for _, want := range []string{
		`gates_items_total{stage="sink"} 9`,
		"gates_trace_spans_started_total 1",
		"gates_trace_spans_sampled_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("missing %q in:\n%s", want, body)
		}
	}
}

func TestHandlerSnapshot(t *testing.T) {
	o, _ := newTestBundle(t)
	code, ct, body := get(t, Handler(o), "/snapshot")
	if code != http.StatusOK || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("status %d content-type %q", code, ct)
	}
	var got struct {
		At      time.Time     `json:"at"`
		Metrics []MetricPoint `json:"metrics"`
		Events  []Event       `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if got.At.IsZero() || len(got.Metrics) == 0 || len(got.Events) != 3 {
		t.Fatalf("snapshot = %+v", got)
	}
	found := false
	for _, p := range got.Metrics {
		if p.Name == "gates_items_total" && p.Value == 9 && p.Labels["stage"] == "sink" {
			found = true
		}
	}
	if !found {
		t.Fatalf("gates_items_total missing from snapshot: %s", body)
	}
}

// TestHandlerAdaptations reads adaptation epochs through /events: each
// query parameter narrows the journal, a bad one answers 400, and the
// endpoints /events replaced are gone.
func TestHandlerAdaptations(t *testing.T) {
	o, _ := newTestBundle(t)
	h := Handler(o)
	events := func(query string) (total uint64, evs []Event) {
		t.Helper()
		code, ct, body := get(t, h, "/events"+query)
		if code != http.StatusOK || !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("/events%s: status %d content-type %q", query, code, ct)
		}
		var got struct {
			Total    uint64  `json:"total"`
			Capacity int     `json:"capacity"`
			Events   []Event `json:"events"`
		}
		if err := json.Unmarshal([]byte(body), &got); err != nil {
			t.Fatal(err)
		}
		if got.Capacity != 8 {
			t.Fatalf("capacity %d, want the configured 8", got.Capacity)
		}
		return got.Total, got.Events
	}
	total, evs := events("?kind=adaptation")
	if total != 3 || len(evs) != 1 || evs[0].Payload.(map[string]any)["delta_p"] != -0.25 {
		t.Fatalf("adaptations = %d %+v", total, evs)
	}
	for query, want := range map[string]int{
		"":                        3,
		"?stage=sink":             2,
		"?stage=sink&instance=0":  1,
		"?instance=1":             1,
		"?since=1":                2,
		"?kind=policy&since=2":    1,
		"?kind=migration":         0,
		"?stage=sink&kind=policy": 0,
	} {
		if _, evs := events(query); len(evs) != want {
			t.Errorf("/events%s kept %d events, want %d", query, len(evs), want)
		}
	}
	for _, bad := range []string{"?instance=x", "?since=-1"} {
		if code, _, _ := get(t, h, "/events"+bad); code != http.StatusBadRequest {
			t.Errorf("/events%s status %d, want 400", bad, code)
		}
	}
	for _, retired := range []string{"/adaptations", "/migrations", "/decisions", "/flightrecorder"} {
		if code, _, _ := get(t, h, retired); code != http.StatusNotFound {
			t.Errorf("%s status %d, want 404", retired, code)
		}
	}
}

func TestHandlerTraces(t *testing.T) {
	o, _ := newTestBundle(t)
	_, _, body := get(t, Handler(o), "/traces")
	var got struct {
		Started uint64       `json:"started"`
		Sampled uint64       `json:"sampled"`
		Spans   []SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if got.Started != 1 || got.Sampled != 1 || len(got.Spans) != 1 {
		t.Fatalf("traces = %+v", got)
	}
	if got.Spans[0].Name != "stage.batch" || got.Spans[0].Duration != 5*time.Millisecond {
		t.Fatalf("span = %+v", got.Spans[0])
	}
}

func TestHandlerIndexAndNotFound(t *testing.T) {
	o, _ := newTestBundle(t)
	h := Handler(o)
	code, _, body := get(t, h, "/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: %d %q", code, body)
	}
	if code, _, _ := get(t, h, "/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path status %d", code)
	}
}

func TestHandlerDisabledTracer(t *testing.T) {
	o := New(clock.NewManual(), Config{SampleEvery: -1})
	_, _, body := get(t, Handler(o), "/traces")
	var got struct {
		Started uint64       `json:"started"`
		Spans   []SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if got.Started != 0 || len(got.Spans) != 0 {
		t.Fatalf("disabled tracer served %+v", got)
	}
	// /events must serve an empty list, not null.
	_, _, body = get(t, Handler(o), "/events")
	if !strings.Contains(body, `"events": []`) {
		t.Fatalf("empty journal not an empty list: %s", body)
	}
}

func TestServeOverTCP(t *testing.T) {
	o, _ := newTestBundle(t)
	srv, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "gates_items_total") {
		t.Fatalf("GET /metrics over TCP: %d %s", resp.StatusCode, body)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
