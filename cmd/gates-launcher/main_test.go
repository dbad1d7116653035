package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/cliconf"
	"github.com/gates-middleware/gates/internal/obs"
)

const steeringXML = `
<application name="smoke">
  <stage id="sim" code="compsteer/sim" source="true"><nearSource>mesh</nearSource></stage>
  <stage id="sampler" code="compsteer/sampler"><nearSource>mesh</nearSource></stage>
  <stage id="analysis" code="compsteer/analyzer"/>
  <connection from="sim" to="sampler"/>
  <connection from="sampler" to="analysis"/>
</application>`

func TestRunLiteralConfig(t *testing.T) {
	// 300 virtual seconds of comp-steer at 20000x: well under a second.
	opts := launcherOptions{scale: 20_000, bandwidth: 100_000, topIv: 2 * time.Second}
	if err := run(steeringXML, opts); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadConfig(t *testing.T) {
	if err := run(`<application name="x"/>`, launcherOptions{scale: 20_000, bandwidth: 100_000}); err == nil {
		t.Fatal("invalid descriptor launched")
	}
}

func TestRunUnknownCode(t *testing.T) {
	xml := `<application name="x"><stage id="a" code="no/such" source="true"/></application>`
	if err := run(xml, launcherOptions{scale: 20_000, bandwidth: 100_000}); err == nil {
		t.Fatal("unknown stage code launched")
	}
}

func TestRunWithObservability(t *testing.T) {
	// The endpoint itself is exercised end-to-end in cmd/gates-node; here
	// we check the launcher can bind, serve, and tear down its surface.
	opts := launcherOptions{scale: 20_000, bandwidth: 100_000, conf: cliconf.Flags{ObsListen: "127.0.0.1:0"}}
	if err := run(steeringXML, opts); err != nil {
		t.Fatal(err)
	}
}

// TestRunClusterEndpoint drives a full launcher run while polling the
// /cluster endpoint: the merged view must carry end-to-end latency
// quantiles for the pipeline's sink once the run completes, judged against
// the objective the -policy document sets.
func TestRunClusterEndpoint(t *testing.T) {
	// A 1 h target is never violated in a smoke run.
	pol := filepath.Join(t.TempDir(), "policy.json")
	if err := os.WriteFile(pol, []byte(`{"version": "smoke", "slo": {"target_p99": "1h"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	obsCh := make(chan string, 1)
	// The comp-steer smoke run covers ~350 virtual seconds; 1000x keeps the
	// server alive for a few hundred wall milliseconds of polling.
	opts := launcherOptions{
		scale:     1000,
		bandwidth: 100_000,
		conf:      cliconf.Flags{ObsListen: "127.0.0.1:0", PolicyPath: pol},
		onObs:     func(addr string) { obsCh <- addr },
	}
	done := make(chan error, 1)
	go func() { done <- run(steeringXML, opts) }()
	addr := <-obsCh

	// Poll /cluster while the run progresses; accept the last view before
	// the server closes.
	var view obs.ClusterView
	gotLatency := false
	for {
		resp, err := http.Get("http://" + addr + "/cluster")
		if err != nil {
			break // run finished, server closed
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			break // body cut off: the server closed mid-write as the run ended
		}
		var v obs.ClusterView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("/cluster not JSON: %v\n%s", err, body)
		}
		view = v
		if len(v.Latency) > 0 {
			gotLatency = true
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !gotLatency {
		t.Fatalf("no latency summaries ever appeared in /cluster; last view: %+v", view)
	}
	// What the 1 h target makes certain is the latency objective. The flag
	// itself may be up: comp-steer's analysis stage is a deliberate
	// bottleneck, and the last poll can catch the queue-growth rule on it
	// (that rule's own scenario is obs.TestSLOMonitorQueueGrowthEpochs).
	if view.SLO.TargetP99 != obs.JSONFloat(time.Hour.Seconds()) {
		t.Fatalf("SLO target %v, want the policy document's 1h", view.SLO.TargetP99)
	}
	if view.SLO.SinkP99 > view.SLO.TargetP99 {
		t.Fatalf("sink p99 %v above the 1h target %v: %+v", view.SLO.SinkP99, view.SLO.TargetP99, view.SLO)
	}
	for _, reason := range view.SLO.Reasons {
		if strings.Contains(reason, "sink p99") {
			t.Fatalf("1h latency objective flagged violated: %+v", view.SLO)
		}
	}
	var sb strings.Builder
	view.Render(&sb)
	if !strings.Contains(sb.String(), "gates cluster") {
		t.Fatalf("dashboard render missing header:\n%s", sb.String())
	}
}

func TestSplitScrape(t *testing.T) {
	got := splitScrape(" a:1, ,b:2,")
	want := fmt.Sprintf("%v", []string{"a:1", "b:2"})
	if fmt.Sprintf("%v", got) != want {
		t.Fatalf("splitScrape = %v, want %s", got, want)
	}
	if splitScrape("") != nil {
		t.Fatalf("splitScrape(\"\") = %v, want nil", splitScrape(""))
	}
}
