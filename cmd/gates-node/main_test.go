package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/cliconf"
	"github.com/gates-middleware/gates/internal/pipeline"
	"github.com/gates-middleware/gates/internal/transport"
)

// freePort reserves a TCP port for the downstream node.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func TestTwoNodePipeline(t *testing.T) {
	addr := freePort(t)
	downstream := make(chan error, 1)
	go func() {
		// Analysis host: receives sampled mesh data over TCP. Scale 500
		// keeps adaptation epochs above timer granularity so the
		// cross-machine control plane has time to act.
		downstream <- run(nodeOptions{listen: addr, stage: "compsteer/analyzer", expect: 1, scale: 500})
	}()
	// Give the listener a moment to bind.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("downstream node never listened")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Sampler host: co-located simulation source, forwards over TCP.
	if err := run(nodeOptions{stage: "compsteer/sampler", source: "compsteer/sim", forward: addr, expect: 1, scale: 500}); err != nil {
		t.Fatal(err)
	}
	// The bound only detects genuine hangs. The run takes well under a
	// second unloaded, but the 500x-compressed virtual clocks multiply
	// timer churn, so CPU contention from concurrently running test
	// packages can stretch it enormously on a small machine — keep the
	// bound far above any loaded-but-progressing run.
	select {
	case err := <-downstream:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("downstream node never finished")
	}
}

func TestRunValidation(t *testing.T) {
	if err := run(nodeOptions{stage: "no/such", expect: 1, scale: 1}); err == nil || !strings.Contains(err.Error(), "not in repository") {
		t.Fatalf("unknown stage = %v", err)
	}
	if err := run(nodeOptions{stage: "compsteer/analyzer", expect: 1, scale: 1}); err == nil {
		t.Fatal("node with no input accepted")
	}
	if err := run(nodeOptions{stage: "compsteer/sampler", source: "no/such-src", expect: 1, scale: 1}); err == nil {
		t.Fatal("unknown source accepted")
	}
}

// TestNodeObservabilityEndpoints drives a live gates-node's HTTP surface end
// to end: the test plays the upstream node over real TCP, then scrapes
// /metrics until the stage counters reflect the traffic and /events until
// the journal has recorded self-adaptation epochs, and finally ends the
// stream and checks the node shuts down cleanly.
func TestNodeObservabilityEndpoints(t *testing.T) {
	addrs := make(chan [2]string, 1)
	nodeDone := make(chan error, 1)
	go func() {
		nodeDone <- run(nodeOptions{
			listen: "127.0.0.1:0", stage: "compsteer/analyzer", expect: 1, scale: 500,
			conf:  cliconf.Flags{ObsListen: "127.0.0.1:0"},
			onObs: func(data, obs string) { addrs <- [2]string{data, obs} },
		})
	}()
	var dataAddr, obsAddr string
	select {
	case a := <-addrs:
		dataAddr, obsAddr = a[0], a[1]
	case err := <-nodeDone:
		t.Fatalf("node exited before binding: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("node never reported its addresses")
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + obsAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return string(body)
	}

	// Play the upstream node: send data packets the analyzer will consume.
	// The node broadcasts §4 load exceptions back on this connection; drain
	// them so no unread reverse frames accumulate (see Client.CloseWrite on
	// why that matters at shutdown).
	cli, err := transport.Dial(dataAddr)
	if err != nil {
		t.Fatal(err)
	}
	go cli.ReadLoop(func(transport.Message) {})
	const packets, itemsEach = 20, 5
	for i := 0; i < packets; i++ {
		pkt := &pipeline.Packet{Seq: uint64(i), Value: float64(i), Items: itemsEach}
		if err := cli.Send(transport.PacketMessage(pkt)); err != nil {
			t.Fatal(err)
		}
	}

	// /metrics must converge on the traffic we injected: host stage item
	// counters, queue instruments, and transport frame counters all live
	// in one registry.
	wantItems := fmt.Sprintf(`gates_stage_items_in_total{instance="0",node="",stage="host"} %d`, packets*itemsEach)
	waitFor(t, "metrics to reflect injected items", func() (bool, string) {
		body := get("/metrics")
		return strings.Contains(body, wantItems), body
	})
	body := get("/metrics")
	for _, want := range []string{
		`gates_stage_items_out_total{instance="0",node="",stage="host"}`,
		`gates_queue_depth{instance="0",node="",stage="host"}`,
		`gates_transport_frames_in_total`,
		`gates_adaptations_total{instance="0",node="",stage="host"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	// /events must fill in as the host's adjust epochs fire (200ms virtual
	// at 500x is sub-millisecond real time). Both the host and the ingress
	// stage adapt; the filter keeps the host's own epochs.
	var journal struct {
		Events []struct {
			Kind    string `json:"kind"`
			Stage   string `json:"stage"`
			Payload struct {
				DTilde *float64 `json:"d_tilde"`
			} `json:"payload"`
		} `json:"events"`
	}
	waitFor(t, "journal to record host adaptation epochs", func() (bool, string) {
		raw := get("/events?kind=adaptation&stage=host")
		if err := json.Unmarshal([]byte(raw), &journal); err != nil {
			t.Fatalf("/events: %v in %s", err, raw)
		}
		return len(journal.Events) > 0, raw
	})
	for _, ev := range journal.Events {
		if ev.Kind != "adaptation" || ev.Stage != "host" || ev.Payload.DTilde == nil {
			t.Fatalf("filtered /events served %+v", ev)
		}
	}
	// Policy loads are journaled too: the node loaded the default document.
	if body := get("/events?kind=policy"); !strings.Contains(body, `"policy_version": "default"`) {
		t.Errorf("/events?kind=policy missing the default load: %s", body)
	}
	// The endpoints /events replaced are gone.
	for _, retired := range []string{"/adaptations", "/migrations", "/decisions", "/flightrecorder"} {
		resp, err := http.Get("http://" + obsAddr + retired)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404", retired, resp.StatusCode)
		}
	}

	// /snapshot serves the same registry as JSON.
	if snap := get("/snapshot"); !strings.Contains(snap, "gates_stage_items_in_total") {
		t.Errorf("/snapshot missing stage counters: %s", snap)
	}

	// End the stream; the node must drain and exit cleanly. Half-close
	// rather than Close: a full close with reverse exception frames still
	// queued unread resets the connection, and the reset can destroy the
	// final marker before the node reads it.
	if err := cli.Send(transport.PacketMessage(&pipeline.Packet{Final: true})); err != nil {
		t.Fatal(err)
	}
	if err := cli.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	select {
	case err := <-nodeDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("node never finished after final marker")
	}
}

// waitFor polls cond until it reports success or a generous deadline expires,
// failing with the last observed state.
func waitFor(t *testing.T, what string, cond func() (bool, string)) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		ok, state := cond()
		if ok {
			return
		}
		last = state
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; last state:\n%s", what, last)
}
