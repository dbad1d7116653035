package cliconf

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/obs"
)

// TestRegisterParse: the shared block parses into the struct, and the
// defaults match the obs package's.
func TestRegisterParse(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	err := fs.Parse([]string{
		"-obs-listen", "127.0.0.1:0",
		"-trace-sample", "32",
		"-flight-recorder-size", "99",
		"-flight-dump", "/tmp/f.json",
		"-v",
		"-policy", "p.json",
		"-policy-watch", "2s",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Flags{
		ObsListen:   "127.0.0.1:0",
		TraceSample: 32,
		FlightSize:  99,
		FlightDump:  "/tmp/f.json",
		Verbose:     true,
		PolicyPath:  "p.json",
		PolicyWatch: 2 * time.Second,
	}
	if *f != want {
		t.Errorf("parsed %+v, want %+v", *f, want)
	}

	fs = flag.NewFlagSet("defaults", flag.ContinueOnError)
	f = Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f.TraceSample != obs.DefaultTraceSample() || f.FlightSize != obs.DefaultJournalCapacity {
		t.Errorf("defaults %+v", *f)
	}
	if f.ObsListen != "" || f.PolicyPath != "" || f.PolicyWatch != 0 {
		t.Errorf("zero-value flags not zero: %+v", *f)
	}
}

// TestSampleEvery: the raw flag resolves through the obs convention.
func TestSampleEvery(t *testing.T) {
	if got := (&Flags{TraceSample: 16}).SampleEvery(); got != 16 {
		t.Errorf("SampleEvery(16) = %d", got)
	}
	// 0 disables tracing, which obs.Config spells as a negative.
	if got := (&Flags{TraceSample: 0}).SampleEvery(); got >= 0 {
		t.Errorf("SampleEvery(0) = %d, want negative (disabled)", got)
	}
}

// TestNewObservability: the bundle's journal honors the flight-recorder
// flags.
func TestNewObservability(t *testing.T) {
	clk := clock.NewManual()
	dump := filepath.Join(t.TempDir(), "flight.json")
	f := &Flags{FlightSize: 4, FlightDump: dump}
	ob := f.NewObservability(clk)
	for i := 0; i < 10; i++ {
		ob.Journal.Record(obs.Event{Kind: obs.EventPolicy, Detail: "x"})
	}
	if got := len(ob.Journal.Events(obs.EventFilter{})); got != 4 {
		t.Errorf("journal retained %d events, want the configured 4", got)
	}
	path, err := ob.Journal.DumpToDisk("test")
	if err != nil || path == "" {
		t.Fatalf("DumpToDisk = %q, %v", path, err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("dump file missing: %v", err)
	}
}

// TestStartPolicy: no path serves defaults; a path loads the file; a bad
// path fails the launch.
func TestStartPolicy(t *testing.T) {
	clk := clock.NewManual()
	eng, stop, err := (&Flags{}).StartPolicy(clk, nil)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if v := eng.Active().Version; v != "default" {
		t.Errorf("no-path engine serves %q", v)
	}

	path := filepath.Join(t.TempDir(), "policy.json")
	if err := os.WriteFile(path, []byte(`{"version": "from-file"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	eng, stop, err = (&Flags{PolicyPath: path, PolicyWatch: time.Minute}).StartPolicy(clk, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if v := eng.Active().Version; v != "from-file" {
		t.Errorf("file engine serves %q", v)
	}

	if _, _, err := (&Flags{PolicyPath: filepath.Join(t.TempDir(), "nope.json")}).StartPolicy(clk, nil); err == nil {
		t.Error("missing policy file did not fail the launch")
	}
}

// TestNotifyFlightDumpSIGQUIT re-executes the test binary as a child that
// installs the handler and sends itself SIGQUIT. Without a dump path the
// handler must stay out of the way, so the Go runtime's default kills the
// child with its "SIGQUIT: quit" stack dump; with one, the child survives
// and the dump file holds the journal and its dump marker.
func TestNotifyFlightDumpSIGQUIT(t *testing.T) {
	if args := flag.Args(); len(args) == 2 && args[0] == "sigquit-child" {
		sigquitChild(t, args[1])
		return
	}
	child := func(dump string) ([]byte, error) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		return exec.CommandContext(ctx, os.Args[0],
			"-test.run=^TestNotifyFlightDumpSIGQUIT$", "--", "sigquit-child", dump).CombinedOutput()
	}

	out, err := child("")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || !strings.Contains(string(out), "SIGQUIT: quit") {
		t.Fatalf("with no dump path SIGQUIT must reach the runtime and kill the child; err=%v, output:\n%s", err, out)
	}

	dump := filepath.Join(t.TempDir(), "journal.json")
	if out, err := child(dump); err != nil {
		t.Fatalf("with a dump path the child must survive SIGQUIT: %v\n%s", err, out)
	}
	data, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		Events []obs.Event `json:"events"`
	}
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("dump is not JSON: %v\n%s", err, data)
	}
	if n := len(d.Events); n == 0 || d.Events[n-1].Kind != obs.EventDump || d.Events[n-1].Detail != "sigquit" {
		t.Fatalf("dump events %+v, want the sigquit dump marker last", d.Events)
	}
}

// sigquitChild is the re-executed half of TestNotifyFlightDumpSIGQUIT.
func sigquitChild(t *testing.T, dump string) {
	f := &Flags{FlightDump: dump}
	ob := f.NewObservability(clock.NewManual())
	stop := f.NotifyFlightDump(ob, "cliconf-test")
	defer stop()
	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := self.Signal(syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	if dump == "" {
		// The runtime ends the process; sleeping on to a clean exit means
		// a handler swallowed the signal.
		time.Sleep(5 * time.Second)
		return
	}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if _, err := os.Stat(dump); err == nil {
			return
		}
	}
	t.Fatal("SIGQUIT never dumped the journal")
}
