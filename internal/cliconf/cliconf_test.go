package cliconf

import (
	"flag"
	"os"
	"path/filepath"
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
	if f.TraceSample != obs.DefaultTraceSample() || f.FlightSize != obs.DefaultFlightCapacity {
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

// TestNewObservability: the bundle honors the flight-recorder flags.
func TestNewObservability(t *testing.T) {
	clk := clock.NewManual()
	dump := filepath.Join(t.TempDir(), "flight.json")
	f := &Flags{FlightSize: 4, FlightDump: dump}
	ob := f.NewObservability(clk)
	for i := 0; i < 10; i++ {
		ob.Flight.Record(obs.FlightEvent{Kind: obs.FlightPolicy, Detail: "x"})
	}
	if got := len(ob.Flight.Events()); got != 4 {
		t.Errorf("flight recorder retained %d events, want the configured 4", got)
	}
	path, err := ob.Flight.DumpToDisk("test")
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
