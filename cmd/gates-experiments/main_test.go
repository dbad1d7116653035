package main

import (
	"fmt"
	"testing"

	"github.com/gates-middleware/gates/internal/experiments"
)

func TestRunSingleFigure(t *testing.T) {
	if err := run("fig5", experiments.Config{Quick: true}); err != nil {
		t.Fatal(err)
	}
}

// TestRunUnknownExperiment also pins that -exp latency stays retired: the
// trace-sampling cost it swept is read from bench/'s traced workloads.
func TestRunUnknownExperiment(t *testing.T) {
	for _, exp := range []string{"fig99", "latency"} {
		err := run(exp, experiments.Config{Quick: true})
		if want := fmt.Sprintf("unknown experiment %q", exp); err == nil || err.Error() != want {
			t.Fatalf("run(%q) = %v, want %s", exp, err, want)
		}
	}
}
