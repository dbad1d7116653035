//go:build goexperiment.synctest

//go:debug asynctimerchan=0

// The lockstep lane: each experiment runs full length inside a
// testing/synctest bubble, where virtual time advances only when every
// goroutine is durably blocked, so the only thing left to vary between runs
// is the order in which same-instant goroutines run. Build with
// GOEXPERIMENT=synctest (go1.24); scripts/ci.sh runs it at GOMAXPROCS=1:
//
//	GOEXPERIMENT=synctest GOMAXPROCS=1 go test -run Lockstep ./internal/experiments
//
// The go:debug line above restores synchronous timer channels, which
// synctest.Run requires, without raising go.mod's go version.
package experiments

import (
	"bytes"
	"crypto/sha256"
	"io"
	"testing"
	"testing/synctest"
)

// lockstepRuns is how many bubbled runs each experiment gets.
const lockstepRuns = 40

// lockstepOutputs runs render lockstepRuns times, each inside its own
// bubble, and returns how many distinct outputs it printed.
func lockstepOutputs(t *testing.T, render func(cfg Config, w io.Writer) error) int {
	t.Helper()
	cfg := Config{Parallelism: 1, Scale: 1}
	seen := map[[sha256.Size]byte]bool{}
	for i := 0; i < lockstepRuns; i++ {
		var buf bytes.Buffer
		var err error
		synctest.Run(func() { err = render(cfg, &buf) })
		if err != nil {
			t.Fatal(err)
		}
		seen[sha256.Sum256(buf.Bytes())] = true
	}
	return len(seen)
}

// TestLockstepFigure8: one engine-level adaptation tick observes the
// analyzer before the sampler adjusts, so Figure 8 prints one output. One
// same-instant race is left (ROADMAP item 13(b)): a tick that meets the
// simulation source's emission may read the sampler's counters before or
// after it takes that packet, and in about one bubbled run in a thousand
// that moves a late sample of the 10 ms/byte cell.
func TestLockstepFigure8(t *testing.T) {
	n := lockstepOutputs(t, func(cfg Config, w io.Writer) error {
		r, err := Figure8(cfg)
		if err == nil {
			r.Render(w)
		}
		return err
	})
	if n != 1 {
		t.Fatalf("Figure 8: %d distinct outputs in %d lockstep runs, want 1", n, lockstepRuns)
	}
}

// TestLockstepKnownUnstable reports, without failing, the experiments whose
// residue is still a same-instant race: the adaptation tick meets the
// link's pacing (Figure 9's 20 KB/s column), a source's emission or the
// analyzer's compute quantum (the ablations' 100 ms interval row) at the
// same virtual instant.
// When one reads 1 here run after run, move it to an asserting test.
func TestLockstepKnownUnstable(t *testing.T) {
	fig9 := lockstepOutputs(t, func(cfg Config, w io.Writer) error {
		r, err := Figure9(cfg)
		if err == nil {
			r.Render(w)
		}
		return err
	})
	abl := lockstepOutputs(t, func(cfg Config, w io.Writer) error {
		rs, err := Ablations(cfg)
		for _, r := range rs {
			r.Render(w)
		}
		return err
	})
	t.Logf("known unstable: Figure 9 %d and the ablations %d distinct outputs in %d lockstep runs (a tick meets link pacing, a source's emission or a compute quantum)",
		fig9, abl, lockstepRuns)
}
