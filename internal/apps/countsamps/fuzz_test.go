package countsamps

import (
	"bytes"
	"encoding/json"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// sketchAfter returns a sketch that observed n values of a small skewed
// stream under footprint fp.
func sketchAfter(fp, n int, seed int64) *Sketch {
	s := NewSketch(fp, seed)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		s.Observe(rng.Intn(1 + rng.Intn(50)))
	}
	return s
}

// summarizerBlob wraps a sketch blob as a Summarizer snapshot.
func summarizerBlob(t testing.TB, since int, sketch []byte) []byte {
	t.Helper()
	b, err := json.Marshal(summarizerWire{Since: since, Sketch: sketch})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// drawBound is UnmarshalBinary's (R + 2)·O for a live sketch.
func drawBound(t *testing.T, s *Sketch) uint64 {
	t.Helper()
	raises, ok := raisesTo(s.tau)
	if !ok {
		t.Fatalf("live sketch holds unreachable τ %v", s.tau)
	}
	if hi, lo := bits.Mul64(uint64(raises)+2, s.observed); hi == 0 {
		return lo
	}
	return math.MaxUint64
}

// TestSketchDrawBoundHolds runs random Observe/SetFootprint histories and
// checks, at random points, that the draws stay within the bound Restore
// enforces, and that a marshal/unmarshal round trip is accepted and goes on
// to draw exactly what the original does.
func TestSketchDrawBoundHolds(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSketch(1+rng.Intn(20), seed)
		for step := 0; step < 400; step++ {
			if rng.Intn(10) == 0 {
				s.SetFootprint(1 + rng.Intn(20))
			} else {
				for i := rng.Intn(30); i >= 0; i-- {
					s.Observe(rng.Intn(1 + rng.Intn(200)))
				}
			}
			if s.draws > drawBound(t, s) {
				t.Fatalf("seed %d step %d: %d draws above the bound %d (τ %v, %d observed)",
					seed, step, s.draws, drawBound(t, s), s.tau, s.observed)
			}
			if rng.Intn(20) != 0 {
				continue
			}
			blob, err := s.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var back Sketch
			if err := back.UnmarshalBinary(blob); err != nil {
				t.Fatalf("seed %d step %d: round trip refused: %v", seed, step, err)
			}
			for i := 0; i < 50; i++ {
				v := rng.Intn(300)
				s.Observe(v)
				back.Observe(v)
			}
			a, _ := s.MarshalBinary()
			b, _ := back.MarshalBinary()
			if !bytes.Equal(a, b) {
				t.Fatalf("seed %d step %d: restored sketch diverged\n%s\n%s", seed, step, a, b)
			}
		}
	}
}

// TestSketchRestoreRefusesUnreachableState feeds UnmarshalBinary state no
// running sketch holds; each blob is refused and the sketch keeps its state.
func TestSketchRestoreRefusesUnreachableState(t *testing.T) {
	for _, blob := range []string{
		`{"footprint":4,"tau":0.5,"observed":3,"values":[1],"counts":[1]}`,
		`{"footprint":4,"tau":1.1,"observed":3,"values":[1],"counts":[1]}`,
		`{"footprint":4,"tau":1e999,"observed":3,"values":[1],"counts":[1]}`,
		`{"footprint":4,"tau":1,"observed":3,"values":[1,2],"counts":[1,0]}`,
		`{"footprint":4,"tau":1,"observed":3,"values":[1,2],"counts":[1,-1]}`,
		`{"footprint":4,"tau":1,"observed":3,"values":[2,1],"counts":[1,1]}`,
		`{"footprint":4,"tau":1,"observed":3,"values":[1,1],"counts":[1,1]}`,
		`{"footprint":1,"tau":1,"observed":3,"values":[1,2],"counts":[1,1]}`,
		`{"footprint":4,"tau":1,"observed":3,"values":[1,2],"counts":[2,2]}`,
		`{"footprint":4,"tau":1,"observed":3,"draws":7,"values":[1],"counts":[1]}`,
	} {
		s := sketchAfter(8, 500, 3)
		before, _ := s.MarshalBinary()
		if err := s.UnmarshalBinary([]byte(blob)); err == nil {
			t.Errorf("UnmarshalBinary(%s) accepted", blob)
		}
		if after, _ := s.MarshalBinary(); !bytes.Equal(before, after) {
			t.Errorf("UnmarshalBinary(%s) refused but changed the sketch", blob)
		}
	}
	for _, tau := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 1.1} {
		if _, ok := raisesTo(tau); ok {
			t.Errorf("τ %v reported reachable", tau)
		}
	}
	for tau, want := 1.0, 0; tau < 1e6; tau, want = nextTau(tau), want+1 {
		if got, ok := raisesTo(tau); !ok || got != want {
			t.Fatalf("raisesTo(%v) = %d, %t; want %d, true", tau, got, ok, want)
		}
	}
}

// TestSummarizerRestoreRefusesHugeDraws feeds Restore a 500-value history
// that claims 10^18 draws, which the replay would step through one flip at a
// time. It is refused at once, as is a negative flush countdown, and the
// summarizer keeps its state.
func TestSummarizerRestoreRefusesHugeDraws(t *testing.T) {
	sk, err := sketchAfter(8, 500, 5).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var s Summarizer
	if err := s.Restore(summarizerBlob(t, 7, sk)); err != nil {
		t.Fatal(err)
	}
	before, _ := s.Snapshot()
	var w sketchWire
	if err := json.Unmarshal(sk, &w); err != nil {
		t.Fatal(err)
	}
	w.Draws = 1e18
	huge, _ := json.Marshal(w)
	if err := s.Restore(summarizerBlob(t, 7, huge)); err == nil {
		t.Fatal("Restore accepted 10^18 draws for a 500-value history")
	}
	if err := s.Restore(summarizerBlob(t, -1, sk)); err == nil {
		t.Fatal("Restore accepted a negative flush countdown")
	}
	if after, _ := s.Snapshot(); !bytes.Equal(before, after) {
		t.Fatalf("refused restores changed the summarizer:\n%s\n%s", before, after)
	}
}

// FuzzSummarizerRestore feeds Summarizer.Restore what a checkpoint or a
// migration hands a new instance: bytes from outside the process. It must
// not panic, and a blob it accepts must hold state a running summarizer
// reaches and must snapshot back to a blob that restores to the same state.
func FuzzSummarizerRestore(f *testing.F) {
	for _, sk := range []*Sketch{NewSketch(1, 0), sketchAfter(4, 40, 1), sketchAfter(8, 300, 2)} {
		b, err := sk.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(summarizerBlob(f, 3, b))
	}
	for _, seed := range []string{
		`{"since":0,"sketch":{"footprint":2,"tau":1.25,"observed":9,"draws":40,"values":[3],"counts":[2]}}`,
		`{"since":-1,"sketch":{"footprint":1,"tau":1,"values":[],"counts":[]}}`,
		`{"since":0,"sketch":{"footprint":1,"tau":1,"draws":1000000000000000000}}`,
		`{"sketch":null}`, `{}`, `null`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var s Summarizer
		if err := s.Restore(b); err != nil {
			return
		}
		sk := s.sketch
		if s.since < 0 || len(sk.counts) > sk.footprint || sk.draws > drawBound(t, sk) {
			t.Fatalf("accepted %q: since %d, %d values in footprint %d, %d draws", b, s.since, len(sk.counts), sk.footprint, sk.draws)
		}
		for v, c := range sk.counts {
			if c < 1 {
				t.Fatalf("accepted %q: value %d with count %d", b, v, c)
			}
		}
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var again Summarizer
		if err := again.Restore(snap); err != nil {
			t.Fatalf("accepted %q, but not its own snapshot %q: %v", b, snap, err)
		}
		if snap2, _ := again.Snapshot(); !bytes.Equal(snap, snap2) {
			t.Fatalf("snapshot round trip differs:\n%s\n%s", snap, snap2)
		}
	})
}
