package compsteer

import "testing"

// FuzzSamplerRestore feeds Sampler.Restore what a checkpoint or a migration
// hands a new instance: bytes from outside the process. It must not panic,
// and a blob it accepts must leave the credit in [0, 1), where a running
// sampler keeps it.
func FuzzSamplerRestore(f *testing.F) {
	for _, seed := range []string{
		`{"credit":0}`, `{"credit":0.75}`, `{"credit":1}`, `{"credit":-0.5}`,
		`{"credit":1e300}`, `{"credit":-1e300}`, `{"credit":1e999}`, `{}`, `null`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var s Sampler
		if err := s.Restore(b); err != nil {
			return
		}
		if !(s.credit >= 0 && s.credit < 1) {
			t.Fatalf("accepted %q with credit %v", b, s.credit)
		}
	})
}

// TestSamplerRestoreRejectsCredit checks Restore refuses a credit a running
// sampler cannot hold — one would forward every packet forever, the other
// none — and round-trips one it can.
func TestSamplerRestoreRejectsCredit(t *testing.T) {
	for _, blob := range []string{`{"credit":1}`, `{"credit":1e300}`, `{"credit":-1e300}`, `{"credit":-0.01}`} {
		var s Sampler
		if err := s.Restore([]byte(blob)); err == nil {
			t.Errorf("Restore(%s) accepted, credit %v", blob, s.credit)
		}
	}
	src := Sampler{credit: 0.375}
	b, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var dst Sampler
	if err := dst.Restore(b); err != nil || dst.credit != 0.375 {
		t.Fatalf("round trip: credit %v, err %v", dst.credit, err)
	}
}
