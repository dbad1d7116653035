package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestAblations runs every study once, as -exp ablations does, and checks
// each study's rows in a subtest of its own.
func TestAblations(t *testing.T) {
	skipUnderRace(t)
	studies, err := Ablations(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	byName := make(map[string]*AblationResult)
	for _, res := range studies {
		res.Render(&buf)
		byName[res.Name] = res
	}
	t.Logf("\n%s", buf.String())
	study := func(t *testing.T, name string, rows int) *AblationResult {
		t.Helper()
		res := byName[name]
		if res == nil {
			t.Fatalf("no study %q", name)
		}
		if len(res.Rows) != rows {
			t.Fatalf("%s: %d rows, want %d", name, len(res.Rows), rows)
		}
		return res
	}
	nearExpected := func(t *testing.T, row AblationRow) {
		t.Helper()
		if row.Converged < row.Expected-0.2 || row.Converged > row.Expected+0.2 {
			t.Errorf("%s converged to %.3f, want near %.3f", row.Variant, row.Converged, row.Expected)
		}
	}

	t.Run("SharedDefault", func(t *testing.T) {
		if len(studies) != 6 {
			t.Fatalf("%d studies, want 6", len(studies))
		}
		want, err := fig8Cell(20).p.expected()
		if err != nil {
			t.Fatal(err)
		}
		var def *AblationRow
		rows := 0
		for _, res := range studies {
			rows += len(res.Rows)
			n := 0
			for i, row := range res.Rows {
				if row.Expected != want {
					t.Errorf("%s/%s: expected %.4f, want the model's %.4f", res.Name, row.Variant, row.Expected, want)
				}
				if !strings.HasSuffix(row.Variant, " (default)") {
					continue
				}
				n++
				if def == nil {
					def = &res.Rows[i]
				} else if row.Expected != def.Expected || row.Converged != def.Converged || row.Wobble != def.Wobble {
					t.Errorf("%s default row %+v differs from %+v", res.Name, row, *def)
				}
			}
			if n != 1 {
				t.Errorf("%s: %d default rows, want 1", res.Name, n)
			}
		}
		if rows != 16 {
			t.Errorf("%d rows, want 16", rows)
		}
		if def != nil {
			nearExpected(t, *def)
		}
	})
	t.Run("DownstreamSign", func(t *testing.T) {
		nearExpected(t, study(t, "Equation 4 downstream-term sign", 2).Rows[0])
	})
	t.Run("Phi2", func(t *testing.T) {
		for _, row := range study(t, "phi2 variant", 2).Rows {
			// Both variants keep the loop stable in this scenario; the
			// study records their relative wobble.
			if row.Converged < 0.05 || row.Converged > 1 {
				t.Errorf("%s: converged %.3f out of plausible range", row.Variant, row.Converged)
			}
		}
	})
	t.Run("WeightsAndWindow", func(t *testing.T) {
		study(t, "load-factor weights (P1, P2, P3)", 4)
		study(t, "window size W", 3)
		if !strings.Contains(buf.String(), "W=16 (default)") {
			t.Error("render missing default window row")
		}
	})
	t.Run("Interval", func(t *testing.T) {
		for _, row := range study(t, "observation interval", 3).Rows {
			if row.Converged < 0.05 || row.Converged > 0.8 {
				t.Errorf("%s: converged %.3f implausible", row.Variant, row.Converged)
			}
		}
	})
	t.Run("CongestionPriority", func(t *testing.T) {
		nearExpected(t, study(t, "congestion-priority gating", 2).Rows[0])
	})
}
