package adapt

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOptionsDefaults(t *testing.T) {
	o := Defaults(100)
	if err := o.Validate(); err != nil {
		t.Fatalf("Defaults(100) invalid: %v", err)
	}
	if d := NewMonitor(o).expected; d != 25 {
		t.Fatalf("expected length D = %d, want C/4 = 25", d)
	}
	if d := expectedLen(3); d != 1 {
		t.Fatalf("expected length D = %d for C = 3, want 1", d)
	}
	if sum := o.P1 + o.P2 + o.P3; math.Abs(sum-1) > 1e-12 {
		t.Fatalf("default weights sum to %v", sum)
	}
}

func TestOptionsValidateRejects(t *testing.T) {
	bad := []func(*Options){
		func(o *Options) { o.Capacity = 0 },
		func(o *Options) { o.Capacity = 1 }, // D = 1 is not below C
		func(o *Options) { o.Window = -1 },  // Window<1 after fill only if set negative
		func(o *Options) { o.P1, o.P2, o.P3 = 0.5, 0.5, 0.5 },
		func(o *Options) { o.P1, o.P2, o.P3 = -0.5, 0.5, 1.0 },
	}
	for i, mutate := range bad {
		o := Defaults(100)
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}

func TestNewMonitorPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMonitor with zero capacity did not panic")
		}
	}()
	NewMonitor(Options{})
}

func TestMonitorClassification(t *testing.T) {
	o := Defaults(100) // D=25: over above 25, under below 6.25
	m := NewMonitor(o)
	if obs := m.Observe(90); obs.Class != LoadOver {
		t.Fatalf("d=90 classified %v, want over", obs.Class)
	}
	if obs := m.Observe(2); obs.Class != LoadUnder {
		t.Fatalf("d=2 classified %v, want under", obs.Class)
	}
	if obs := m.Observe(15); obs.Class != LoadNormal {
		t.Fatalf("d=15 classified %v, want normal", obs.Class)
	}
}

func TestMonitorClampsInput(t *testing.T) {
	m := NewMonitor(Defaults(100))
	if obs := m.Observe(-5); obs.D != 0 {
		t.Fatalf("negative d recorded as %d", obs.D)
	}
	if obs := m.Observe(10_000); obs.D != 100 {
		t.Fatalf("oversized d recorded as %d", obs.D)
	}
}

func TestMonitorOverloadRaisesDTildeAndException(t *testing.T) {
	m := NewMonitor(Defaults(100))
	var last Observation
	for i := 0; i < 50; i++ {
		last = m.Observe(95)
	}
	if last.DTilde <= 0 {
		t.Fatalf("sustained full queue left d̃ = %v", last.DTilde)
	}
	if last.Exception != ExceptionOverload {
		t.Fatalf("sustained full queue produced exception %v, want overload", last.Exception)
	}
}

func TestMonitorUnderloadException(t *testing.T) {
	m := NewMonitor(Defaults(100))
	var last Observation
	for i := 0; i < 50; i++ {
		last = m.Observe(0)
	}
	if last.DTilde >= 0 {
		t.Fatalf("sustained empty queue left d̃ = %v", last.DTilde)
	}
	if last.Exception != ExceptionUnderload {
		t.Fatalf("sustained empty queue produced exception %v, want underload", last.Exception)
	}
}

func TestMonitorNormalLoadNoException(t *testing.T) {
	o := Defaults(100) // D = 25
	m := NewMonitor(o)
	var last Observation
	for i := 0; i < 100; i++ {
		last = m.Observe(25) // exactly the expected length
	}
	if last.Exception != ExceptionNone {
		t.Fatalf("expected-length queue produced exception %v (d̃=%v)", last.Exception, last.DTilde)
	}
}

func TestMonitorDBarWindow(t *testing.T) {
	o := Defaults(100)
	o.Window = 4
	m := NewMonitor(o)
	for _, d := range []int{10, 20, 30, 40} {
		m.Observe(d)
	}
	obs := m.Observe(50) // window now 20,30,40,50
	if obs.DBar != 35 {
		t.Fatalf("d̄ = %v, want 35", obs.DBar)
	}
}

func TestMonitorRecoveryAfterTransient(t *testing.T) {
	// With decay enabled, an early overload transient must not hold d̃
	// above the exception threshold once load normalizes.
	m := NewMonitor(Defaults(100))
	for i := 0; i < 100; i++ {
		m.Observe(95)
	}
	var last Observation
	for i := 0; i < 600; i++ {
		last = m.Observe(25)
	}
	if last.Exception == ExceptionOverload {
		t.Fatalf("overload exception persisted after recovery (d̃=%v)", last.DTilde)
	}
}

func TestMonitorLiteralCumulativeCounters(t *testing.T) {
	// Without aging (the paper's literal counters), the early transient
	// keeps φ1 positive long after recovery.
	m := NewMonitor(Defaults(100))
	m.decay = 1
	for i := 0; i < 100; i++ {
		m.Observe(95)
	}
	obs := m.Observe(25)
	if obs.Phi1 <= 0.9 {
		t.Fatalf("literal φ1 = %v after 100 overloads + 1 normal, want > 0.9", obs.Phi1)
	}
}

func TestMonitorTicks(t *testing.T) {
	m := NewMonitor(Defaults(10))
	m.Observe(1)
	m.Observe(2)
	if m.Ticks() != 2 {
		t.Fatalf("Ticks = %d, want 2", m.Ticks())
	}
}

// Property: d̃ always stays within [-C, C] and never becomes NaN, for any
// observation sequence.
func TestDTildeBoundedProperty(t *testing.T) {
	f := func(samples []uint16, capRaw uint8) bool {
		capacity := int(capRaw%200) + 8
		m := NewMonitor(Defaults(capacity))
		c := float64(capacity)
		for _, s := range samples {
			obs := m.Observe(int(s) % (capacity + 10))
			if math.IsNaN(obs.DTilde) || obs.DTilde < -c || obs.DTilde > c {
				return false
			}
			if math.IsNaN(obs.Phi1) || math.IsNaN(obs.Phi2) || math.IsNaN(obs.Phi3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadClassAndExceptionStrings(t *testing.T) {
	if LoadOver.String() != "over" || LoadUnder.String() != "under" || LoadNormal.String() != "normal" {
		t.Fatal("LoadClass.String mismatch")
	}
	if ExceptionOverload.String() != "overload" || ExceptionUnderload.String() != "underload" || ExceptionNone.String() != "none" {
		t.Fatal("Exception.String mismatch")
	}
	if LoadClass(99).String() != "invalid" || Exception(99).String() != "invalid" {
		t.Fatal("invalid enum String mismatch")
	}
}
