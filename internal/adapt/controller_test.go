package adapt

import (
	"math"
	"testing"
	"testing/quick"
)

func samplingRateSpec() ParamSpec {
	return ParamSpec{
		Name:      "sampling-rate",
		Initial:   0.13,
		Min:       0.01,
		Max:       1.0,
		Step:      0.01,
		Direction: IncreaseSlowsProcessing,
	}
}

func TestParamSpecValidate(t *testing.T) {
	good := samplingRateSpec()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*ParamSpec){
		func(s *ParamSpec) { s.Name = "" },
		func(s *ParamSpec) { s.Min, s.Max = 1, 1 },
		func(s *ParamSpec) { s.Initial = 2 },
		func(s *ParamSpec) { s.Step = 0 },
		func(s *ParamSpec) { s.Direction = 0 },
	}
	for i, mutate := range bad {
		s := samplingRateSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestParamValueAndSetClamped(t *testing.T) {
	p, err := NewParam(samplingRateSpec())
	if err != nil {
		t.Fatal(err)
	}
	if p.Value() != 0.13 {
		t.Fatalf("initial Value = %v, want 0.13", p.Value())
	}
	p.Set(5)
	if p.Value() != 1.0 {
		t.Fatalf("Set(5) clamped to %v, want 1.0", p.Value())
	}
	p.Set(-1)
	if p.Value() != 0.01 {
		t.Fatalf("Set(-1) clamped to %v, want 0.01", p.Value())
	}
}

func TestParamAdjustDirections(t *testing.T) {
	slow, _ := NewParam(samplingRateSpec()) // increase slows processing
	fast, _ := NewParam(ParamSpec{
		Name: "skip", Initial: 5, Min: 0, Max: 10, Step: 1,
		Direction: IncreaseSpeedsProcessing,
	})
	// Canonical +1 = "speed up": sampling rate must fall, skip must rise.
	if _, v := slow.adjust(1); v >= 0.13 {
		t.Fatalf("slows-processing param rose to %v on speed-up", v)
	}
	if _, v := fast.adjust(1); v <= 5 {
		t.Fatalf("speeds-processing param fell to %v on speed-up", v)
	}
}

func TestControllerRegisterDuplicate(t *testing.T) {
	c := NewController(Defaults(100))
	if _, err := c.Register(samplingRateSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(samplingRateSpec()); err == nil {
		t.Fatal("duplicate Register accepted")
	}
	if p, ok := c.Param("sampling-rate"); !ok || p == nil {
		t.Fatal("registered parameter not retrievable")
	}
	if len(c.Params()) != 1 {
		t.Fatalf("Params() length = %d, want 1", len(c.Params()))
	}
}

func TestControllerOverloadReducesSamplingRate(t *testing.T) {
	c := NewController(Defaults(100))
	p, _ := c.Register(samplingRateSpec())
	for i := 0; i < 40; i++ {
		c.Observe(95)
		if i%4 == 3 {
			c.Adjust()
		}
	}
	if p.Value() >= 0.13 {
		t.Fatalf("sampling rate %v did not fall under sustained overload", p.Value())
	}
}

func TestControllerUnderloadRaisesSamplingRate(t *testing.T) {
	c := NewController(Defaults(100))
	p, _ := c.Register(samplingRateSpec())
	for i := 0; i < 40; i++ {
		c.Observe(0)
		if i%4 == 3 {
			c.Adjust()
		}
	}
	if p.Value() <= 0.13 {
		t.Fatalf("sampling rate %v did not rise under sustained underload", p.Value())
	}
}

func TestControllerDownstreamExceptionsReinforcing(t *testing.T) {
	o := Defaults(100)
	o.DownstreamSign = SignReinforcing
	c := NewController(o)
	p, _ := c.Register(samplingRateSpec())
	// Own queue neutral, downstream screaming overload.
	for i := 0; i < 10; i++ {
		c.Observe(25)
		c.OnDownstreamException(ExceptionOverload)
		c.Adjust()
	}
	if p.Value() >= 0.13 {
		t.Fatalf("reinforcing sign: downstream overload left rate at %v, want lower", p.Value())
	}
}

func TestControllerDownstreamExceptionsLiteral(t *testing.T) {
	o := Defaults(100)
	o.DownstreamSign = SignLiteral
	c := NewController(o)
	p, _ := c.Register(samplingRateSpec())
	for i := 0; i < 10; i++ {
		c.Observe(25)
		c.OnDownstreamException(ExceptionOverload)
		c.Adjust()
	}
	if p.Value() <= 0.13 {
		t.Fatalf("literal sign: downstream overload left rate at %v, want higher (the printed equation)", p.Value())
	}
}

func TestControllerEpochCountsReset(t *testing.T) {
	c := NewController(Defaults(100))
	c.OnDownstreamException(ExceptionOverload)
	c.OnDownstreamException(ExceptionUnderload)
	if t1, t2 := c.DownstreamEpochCounts(); t1 != 1 || t2 != 1 {
		t.Fatalf("epoch counts = (%v,%v), want (1,1)", t1, t2)
	}
	c.Adjust()
	if t1, t2 := c.DownstreamEpochCounts(); t1 != 0 || t2 != 0 {
		t.Fatalf("epoch counts after Adjust = (%v,%v), want (0,0)", t1, t2)
	}
	if c.Adjustments() != 1 {
		t.Fatalf("Adjustments = %d, want 1", c.Adjustments())
	}
}

func TestControllerAdjustReportsDeltas(t *testing.T) {
	c := NewController(Defaults(100))
	c.Register(samplingRateSpec())
	for i := 0; i < 20; i++ {
		c.Observe(95)
	}
	adjs := c.Adjust()
	if len(adjs) != 1 {
		t.Fatalf("Adjust returned %d adjustments, want 1", len(adjs))
	}
	a := adjs[0]
	if a.Param != "sampling-rate" || a.DeltaP <= 0 || a.New >= a.Old {
		t.Fatalf("adjustment %+v inconsistent with overload", a)
	}
}

// TestClosedLoopConvergence drives the controller against an analytic queue
// model: packets arrive at rate gen·r(t) and are served at rate mu. The
// sampling rate must converge near the sustainable ratio mu/gen — the
// mechanism behind Figures 8 and 9 — within the bound the plant's property
// test holds the law to when nothing is hidden from it.
func TestClosedLoopConvergence(t *testing.T) {
	cases := []struct {
		name    string
		gen, mu float64 // packets per tick
		wantR   float64 // expected equilibrium min(1, mu/gen)
	}{
		{"no-constraint", 4, 12, 1.0},
		{"half", 8, 4, 0.5},
		{"quarter", 16, 4, 0.25},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewController(Defaults(200))
			p, _ := c.Register(ParamSpec{
				Name: "r", Initial: 0.05, Min: 0.01, Max: 1, Step: 0.01,
				Direction: IncreaseSlowsProcessing,
			})
			queue := 0.0
			var rs []float64
			for tick := 0; tick < 4000; tick++ {
				r := p.Value()
				queue += tc.gen * r // arrivals this tick
				queue -= tc.mu      // service this tick
				if queue < 0 {
					queue = 0
				}
				if queue > 200 {
					queue = 200
				}
				c.Observe(int(queue))
				if tick%5 == 4 {
					c.Adjust()
				}
				if tick >= 3000 {
					rs = append(rs, p.Value())
				}
			}
			mean := 0.0
			for _, r := range rs {
				mean += r
			}
			mean /= float64(len(rs))
			if math.Abs(mean-tc.wantR) > maxSettledErr*tc.wantR {
				t.Fatalf("converged to %.3f, want ≈ %.3f", mean, tc.wantR)
			}
		})
	}
}

func TestEnumStrings(t *testing.T) {
	if Phi2Exponential.String() != "exponential" || Phi2Linear.String() != "linear" {
		t.Fatal("Phi2Kind.String mismatch")
	}
	if SignReinforcing.String() != "reinforcing" || SignLiteral.String() != "literal" {
		t.Fatal("SignConvention.String mismatch")
	}
	if IncreaseSpeedsProcessing.String() != "+speed" || IncreaseSlowsProcessing.String() != "-speed" {
		t.Fatal("Direction.String mismatch")
	}
	if Phi2Kind(9).String() == "" || SignConvention(9).String() == "" || Direction(9).String() == "" {
		t.Fatal("invalid enums must still format")
	}
}

// Property: under any interleaving of observations, downstream exceptions,
// and adjustments, every parameter stays within its declared bounds and d̃
// stays within [-C, C].
func TestControllerBoundsProperty(t *testing.T) {
	f := func(script []uint8) bool {
		c := NewController(Defaults(64))
		p, err := c.Register(ParamSpec{
			Name: "r", Initial: 0.5, Min: 0.1, Max: 0.9, Step: 0.05,
			Direction: IncreaseSlowsProcessing,
		})
		if err != nil {
			return false
		}
		for _, op := range script {
			switch op % 4 {
			case 0:
				c.Observe(int(op) % 70) // may exceed capacity; must clamp
			case 1:
				c.OnDownstreamException(ExceptionOverload)
			case 2:
				c.OnDownstreamException(ExceptionUnderload)
			case 3:
				c.Adjust()
			}
			v := p.Value()
			if v < 0.1 || v > 0.9 {
				return false
			}
			if d := c.DTilde(); d < -64 || d > 64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
