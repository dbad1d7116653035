// Package adapt implements the GATES self-adaptation algorithm (Section 4
// of the paper).
//
// Every pipeline stage is modeled as a server whose input buffer is a queue.
// The algorithm watches the queue's occupancy d, summarizes its short- and
// long-term behavior into the "long-term average queue size factor" d̃
// (Equation for d̃: an EWMA over three load factors φ1, φ2, φ3), reports
// over-/under-load exceptions to the upstream server when d̃ leaves the band
// [LT1, LT2], and periodically adjusts the stage's adjustment parameters with
// the ΔP law (Equation 4):
//
//	ΔP_B = d̃_B·σ1(d̃_B) ∓ φ1(T1,T2)·σ2(φ1(T1,T2))
//
// where T1/T2 count the overload/underload exceptions the downstream server
// reported during the current adjustment epoch, and σ1/σ2 grow with the
// volatility of their inputs so that an unsteady system adapts in large steps
// and a settling system converges.
//
// Two points in the paper are ambiguous and are resolved by options (the
// defaults reproduce the published behavior; see DESIGN.md):
//
//   - the printed φ2 formula does not have the stated [-1,1] range for
//     negative w; Phi2Exponential (default) uses sign(w)·e^(|w|−W), and
//     Phi2Linear uses w/W.
//   - Equation 4's sign for the downstream term: SignReinforcing (default)
//     makes downstream congestion push the canonical knob the same way as
//     local congestion (toward faster/less-accurate processing), which is
//     what Figures 8–9 show; SignLiteral implements the subtraction as
//     printed.
//
// A third is resolved without an option: the paper leaves σ unspecified,
// and the law as printed has no damping (its d̃ term integrates the queue
// level, which integrates the rate error). When the downstream term is
// silent, Adjust adds a queue-trend term k·Δd̄/C that pulls against the
// queue's growth; see DESIGN.md §1.
package adapt

import (
	"errors"
	"fmt"
)

// Phi2Kind selects the implementation of the windowed load factor φ2.
type Phi2Kind int

const (
	// Phi2Exponential is sign(w)·e^(|w|−W): near zero until the window is
	// dominated by one kind of event, saturating at ±1 when it is.
	Phi2Exponential Phi2Kind = iota
	// Phi2Linear is w/W.
	Phi2Linear
)

// String returns the kind's name.
func (k Phi2Kind) String() string {
	switch k {
	case Phi2Exponential:
		return "exponential"
	case Phi2Linear:
		return "linear"
	default:
		return fmt.Sprintf("Phi2Kind(%d)", int(k))
	}
}

// SignConvention selects the sign of the downstream-exception term in the
// ΔP law.
type SignConvention int

const (
	// SignReinforcing adds the downstream term: congestion anywhere pushes
	// the canonical knob toward faster processing / less data downstream.
	// This orientation reproduces the convergence plots in Figures 8–9.
	SignReinforcing SignConvention = iota
	// SignLiteral subtracts the downstream term exactly as Equation 4 is
	// printed.
	SignLiteral
)

// String returns the convention's name.
func (s SignConvention) String() string {
	switch s {
	case SignReinforcing:
		return "reinforcing"
	case SignLiteral:
		return "literal"
	default:
		return fmt.Sprintf("SignConvention(%d)", int(s))
	}
}

// Options carries the constants of Figure 2 plus the knobs this
// implementation adds. The zero value is not valid; call Defaults or fill
// every field and Validate.
type Options struct {
	// Capacity is C, the maximum capacity of the queue. Required.
	Capacity int
	// ExpectedLen is D, the user-defined expected queue length.
	// Defaults to Capacity/4.
	ExpectedLen int
	// Alpha is the learning rate α in (0,1) for the d̃ EWMA; larger keeps
	// more history. Default 0.7.
	Alpha float64
	// Window is W, the sliding window (in observations) for φ2 and the
	// recent average d̄. Default 16.
	Window int
	// P1, P2, P3 weight φ1, φ2, φ3 and must sum to 1.
	// Defaults 0.2, 0.3, 0.5.
	P1, P2, P3 float64
	// LowThreshold (LT1) and HighThreshold (LT2) bound the no-exception
	// band for d̃, expressed as fractions of Capacity in [-1,1].
	// Defaults -0.25 and +0.25.
	LowThreshold, HighThreshold float64
	// OverFrac and UnderFrac classify a single observation d as
	// over-loaded (d > OverFrac·C) or under-loaded (d < UnderFrac·C).
	// Defaults: OverFrac = D/C, UnderFrac = D/(4C).
	OverFrac, UnderFrac float64
	// LongTermDecay exponentially ages the lifetime counters t1/t2 each
	// observation so that an early transient cannot bias φ1 forever.
	// 1.0 disables aging (the paper's literal cumulative counts).
	// Default 0.995.
	LongTermDecay float64
	// Phi2 selects the φ2 implementation. Default Phi2Exponential.
	Phi2 Phi2Kind
	// DisableCongestionPriority turns off the gating that makes
	// congestion signals dominate slack signals in the ΔP law. With
	// gating on (the default), a downstream underload report is ignored
	// while the local queue is congested (d̃ > 0) or holds a backlog
	// (d̄ > 0) — the local bottleneck explains the downstream
	// starvation, and obeying the report would create positive feedback
	// (send even more into a full pipe). The backlog test is skipped
	// while the stage is still ramping up (it reports underload itself
	// and its long-term φ1 shows almost no overload), so a burst in its
	// queue does not slow the ramp. Symmetrically, local slack is ignored
	// while downstream reports overload. The paper attributes this
	// stabilization to the σ functions without specifying it; the
	// congestion-priority ablation compares both settings.
	DisableCongestionPriority bool
	// DownstreamSign selects the Equation 4 sign convention.
	// Default SignReinforcing.
	DownstreamSign SignConvention
	// Gain scales ΔP into parameter steps: a fully saturated signal moves
	// a parameter by about Gain × σ × its Step per adjustment. The queue
	// behind a saturating stage fills just above the sustainable rate and
	// drains just below it, so the level term alone drives a limit cycle;
	// the queue-trend term (see Controller.Adjust) damps it, and Gain
	// bounds each epoch's move. A lower Gain does not break the cycle (1
	// left adapt-netlimit's p50 latency near 1 s and cost throughput).
	// Default 2.
	Gain float64
	// SigmaFloor is the minimum value of the volatility gains σ1/σ2, so
	// adaptation never stalls entirely. Default 0.25.
	SigmaFloor float64
	// SigmaVolatility scales how much recent standard deviation of the
	// input raises σ1/σ2. Default 1.
	SigmaVolatility float64
	// SigmaWindow is how many recent samples the σ functions consider.
	// Default 8.
	SigmaWindow int
}

// Defaults returns the options used throughout the evaluation for a queue of
// the given capacity.
func Defaults(capacity int) Options {
	o := Options{Capacity: capacity}
	o.fill()
	return o
}

// Filled returns o with every zero-valued field set to its default for
// o.Capacity, as NewController and NewMonitor fill it before validating.
func (o Options) Filled() Options {
	o.fill()
	return o
}

func (o *Options) fill() {
	if o.ExpectedLen == 0 {
		o.ExpectedLen = o.Capacity / 4
		if o.ExpectedLen < 1 {
			o.ExpectedLen = 1
		}
	}
	if o.Alpha == 0 {
		o.Alpha = 0.7
	}
	if o.Window == 0 {
		o.Window = 16
	}
	if o.P1 == 0 && o.P2 == 0 && o.P3 == 0 {
		o.P1, o.P2, o.P3 = 0.2, 0.3, 0.5
	}
	if o.LowThreshold == 0 && o.HighThreshold == 0 {
		o.LowThreshold, o.HighThreshold = -0.25, 0.25
	}
	if o.OverFrac == 0 {
		o.OverFrac = float64(o.ExpectedLen) / float64(o.Capacity)
	}
	if o.UnderFrac == 0 {
		o.UnderFrac = float64(o.ExpectedLen) / (4 * float64(o.Capacity))
	}
	if o.LongTermDecay == 0 {
		o.LongTermDecay = 0.995
	}
	if o.Gain == 0 {
		o.Gain = 2
	}
	if o.SigmaFloor == 0 {
		o.SigmaFloor = 0.25
	}
	if o.SigmaVolatility == 0 {
		o.SigmaVolatility = 1
	}
	if o.SigmaWindow == 0 {
		o.SigmaWindow = 8
	}
}

// Validate reports the first violated constraint, or nil.
func (o Options) Validate() error {
	switch {
	case o.Capacity < 1:
		return errors.New("adapt: Capacity must be >= 1")
	case o.ExpectedLen < 1 || o.ExpectedLen >= o.Capacity:
		return fmt.Errorf("adapt: ExpectedLen %d must be in [1, Capacity)", o.ExpectedLen)
	case o.Alpha <= 0 || o.Alpha >= 1:
		return fmt.Errorf("adapt: Alpha %v must be in (0,1)", o.Alpha)
	case o.Window < 1:
		return errors.New("adapt: Window must be >= 1")
	case abs(o.P1+o.P2+o.P3-1) > 1e-9:
		return fmt.Errorf("adapt: P1+P2+P3 = %v, must be 1", o.P1+o.P2+o.P3)
	case o.P1 < 0 || o.P2 < 0 || o.P3 < 0:
		return errors.New("adapt: P1, P2, P3 must be non-negative")
	case o.LowThreshold >= o.HighThreshold:
		return fmt.Errorf("adapt: LowThreshold %v must be < HighThreshold %v", o.LowThreshold, o.HighThreshold)
	case o.LowThreshold < -1 || o.HighThreshold > 1:
		return errors.New("adapt: thresholds must lie in [-1,1] (fractions of C)")
	case o.OverFrac <= o.UnderFrac:
		return fmt.Errorf("adapt: OverFrac %v must exceed UnderFrac %v", o.OverFrac, o.UnderFrac)
	case o.LongTermDecay <= 0 || o.LongTermDecay > 1:
		return fmt.Errorf("adapt: LongTermDecay %v must be in (0,1]", o.LongTermDecay)
	case o.Gain <= 0:
		return errors.New("adapt: Gain must be positive")
	case o.SigmaFloor < 0:
		return errors.New("adapt: SigmaFloor must be non-negative")
	case o.SigmaWindow < 2:
		return errors.New("adapt: SigmaWindow must be >= 2")
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
