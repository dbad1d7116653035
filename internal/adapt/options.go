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

// Options carries the settings of the Section 4 algorithm that the
// evaluation varies: the queue capacity, the φ2 window and kind, the φ
// weights, and the two rules the ablation table switches. The other
// constants of Figure 2 and of this implementation are fixed; each sits
// beside the code that reads it (DESIGN.md §1 lists them all). The zero value
// is not valid; call Defaults or set Capacity and Validate.
type Options struct {
	// Capacity is C, the maximum capacity of the queue. Required, and at
	// least 2: the expected queue length D = C/4 must lie in [1, C).
	Capacity int
	// Window is W, the sliding window (in observations) for φ2 and the
	// recent average d̄. Default 16.
	Window int
	// P1, P2, P3 weight φ1, φ2, φ3 and must sum to 1.
	// Defaults 0.2, 0.3, 0.5.
	P1, P2, P3 float64
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
}

// Defaults returns the options used throughout the evaluation for a queue of
// the given capacity.
func Defaults(capacity int) Options {
	o := Options{Capacity: capacity}
	o.fill()
	return o
}

// Filled returns o with every zero-valued field set to its default, as
// NewController and NewMonitor fill it before validating.
func (o Options) Filled() Options {
	o.fill()
	return o
}

func (o *Options) fill() {
	if o.Window == 0 {
		o.Window = 16
	}
	if o.P1 == 0 && o.P2 == 0 && o.P3 == 0 {
		o.P1, o.P2, o.P3 = 0.2, 0.3, 0.5
	}
}

// Validate reports the first violated constraint, or nil.
func (o Options) Validate() error {
	switch {
	case o.Capacity < 2:
		return fmt.Errorf("adapt: Capacity %d must be >= 2: the expected length D = C/4 must lie in [1, C)", o.Capacity)
	case o.Window < 1:
		return errors.New("adapt: Window must be >= 1")
	case abs(o.P1+o.P2+o.P3-1) > 1e-9:
		return fmt.Errorf("adapt: P1+P2+P3 = %v, must be 1", o.P1+o.P2+o.P3)
	case o.P1 < 0 || o.P2 < 0 || o.P3 < 0:
		return errors.New("adapt: P1, P2, P3 must be non-negative")
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
