package adapt

import (
	"fmt"
	"math"
	"sync"
)

// Adjustment records one parameter update made by the controller.
type Adjustment struct {
	// Param is the parameter's name.
	Param string
	// Old and New are the values before and after the update.
	Old, New float64
	// DeltaP is the canonical ΔP that produced the move (before Step and
	// Direction scaling).
	DeltaP float64
}

// Controller runs the Section 4 algorithm for one server (stage instance):
// it owns the server's Monitor, collects the exceptions reported by the
// downstream server (T1/T2), and periodically applies the ΔP law to every
// adjustment parameter the stage registered. Controller is safe for
// concurrent use: the data path reads parameter values while the adaptation
// loop observes and adjusts.
type Controller struct {
	opts Options

	mu       sync.Mutex
	mon      *Monitor
	params   []*Param
	byName   map[string]*Param
	epochT1  float64 // downstream overload exceptions this adjustment epoch
	epochT2  float64 // downstream underload exceptions this adjustment epoch
	sigma1   *volatility
	sigma2   *volatility
	lastObs  Observation
	adjusted uint64
}

// NewController returns a controller for a server whose input queue has the
// options' capacity. Invalid options panic (see NewMonitor).
func NewController(opts Options) *Controller {
	opts.fill()
	m := NewMonitor(opts) // validates
	opts = m.Options()
	return &Controller{
		opts:   opts,
		mon:    m,
		byName: make(map[string]*Param),
		sigma1: newVolatility(opts.SigmaWindow, opts.SigmaFloor, opts.SigmaVolatility),
		sigma2: newVolatility(opts.SigmaWindow, opts.SigmaFloor, opts.SigmaVolatility),
	}
}

// Options returns the controller's filled options.
func (c *Controller) Options() Options { return c.opts }

// Register exposes an adjustment parameter to the middleware — the paper's
// specifyPara. It returns the live Param whose Value the processing code
// polls.
func (c *Controller) Register(spec ParamSpec) (*Param, error) {
	p, err := NewParam(spec)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.byName[spec.Name]; dup {
		return nil, fmt.Errorf("adapt: parameter %q already registered", spec.Name)
	}
	c.params = append(c.params, p)
	c.byName[spec.Name] = p
	return p, nil
}

// Param returns a registered parameter by name.
func (c *Controller) Param(name string) (*Param, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.byName[name]
	return p, ok
}

// Params returns the registered parameters in registration order.
func (c *Controller) Params() []*Param {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Param, len(c.params))
	copy(out, c.params)
	return out
}

// Observe feeds one sample of the server's queue length and returns the
// observation; its Exception field, when not ExceptionNone, must be
// delivered to the preceding server (the pipeline engine does this).
func (c *Controller) Observe(d int) Observation {
	c.mu.Lock()
	defer c.mu.Unlock()
	obs := c.mon.Observe(d)
	c.lastObs = obs
	return obs
}

// LastObservation returns the most recent observation (zero value before the
// first Observe).
func (c *Controller) LastObservation() Observation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastObs
}

// DTilde returns the server's current long-term average queue size factor.
func (c *Controller) DTilde() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mon.DTilde()
}

// OnDownstreamException records an exception reported by the next server in
// the pipeline. The counts accumulate until the next Adjust call (one
// adjustment epoch), which is what makes φ1(T1,T2) reflect the downstream
// load during the current epoch rather than the whole run.
func (c *Controller) OnDownstreamException(e Exception) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch e {
	case ExceptionOverload:
		c.epochT1++
	case ExceptionUnderload:
		c.epochT2++
	}
}

// DownstreamEpochCounts returns the exception counts (T1, T2) accumulated in
// the current adjustment epoch.
func (c *Controller) DownstreamEpochCounts() (t1, t2 float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epochT1, c.epochT2
}

// AdjustResult captures one adjustment epoch in full: the inputs the ΔP law
// consumed (d̃ and its normalized form, the downstream exception counts
// T1/T2 that this epoch reset, the combined φ1 pressure) and the outputs
// (the canonical ΔP and every parameter move). It is the raw material of
// the journal's adaptation events.
type AdjustResult struct {
	// DTilde is the long-term average queue size factor at adjustment time.
	DTilde float64
	// DNorm is d̃ normalized by queue capacity (after congestion-priority
	// clamping, i.e. the value actually fed to σ1).
	DNorm float64
	// T1 and T2 are the downstream overload/underload exception counts
	// consumed — and reset — by this epoch.
	T1, T2 float64
	// PhiT is φ1(T1,T2) after congestion-priority clamping.
	PhiT float64
	// DeltaP is the canonical ΔP (after Gain, before per-parameter
	// Step/Direction scaling).
	DeltaP float64
	// Adjustments are the individual parameter moves (empty when the stage
	// registered no adjustment parameters).
	Adjustments []Adjustment
}

// Adjust applies the ΔP law once to every registered parameter and starts a
// new adjustment epoch. It returns the adjustments made (empty when no
// parameter is registered).
//
//	ΔP = (d̃/C)·σ1(d̃/C) ± φ1(T1,T2)·σ2(φ1(T1,T2))
//
// σ1 and σ2 are volatility gains: they grow with the recent standard
// deviation of their input (an unsteady system takes big steps) and never
// fall below SigmaFloor (a settled system can still creep toward the
// optimum). The ± is the DownstreamSign option. The canonical ΔP is then
// scaled by Gain and each parameter's Step/Direction.
func (c *Controller) Adjust() []Adjustment {
	return c.AdjustDetailed().Adjustments
}

// AdjustDetailed is Adjust plus the epoch's full observation record; see
// AdjustResult.
func (c *Controller) AdjustDetailed() AdjustResult {
	c.mu.Lock()
	defer c.mu.Unlock()

	dTilde := c.mon.DTilde()
	t1, t2 := c.epochT1, c.epochT2
	dNorm := dTilde / float64(c.opts.Capacity)
	phiT := Phi1(c.epochT1, c.epochT2)
	c.epochT1, c.epochT2 = 0, 0

	if !c.opts.DisableCongestionPriority {
		// Congestion dominates slack: a starving downstream does not
		// get more data while this server's own queue is congested,
		// and local slack does not speed this server up while
		// downstream reports overload.
		if phiT < 0 && dNorm > 0 {
			phiT = 0
		} else if phiT > 0 && dNorm < 0 {
			dNorm = 0
		}
	}

	s1 := c.sigma1.observe(dNorm)
	s2 := c.sigma2.observe(phiT)

	deltaP := dNorm * s1
	switch c.opts.DownstreamSign {
	case SignLiteral:
		deltaP -= phiT * s2
	default: // SignReinforcing
		deltaP += phiT * s2
	}
	deltaP *= c.opts.Gain
	c.adjusted++

	out := make([]Adjustment, 0, len(c.params))
	for _, p := range c.params {
		old, now := p.adjust(deltaP)
		out = append(out, Adjustment{Param: p.Spec().Name, Old: old, New: now, DeltaP: deltaP})
	}
	return AdjustResult{
		DTilde:      dTilde,
		DNorm:       dNorm,
		T1:          t1,
		T2:          t2,
		PhiT:        phiT,
		DeltaP:      deltaP,
		Adjustments: out,
	}
}

// Adjustments returns how many adjustment epochs have completed.
func (c *Controller) Adjustments() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.adjusted
}

// volatility tracks the recent standard deviation of a signal and turns it
// into the σ gain of Equation 4.
type volatility struct {
	ring  []float64
	idx   int
	n     int
	floor float64
	gain  float64
}

func newVolatility(window int, floor, gain float64) *volatility {
	return &volatility{ring: make([]float64, window), floor: floor, gain: gain}
}

// observe records v and returns σ = floor + gain·stddev(recent values).
func (v *volatility) observe(x float64) float64 {
	v.ring[v.idx] = x
	v.idx = (v.idx + 1) % len(v.ring)
	if v.n < len(v.ring) {
		v.n++
	}
	if v.n < 2 {
		return v.floor
	}
	var sum float64
	for i := 0; i < v.n; i++ {
		sum += v.ring[i]
	}
	mean := sum / float64(v.n)
	var ss float64
	for i := 0; i < v.n; i++ {
		d := v.ring[i] - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(v.n))
	return v.floor + v.gain*sd
}
