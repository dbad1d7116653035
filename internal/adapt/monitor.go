package adapt

// LoadClass classifies one queue observation.
type LoadClass int

const (
	// LoadNormal means the occupancy fell between the under/over
	// thresholds.
	LoadNormal LoadClass = iota
	// LoadOver means d exceeded the expected length D.
	LoadOver
	// LoadUnder means d fell below D/4.
	LoadUnder
)

// String returns the class name.
func (c LoadClass) String() string {
	switch c {
	case LoadNormal:
		return "normal"
	case LoadOver:
		return "over"
	case LoadUnder:
		return "under"
	default:
		return "invalid"
	}
}

// Exception is the load report a server sends to its preceding server when
// d̃ leaves the [LT1, LT2] band.
type Exception int

const (
	// ExceptionNone reports nothing.
	ExceptionNone Exception = iota
	// ExceptionOverload means d̃ rose above LT2·C: the downstream server
	// is drowning and the sender should reduce what it forwards.
	ExceptionOverload
	// ExceptionUnderload means d̃ fell below LT1·C: the downstream server
	// is idle and the sender may forward more (more accurate) data.
	ExceptionUnderload
)

// String returns the exception name.
func (e Exception) String() string {
	switch e {
	case ExceptionNone:
		return "none"
	case ExceptionOverload:
		return "overload"
	case ExceptionUnderload:
		return "underload"
	default:
		return "invalid"
	}
}

// Observation is the outcome of feeding one queue-length sample to the
// Monitor.
type Observation struct {
	// D is the sampled queue length.
	D int
	// Class is how the sample was classified.
	Class LoadClass
	// DBar is the recent average queue length d̄ over the window.
	DBar float64
	// DTilde is the long-term average queue size factor d̃ ∈ [−C, C].
	DTilde float64
	// Phi1, Phi2, Phi3 are the three load factors that produced DTilde.
	Phi1, Phi2, Phi3 float64
	// Exception is the report due upstream, if any.
	Exception Exception
}

// The Monitor's constants of Figure 2. The evaluation never varies them, so
// they are fixed; DESIGN.md §1 gives each one's source.
const (
	// alpha is the learning rate α in (0,1) for the d̃ EWMA; larger keeps
	// more history.
	alpha float64 = 0.7
	// lowThreshold (LT1) and highThreshold (LT2) bound the no-exception
	// band for d̃, expressed as fractions of C.
	lowThreshold, highThreshold float64 = -0.25, 0.25
	// longTermDecay exponentially ages the lifetime counters t1/t2 each
	// observation so that an early transient cannot bias φ1 forever. 1
	// would disable aging (the paper's literal cumulative counts).
	longTermDecay float64 = 0.995
)

// expectedLen is D, the expected queue length: C/4, and at least 1. A single
// observation d is over-loaded when d > D and under-loaded when d < D/4.
func expectedLen(capacity int) int {
	return max(capacity/4, 1)
}

// Monitor maintains the queue-load state of Section 4.2 for one server:
// the lifetime over/under counters t1/t2, the W-observation window behind w
// and d̄, and the EWMA d̃. Monitor is not safe for concurrent use; the
// Controller serializes access.
type Monitor struct {
	opts Options

	expected int     // D
	decay    float64 // longTermDecay; a test sets 1 for the literal counters

	t1, t2 float64 // lifetime (decayed) over/under counts

	window []LoadClass // ring of the last W classifications
	dvals  []int       // ring of the last W queue lengths
	widx   int
	wn     int

	dTilde float64
	ticks  uint64
}

// NewMonitor returns a monitor with the given options. Options are filled
// with defaults and validated; invalid options panic, since a monitor with a
// broken constant set would silently destabilize the pipeline.
func NewMonitor(opts Options) *Monitor {
	opts.fill()
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	return &Monitor{
		opts:     opts,
		expected: expectedLen(opts.Capacity),
		decay:    longTermDecay,
		window:   make([]LoadClass, opts.Window),
		dvals:    make([]int, opts.Window),
	}
}

// Options returns the monitor's (filled) options.
func (m *Monitor) Options() Options { return m.opts }

// Ticks returns how many observations the monitor has consumed.
func (m *Monitor) Ticks() uint64 { return m.ticks }

// DTilde returns the current long-term average queue size factor.
func (m *Monitor) DTilde() float64 { return m.dTilde }

// Observe feeds one queue-length sample d and returns the full observation,
// including any exception the server owes its upstream neighbor.
func (m *Monitor) Observe(d int) Observation {
	if d < 0 {
		d = 0
	}
	if d > m.opts.Capacity {
		d = m.opts.Capacity
	}
	m.ticks++
	c := float64(m.opts.Capacity)

	// Classify the sample.
	class := LoadNormal
	switch {
	case d > m.expected:
		class = LoadOver
	case 4*d < m.expected:
		class = LoadUnder
	}

	// Update lifetime counters with aging.
	m.t1 *= m.decay
	m.t2 *= m.decay
	switch class {
	case LoadOver:
		m.t1++
	case LoadUnder:
		m.t2++
	}

	// Update the window ring.
	m.window[m.widx] = class
	m.dvals[m.widx] = d
	m.widx = (m.widx + 1) % m.opts.Window
	if m.wn < m.opts.Window {
		m.wn++
	}

	// w: net over-load count within the window; d̄: recent average.
	w := 0
	sum := 0
	for i := 0; i < m.wn; i++ {
		switch m.window[i] {
		case LoadOver:
			w++
		case LoadUnder:
			w--
		}
		sum += m.dvals[i]
	}
	dbar := float64(sum) / float64(m.wn)

	// Load factors.
	p1 := Phi1(m.t1, m.t2)
	var p2 float64
	switch m.opts.Phi2 {
	case Phi2Linear:
		p2 = Phi2Lin(w, m.opts.Window)
	default:
		p2 = Phi2Exp(w, m.opts.Window)
	}
	p3 := Phi3(dbar, m.expected, m.opts.Capacity)

	// d̃ EWMA (the paper's Equation 3).
	signal := (m.opts.P1*p1 + m.opts.P2*p2 + m.opts.P3*p3) * c
	m.dTilde = alpha*m.dTilde + (1-alpha)*signal
	m.dTilde = clamp(m.dTilde, -c, c)

	// Exception when d̃ leaves [LT1, LT2] (thresholds are fractions of C).
	exc := ExceptionNone
	switch {
	case m.dTilde > highThreshold*c:
		exc = ExceptionOverload
	case m.dTilde < lowThreshold*c:
		exc = ExceptionUnderload
	}

	return Observation{
		D:         d,
		Class:     class,
		DBar:      dbar,
		DTilde:    m.dTilde,
		Phi1:      p1,
		Phi2:      p2,
		Phi3:      p3,
		Exception: exc,
	}
}
