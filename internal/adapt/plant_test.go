package adapt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/gates-middleware/gates/internal/queuing"
)

// plant is a goroutine-free model of a sampling stage that steers its
// forwarding fraction r behind a shaped link, stepped one observation interval
// (a tick) at a time:
//
//	λ a tick → sender queue (visible, capacity C) → r·(what it takes) → hidden buffer (H) → link (μ a tick) → receiver
//
// The sender's queue holds the packets it has not looked at yet, as the
// comp-steer sampler's does, so a packet leaves it at the link's pace divided
// by r. The hidden buffer stands for what the link reservation and the socket
// hold, which d̃ cannot see; once it is full, the link's backlog stays in the
// visible queue, as the pipeline's blocking emit keeps it there. Arrivals are
// a fluid stream, or land in bursts with the last one just before the queue is
// sampled: a burst passing through reads as occupancy, as it does when a
// source emits per compute quantum. The receiver has a queue of C/2 and
// serves ν packets a tick. By default ν is 2μ: the link is the bottleneck, and
// the receiver's own Monitor reports underload. With ν below μ the receiver is
// the bottleneck (Figure 8's processing constraint). The receiver's exceptions
// reach the sender's controller through OnDownstreamException, as the
// pipeline's adaptation loop routes them. The sustainable value is
// r* = min(1, μ/λ, ν/λ).
type plant struct {
	lambda, mu float64 // packets a tick: arriving, and carried by the link
	nu         float64 // packets a tick the receiver serves (0: 2μ)
	bursts     int     // arrival bursts a tick (0: a fluid stream)
	capacity   int     // C, the sender's visible queue
	hidden     float64 // H, in forwarded packets
	initial    float64 // r at tick 0
	ticks      int     // run length (0: 20 000); the second half is the settled window
}

// plantAdjustEvery is the ticks per adjustment epoch, the comp-steer stages'
// AdjustEvery.
const plantAdjustEvery = 2

// plantStep is the sender parameter's Step, the comp-steer sampler's.
const plantStep = 0.01

// plantReading is what a plant run reports over its settled window.
type plantReading struct {
	mean        float64 // mean r
	meanErr     float64 // (mean − r*)/r*
	swing       float64 // (max − min)/r*
	above       float64 // share of samples at least one Step above r*
	excPerEpoch float64 // downstream exceptions per adjustment epoch
	queue       float64 // mean visible queue length
	rise        int     // ticks until r first reached 0.9·r* (-1: never)
}

func (r plantReading) String() string {
	return fmt.Sprintf("mean %.4f err %+.1f%% swing %.0f%% above %.0f%% exc/epoch %.2f queue %.1f rise %d",
		r.mean, 100*r.meanErr, 100*r.swing, 100*r.above, r.excPerEpoch, r.queue, r.rise)
}

// filled returns p with its defaults applied.
func (p plant) filled() plant {
	if p.ticks == 0 {
		p.ticks = 20000
	}
	if p.nu == 0 {
		p.nu = 2 * p.mu
	}
	return p
}

// target is r*, the largest fraction every station sustains.
func (p plant) target() float64 {
	p = p.filled()
	return math.Min(1, math.Min(p.mu, p.nu)/p.lambda)
}

func (p plant) run() plantReading {
	p = p.filled()
	sender := NewController(Defaults(p.capacity))
	param, err := sender.Register(ParamSpec{
		Name: "r", Initial: p.initial, Min: 0.01, Max: 1, Step: plantStep,
		Direction: IncreaseSlowsProcessing,
	})
	if err != nil {
		panic(err)
	}
	receiver := NewMonitor(Defaults(p.capacity / 2))
	recvCap := float64(p.capacity / 2)
	rs := p.target()

	var q, h, rq float64 // visible queue, hidden buffer, receiver queue
	// serve moves a share f of a tick's packets: the link drains the hidden
	// buffer first, then the visible queue, as far as the receiver has
	// room; the hidden buffer then refills from the visible queue.
	serve := func(r, f float64) {
		served := math.Min(math.Min(f*p.mu, h+q*r), recvCap-rq+f*p.nu)
		fromH := math.Min(served, h)
		h -= fromH
		q -= (served - fromH) / r
		moved := math.Min(q*r, p.hidden-h)
		h += moved
		q -= moved / r
		rq = math.Max(0, rq+served-f*p.nu)
	}
	arrive := func(n float64) { q = math.Min(float64(p.capacity), q+n) }

	out := plantReading{rise: -1}
	var vals []float64
	var excs, epochs int
	from := p.ticks / 2
	for tick := 0; tick < p.ticks; tick++ {
		r := param.Value()
		if out.rise < 0 && r >= 0.9*rs {
			out.rise = tick
		}
		if p.bursts == 0 {
			arrive(p.lambda)
			serve(r, 1)
		}
		for b := 0; b < p.bursts; b++ {
			serve(r, 1/float64(p.bursts))
			arrive(p.lambda / float64(p.bursts))
		}
		sender.Observe(int(q))
		ob := receiver.Observe(int(rq))
		if ob.Exception != ExceptionNone {
			sender.OnDownstreamException(ob.Exception)
			if tick >= from {
				excs++
			}
		}
		if tick%plantAdjustEvery == plantAdjustEvery-1 {
			sender.Adjust()
			if tick >= from {
				epochs++
			}
		}
		if tick >= from {
			vals = append(vals, param.Value())
			out.queue += q
		}
	}

	lo, hi := math.Inf(1), math.Inf(-1)
	var sum float64
	var above int
	for _, v := range vals {
		sum += v
		lo, hi = math.Min(lo, v), math.Max(hi, v)
		// A loop that settles on the step just above r* is exact to the
		// Step's resolution; only a sample a whole Step over r* is a bias.
		if v >= rs+plantStep-1e-9 {
			above++
		}
	}
	n := float64(len(vals))
	out.mean = sum / n
	out.meanErr = (out.mean - rs) / rs
	out.swing = (hi - lo) / rs
	out.above = float64(above) / n
	out.queue /= n
	if epochs > 0 {
		out.excPerEpoch = float64(excs) / float64(epochs)
	}
	return out
}

// TestPlantLinkBias runs the plant in adapt-netlimit's shape: 80 packets/s
// into a 20 packets/s link, observed every 0.5 s (λ 40, μ 10 a tick), and a
// sampler queue of 100, with a fluid stream and with a source that emits in
// bursts of ten. The receiver reports underload on every observation. While
// congestion priority held those reports back only on d̃ > 0, the sampler
// obeyed them with a backlog in its queue and settled 4 % (H 0) to 14 %
// (H ≥ C) above r*. Counting the backlog brought the bursty rows within 6 %,
// but the law, which integrates the queue level while the queue integrates
// the rate error, still cycled between an empty and a full queue: swings of
// 30–34 % with nothing hidden and 52–63 % behind a hidden buffer, and a fluid
// stream 15 % above r* at H ≥ C. The queue-trend term damps the cycle: every
// row now reads within 2.3 %, with swings of 18–22 % at H 0 and 37–40 % at
// H ≥ C; the ramp from r = 0.01 keeps the speed it has on a smooth stream.
// The rows read 32–46 % of samples a Step or more above r* (50–54 % counted
// any distance above it).
func TestPlantLinkBias(t *testing.T) {
	smooth := plant{lambda: 40, mu: 10, capacity: 100, initial: 0.01}.run()
	for _, bursts := range []int{0, 10} {
		for _, hidden := range []float64{0, 100, 400} {
			name := fmt.Sprintf("H=%.0f", hidden)
			if bursts == 0 {
				name = "fluid-" + name
			}
			t.Run(name, func(t *testing.T) {
				p := plant{lambda: 40, mu: 10, bursts: bursts, capacity: 100, hidden: hidden, initial: 0.01}
				got := p.run()
				t.Log(got)
				maxSwing := 0.25
				if hidden > 0 {
					maxSwing = 0.45
				}
				if math.Abs(got.meanErr) > 0.03 || got.swing > maxSwing || got.above > 0.49 {
					t.Errorf("settled %v, want |error| ≤ 3 %%, swing ≤ %.0f %%, a Step above r* ≤ 49 %%", got, 100*maxSwing)
				}
				if got.rise < 0 || got.rise > smooth.rise+smooth.rise/10 {
					t.Errorf("reached 0.9·r* at tick %d, want within 10 %% of a smooth stream's %d", got.rise, smooth.rise)
				}
			})
		}
	}
}

// TestTrendTermPullsAgainstQueueGrowth pins the queue-trend term of the ΔP
// law. With the volatility gains held at sigmaFloor, an epoch whose d̄ rose
// since the last one must push the canonical knob toward less data by
// gain·trendGain·Trend beyond what d̃ alone asks for, an epoch whose d̄ fell
// must pull it the other way, and an epoch with a downstream report must
// leave the term out.
func TestTrendTermPullsAgainstQueueGrowth(t *testing.T) {
	o := Defaults(100)
	c := NewController(o)
	c.sigma1.vol, c.sigma2.vol = 0, 0 // σ1 = σ2 = sigmaFloor
	epoch := func(d int) AdjustResult {
		for i := 0; i < 4; i++ {
			c.Observe(d)
		}
		return c.AdjustDetailed()
	}
	if res := epoch(10); res.Trend != 0 {
		t.Fatalf("first epoch: Trend %v, want 0 (no previous d̄)", res.Trend)
	}
	prev := c.LastObservation().DBar
	for _, tc := range []struct {
		name string
		d    int
		grow bool
	}{{"rising", 60, true}, {"falling", 0, false}} {
		res := epoch(tc.d)
		dbar := c.LastObservation().DBar
		if want := (dbar - prev) / float64(o.Capacity); res.Trend != want || res.Trend == 0 {
			t.Fatalf("%s: Trend %v, want Δd̄/C = %v ≠ 0", tc.name, res.Trend, want)
		}
		prev = dbar
		if res.PhiT != 0 {
			t.Fatalf("%s: PhiT %v with no downstream report", tc.name, res.PhiT)
		}
		local := gain * res.DNorm * sigmaFloor
		if want := local + gain*trendGain*res.Trend; math.Abs(res.DeltaP-want) > 1e-9 {
			t.Errorf("%s: ΔP %v, want gain·(d̃/C·σ1 + k·Trend) = %v", tc.name, res.DeltaP, want)
		}
		if tc.grow != (res.Trend > 0) {
			t.Fatalf("%s: Trend %v has the wrong sign", tc.name, res.Trend)
		}
		if pull := res.DeltaP - local; pull*res.Trend <= 0 || math.Abs(pull) < gain*math.Abs(res.Trend) {
			t.Errorf("%s: the trend term moved ΔP by %v for Trend %v, want a pull against the queue's change", tc.name, pull, res.Trend)
		}
	}
	c.OnDownstreamException(ExceptionOverload)
	res := epoch(50)
	if res.PhiT == 0 || res.Trend == 0 {
		t.Fatalf("gated epoch: PhiT %v, Trend %v, want both non-zero", res.PhiT, res.Trend)
	}
	if want := gain * (res.DNorm + res.PhiT) * sigmaFloor; math.Abs(res.DeltaP-want) > 1e-9 {
		t.Errorf("gated epoch: ΔP %v, want %v without the trend term", res.DeltaP, want)
	}
}

// TestCongestionPriorityHoldsUnderloadOnBacklog pins the three cases of the
// gate on a downstream underload report: held back while the stage's queue
// holds a backlog even though d̃ has turned negative; let through while the
// stage is still ramping up; and let through whenever the rule is disabled.
func TestCongestionPriorityHoldsUnderloadOnBacklog(t *testing.T) {
	// drained runs a stage into overload and lets its queue empty until d̃
	// turns negative, with the backlog still inside the d̄ window.
	drained := func(o Options) *Controller {
		c := NewController(o)
		for i := 0; i < 3; i++ {
			c.Observe(95)
		}
		for c.DTilde() >= 0 {
			c.Observe(0)
		}
		if ob := c.LastObservation(); ob.DBar <= 0 || ob.Phi1 <= rampingPhi1 {
			t.Fatalf("no backlog left in the window: %+v", ob)
		}
		return c
	}
	ramping := NewController(Defaults(100))
	for i := 0; i < 20; i++ {
		ramping.Observe(2) // a burst passing through, never an overload
	}
	off := Defaults(100)
	off.DisableCongestionPriority = true
	for _, tc := range []struct {
		name   string
		c      *Controller
		obeyed bool
	}{
		{"backlog", drained(Defaults(100)), false},
		{"ramping", ramping, true},
		{"disabled", drained(off), true},
	} {
		tc.c.OnDownstreamException(ExceptionUnderload)
		res := tc.c.AdjustDetailed()
		if res.DNorm > 0 {
			t.Fatalf("%s: d̃ %v is positive, the backlog rule is not what decides", tc.name, res.DTilde)
		}
		if got := res.PhiT < 0; got != tc.obeyed {
			t.Errorf("%s: PhiT = %v, want the underload report obeyed = %v", tc.name, res.PhiT, tc.obeyed)
		}
	}
}

// maxSettledErr bounds the settled mean's distance from r*, as a fraction of
// r*, when nothing is hidden from the law: the worst of the property test's
// draws read 5.2 %, against 19.6 % before congestion priority counted the
// backlog.
const maxSettledErr = 0.06

// TestLawTracksQueuingModel is a property test of the law on the plant: for
// random arrival and link rates, receiver rates, queue sizes, hidden buffers
// and initial values, the settled mean lands near the sustainable fraction the
// §4.1 queueing model computes for the same stations.
func TestLawTracksQueuingModel(t *testing.T) {
	oracle := func(p plant) float64 {
		p = p.filled()
		n := queuing.New()
		for _, st := range []queuing.Station{{Name: "sender"}, {Name: "link", ServiceRate: p.mu}, {Name: "receiver", ServiceRate: p.nu}} {
			if err := n.AddStation(st); err != nil {
				t.Fatal(err)
			}
		}
		if err := errors.Join(n.Route("sender", "link", 1), n.Route("link", "receiver", 1), n.SetArrival("sender", p.lambda)); err != nil {
			t.Fatal(err)
		}
		r, err := n.SustainableFraction("sender")
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// Each draw maps five uniform numbers onto a plant: C in [50, 200]; λ
	// from C/40 to C/2 a tick; μ from 0.1 to 1.5 λ; a receiver that is the
	// bottleneck in a third of the draws; a hidden buffer of up to 4C in
	// half of them; any initial value. Draws whose r* falls below 0.1 are
	// skipped: a step of 0.01 is then too coarse to settle on.
	f := func(a, b, c, d, e uint16) bool {
		u := func(x uint16) float64 { return float64(x) / math.MaxUint16 }
		p := plant{capacity: 50 + int(a)%151, initial: 0.01 + 0.99*u(e), ticks: 10000}
		p.lambda = float64(p.capacity) * (0.025 + 0.475*u(b))
		p.mu = p.lambda * (0.1 + 1.4*u(c))
		if d%3 == 0 {
			p.nu = math.Min(p.mu*(0.1+0.9*u(d)), float64(p.capacity)/16)
		}
		if d%2 == 0 {
			p.hidden = 4 * float64(p.capacity) * u(d^a)
		}
		rs := oracle(p)
		if math.Abs(rs-p.target()) > 1e-9 {
			t.Fatalf("plant r* %v, model %v", p.target(), rs)
		}
		if rs < 0.1 {
			return true
		}
		got := p.run()
		errFrac := (got.mean - rs) / rs
		// With a hidden buffer d̃ cannot see all of the backlog. Without the
		// queue-trend term the law overshot: the draws read −11.7 % to
		// +19.2 % and up to 70 % of samples above r*. With it they read
		// −11.7 % to +6.3 %, and at most 49 % of samples a Step or more
		// above r* (55 % counted any distance above it).
		ok := errFrac >= -0.13 && errFrac <= 0.08 && got.above <= 0.54
		if p.hidden == 0 {
			ok = ok && math.Abs(errFrac) <= maxSettledErr
		}
		if !ok {
			t.Logf("λ %.1f μ %.1f ν %.1f C %d H %.0f r0 %.2f r* %.3f: %v", p.lambda, p.mu, p.nu, p.capacity, p.hidden, p.initial, rs, got)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
