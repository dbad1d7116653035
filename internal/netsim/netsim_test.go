package netsim

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
)

func TestNewLinkPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewLink(nil, ...) did not panic")
			}
		}()
		NewLink(nil, LinkConfig{})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative bandwidth did not panic")
			}
		}()
		NewLink(clock.NewManual(), LinkConfig{Bandwidth: -1})
	}()
}

func TestUnlimitedLinkNoDelay(t *testing.T) {
	clk := clock.NewManual()
	l := NewLink(clk, LinkConfig{}) // unlimited
	if d := l.Transfer(1 << 20); d != 0 {
		t.Fatalf("unlimited link imposed %v delay", d)
	}
}

func TestTransferPacesAtBandwidth(t *testing.T) {
	// 10 KB/s link, so a burst of one bandwidth-second, 10 KB. Sending
	// 110 KB total must take (110KB - 10KB burst)/10KBps = 10 virtual
	// seconds. A Manual clock advanced by each owed wait makes the check
	// deterministic (wall timers would add scheduler overshoot to the
	// measurement).
	clk := clock.NewManual()
	l := NewLink(clk, LinkConfig{Bandwidth: 10 * KBps})
	var total time.Duration
	for i := 0; i < 110; i++ {
		w := l.reserve(1000)
		total += w
		clk.Advance(w)
	}
	if total < 9999*time.Millisecond || total > 10001*time.Millisecond {
		t.Fatalf("110KB over 10KB/s owed %v of pacing, want 10s", total)
	}
}

// TestBurstAbsorbsInitialPayload: an idle link absorbs one bandwidth-second,
// and at least minBurst bytes, without pacing.
func TestBurstAbsorbsInitialPayload(t *testing.T) {
	for bw, burst := range map[int64]int{1 * KBps: minBurst, 10 * KBps: 10_000} {
		l := NewLink(clock.NewManual(), LinkConfig{Bandwidth: bw})
		if w := l.reserve(burst); w != 0 {
			t.Fatalf("%d B/s: burst-sized first transfer delayed %v, want 0", bw, w)
		}
		if w := l.reserve(1000); w != time.Duration(1000*float64(time.Second)/float64(bw)) {
			t.Fatalf("%d B/s: post-burst 1000 B owed %v, want it paced at line rate", bw, w)
		}
	}
}

func TestTokensRefillWhileIdle(t *testing.T) {
	clk := clock.NewManual()
	l := NewLink(clk, LinkConfig{Bandwidth: 1000})
	// Drain the bucket without blocking (burst covers it).
	if w := l.reserve(minBurst); w != 0 {
		t.Fatalf("first reserve waited %v", w)
	}
	// Immediately, another 500B should require 0.5s of pacing.
	if w := l.reserve(500); w != 500*time.Millisecond {
		t.Fatalf("backlogged reserve = %v, want 500ms", w)
	}
	// After 3s idle the bucket refills (capped at burst), so a fresh 500B
	// is free again.
	clk.Advance(3 * time.Second)
	if w := l.reserve(500); w != 0 {
		t.Fatalf("post-idle reserve = %v, want 0", w)
	}
}

func TestBurstCapsRefill(t *testing.T) {
	clk := clock.NewManual()
	l := NewLink(clk, LinkConfig{Bandwidth: 1000})
	clk.Advance(time.Hour) // would accumulate 3.6MB without the cap
	if w := l.reserve(minBurst + 1000); w != time.Second {
		t.Fatalf("reserve after long idle = %v, want 1s (only burst available)", w)
	}
}

func TestQuantumBatchesSleeps(t *testing.T) {
	// With a Manual clock that nobody advances, any Transfer that sleeps
	// would block forever — so completing Transfers proves the quantum
	// suppressed the sleep, while the owed backlog still accumulates.
	clk := clock.NewManual()
	l := NewLink(clk, LinkConfig{Bandwidth: 1000, Quantum: 10 * time.Second})
	var owed time.Duration
	for i := 0; i < 6; i++ {
		owed = l.Transfer(1000) // 1s more owed each after the burst
	}
	if owed < 3*time.Second {
		t.Fatalf("owed pacing = %v, want >= 3s of backlog", owed)
	}
	if w := l.Stats().Waited; w != 0 {
		t.Fatalf("Waited = %v with no sleep, want 0", w)
	}
	// The seventh transfer would owe about 5s, still under the 10s quantum.
	done := make(chan struct{})
	go func() {
		l.Transfer(1000)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("transfer under quantum slept")
	}
}

// sleepClock is a clock whose time moves only when a caller sleeps: the
// elapsed time is exactly what senders slept.
type sleepClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *sleepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *sleepClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func (c *sleepClock) After(d time.Duration) <-chan time.Time {
	c.Sleep(d)
	ch := make(chan time.Time, 1)
	ch <- c.Now()
	return ch
}

// TestWaitedCountsOnlySleptPacing drives a 10 KB/s link with 200 transfers
// of 500 B on a clock that advances only when a sender sleeps. Waited must
// equal the time slept: a wait under Quantum stays in the shaper and is
// slept (and counted) by a later transfer, not counted twice.
func TestWaitedCountsOnlySleptPacing(t *testing.T) {
	for _, quantum := range []time.Duration{0, 100 * time.Millisecond} {
		clk := &sleepClock{now: clock.Epoch}
		l := NewLink(clk, LinkConfig{Bandwidth: 10_000, Quantum: quantum})
		for i := 0; i < 200; i++ {
			l.Transfer(500)
		}
		elapsed := clk.Now().Sub(clock.Epoch)
		if w := l.Stats().Waited; w != elapsed {
			t.Errorf("quantum %v: Waited %v for %v slept", quantum, w, elapsed)
		}
		if elapsed < 9*time.Second {
			t.Errorf("quantum %v: 100 KB minus the burst took %v at 10 KB/s, want ≥ 9s", quantum, elapsed)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	clk := clock.NewScaled(100000)
	l := NewLink(clk, LinkConfig{Bandwidth: 100 * KBps})
	l.Transfer(500)
	l.Transfer(1500)
	st := l.Stats()
	if st.Bytes != 2000 || st.Messages != 2 {
		t.Fatalf("stats = %+v, want Bytes=2000 Messages=2", st)
	}
}

func TestConcurrentSendersShareBandwidth(t *testing.T) {
	// Two senders each pushing 50KB through a shared 10KB/s link: total
	// 100KB minus burst must take >= ~9 virtual seconds.
	clk := clock.NewScaled(100000)
	l := NewLink(clk, LinkConfig{Bandwidth: 10 * KBps})
	sw := clock.NewStopwatch(clk)
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.Transfer(1000)
			}
		}()
	}
	wg.Wait()
	if elapsed := sw.Elapsed(); elapsed < 8*time.Second {
		t.Fatalf("100KB shared over 10KB/s took %v, want >= ~9s", elapsed)
	}
}

func TestNetworkDefaultAndExplicitLinks(t *testing.T) {
	clk := clock.NewManual()
	n := NewNetwork(clk)
	n.SetDefaultLink(LinkConfig{Bandwidth: BW1K})
	n.Connect("a", "b", LinkConfig{Bandwidth: BW1M})
	if got := n.Link("a", "b").Config().Bandwidth; got != BW1M {
		t.Fatalf("explicit link bandwidth = %d, want %d", got, BW1M)
	}
	if got := n.Link("a", "c").Config().Bandwidth; got != BW1K {
		t.Fatalf("default link bandwidth = %d, want %d", got, BW1K)
	}
	if got := n.Link("a", "a").Config().Bandwidth; got != 0 {
		t.Fatalf("loopback bandwidth = %d, want unlimited", got)
	}
}

func TestNetworkLinkIsStable(t *testing.T) {
	n := NewNetwork(clock.NewManual())
	l1 := n.Link("x", "y")
	l2 := n.Link("x", "y")
	if l1 != l2 {
		t.Fatal("Link returned different instances for the same pair")
	}
}

func TestNetworkNodesAndTotalBytes(t *testing.T) {
	clk := clock.NewScaled(100000)
	n := NewNetwork(clk)
	n.AddNode("a")
	n.AddNode("a")
	n.Connect("a", "b", LinkConfig{})
	if n.Nodes() != 2 {
		t.Fatalf("Nodes = %d, want 2", n.Nodes())
	}
	n.Link("a", "b").Transfer(123)
	n.Link("b", "a").Transfer(77) // lazily created loopback-default link
	if got := n.TotalBytes(); got != 200 {
		t.Fatalf("TotalBytes = %d, want 200", got)
	}
}

func TestConnectBidirectional(t *testing.T) {
	n := NewNetwork(clock.NewManual())
	fw, bw := n.ConnectBidirectional("a", "b", LinkConfig{Bandwidth: BW10K})
	if fw == bw {
		t.Fatal("bidirectional links must be distinct")
	}
	if n.Link("a", "b") != fw || n.Link("b", "a") != bw {
		t.Fatal("bidirectional links not registered")
	}
}

// Property: cumulative pacing delay for any sequence of transfers is at
// least (totalBytes - burst) / bandwidth and never negative.
func TestPacingLowerBoundProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		clk := clock.NewManual()
		const bw, burst = 1000, minBurst
		l := NewLink(clk, LinkConfig{Bandwidth: bw})
		var total int64
		var waited time.Duration
		for _, s := range sizes {
			n := int(s % 3000)
			w := l.reserve(n)
			if w < 0 {
				return false
			}
			waited += w
			total += int64(n)
			clk.Advance(w) // sender blocks for the pacing time
		}
		minWait := time.Duration(float64(total-burst) / bw * float64(time.Second))
		// Each reserve truncates to whole nanoseconds; allow that slack.
		slack := time.Duration(len(sizes)+1) * time.Nanosecond
		return waited+slack >= minWait
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInstallLinkShares(t *testing.T) {
	clk := clock.NewManual()
	n := NewNetwork(clk)
	shared := NewLink(clk, LinkConfig{Bandwidth: 1000, Quantum: time.Hour})
	n.InstallLink("a1", "b", shared)
	n.InstallLink("a2", "b", shared)
	if n.Link("a1", "b") != shared || n.Link("a2", "b") != shared {
		t.Fatal("installed link not returned for both pairs")
	}
	// Traffic from both pairs lands on the same shaper...
	n.Link("a1", "b").Transfer(600)
	n.Link("a2", "b").Transfer(600)
	if got := shared.Stats().Bytes; got != 1200 {
		t.Fatalf("shared link carried %d bytes, want 1200", got)
	}
	// ...and TotalBytes counts the shared link once.
	if got := n.TotalBytes(); got != 1200 {
		t.Fatalf("TotalBytes = %d, want 1200", got)
	}
}

func TestInstallLinkNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("InstallLink(nil) did not panic")
		}
	}()
	NewNetwork(clock.NewManual()).InstallLink("a", "b", nil)
}

// TestTransferBatchBytesExact: reserving a batch's summed bytes must owe
// exactly the pacing that the same bytes sent one message at a time would
// owe — the shaper is linear in bytes, so virtual-time pacing is byte-exact
// either way.
func TestTransferBatchBytesExact(t *testing.T) {
	mk := func() (*clock.Manual, *Link) {
		clk := clock.NewManual()
		return clk, NewLink(clk, LinkConfig{Bandwidth: 10 * KBps})
	}

	clkA, perItem := mk()
	var totalA time.Duration
	for i := 0; i < 40; i++ {
		w := perItem.reserve(500)
		totalA += w
		clkA.Advance(w)
	}

	clkB, batched := mk()
	var totalB time.Duration
	for i := 0; i < 5; i++ { // same 20 KB in batches of 8 messages
		w := batched.reserve(8 * 500)
		totalB += w
		clkB.Advance(w)
	}

	if totalA != totalB {
		t.Fatalf("pacing differs: per-item %v vs batched %v", totalA, totalB)
	}
}

// TestTransferBatchStatsAccurate: Messages counts logical messages, Bytes
// the summed payload.
func TestTransferBatchStatsAccurate(t *testing.T) {
	clk := clock.NewManual()
	l := NewLink(clk, LinkConfig{}) // unlimited: no sleeps on a manual clock
	l.TransferBatch(4096, 16)
	l.TransferBatch(100, 1)
	l.Transfer(50)
	st := l.Stats()
	if st.Messages != 18 {
		t.Fatalf("Messages = %d, want 18", st.Messages)
	}
	if st.Bytes != 4096+100+50 {
		t.Fatalf("Bytes = %d, want %d", st.Bytes, 4096+100+50)
	}
}

func TestTransferBatchZeroMsgsCountsOne(t *testing.T) {
	clk := clock.NewManual()
	l := NewLink(clk, LinkConfig{})
	l.TransferBatch(10, 0)
	if st := l.Stats(); st.Messages != 1 {
		t.Fatalf("Messages = %d, want 1", st.Messages)
	}
}
