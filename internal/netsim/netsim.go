// Package netsim emulates the network configurations used in the paper's
// evaluation.
//
// The authors ran all experiments inside one cluster and "introduced delay in
// the networks to create execution configurations with different bandwidths"
// (1 KB/s, 10 KB/s, 100 KB/s, 1 MB/s). This package reproduces that setup: a
// Link imposes transfer time n/bandwidth in virtual time on every payload of
// n bytes, using a token bucket so that concurrent senders on one link share
// its capacity, exactly as competing streams shared their injected-delay
// links.
package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gates-middleware/gates/internal/clock"
	"github.com/gates-middleware/gates/internal/obs"
)

// Common bandwidth constants, in bytes per (virtual) second, matching the
// paper's four network configurations.
const (
	KBps   int64 = 1000
	MBps   int64 = 1000 * KBps
	BW1K         = 1 * KBps   // 1 KB/s configuration
	BW10K        = 10 * KBps  // 10 KB/s configuration
	BW100K       = 100 * KBps // 100 KB/s configuration
	BW1M         = 1 * MBps   // 1 MB/s configuration
)

// LinkConfig describes one emulated link.
type LinkConfig struct {
	// Bandwidth is the link capacity in bytes per virtual second.
	// Zero means unlimited (no transmission delay).
	Bandwidth int64
	// Quantum batches pacing sleeps: a sender blocks only once its owed
	// transmission time reaches Quantum (the backlog persists in the
	// shaper either way, so the average rate is exact). Batching exists
	// because real timers have ~0.1 ms granularity: with a heavily
	// compressed virtual clock, per-packet sleeps of a few virtual
	// milliseconds would map to unsleepable nanoseconds. Zero sleeps on
	// every transfer.
	Quantum time.Duration
}

// minBurst is the smallest token-bucket depth, in bytes.
const minBurst = 2 << 10

// burst is the token-bucket depth in bytes: how much an idle link can absorb
// instantly. One bandwidth-second, and at least minBurst, keeps short-term
// pacing tight while letting a handful of packets start without a stall.
func (c LinkConfig) burst() int64 {
	return max(c.Bandwidth, minBurst)
}

// LinkStats is a snapshot of a link's accounting.
type LinkStats struct {
	// Bytes is the total payload volume carried.
	Bytes int64
	// Messages is the number of Transfer calls completed.
	Messages int64
	// Waited is the cumulative virtual time senders spent blocked on this
	// link's transmission pacing. Pacing a Quantum holds back is counted
	// when a later transfer sleeps it, so Waited never exceeds the time
	// senders actually slept.
	Waited time.Duration
	// Dropped is the number of deliveries discarded by fault injection on
	// this link (probabilistic loss or a black-hole after a node kill or
	// partition). Counted by FaultVerdict, so the figure is exact however
	// the emitting side reacts to the verdict.
	Dropped int64
}

// Link is a shared, emulated network link. Transfer blocks the caller for
// the virtual time the payload would occupy the link. A Link is safe for
// concurrent use; concurrent senders serialize through the same shaper and
// therefore share the bandwidth.
//
// The shaper uses the virtual-finish-time model: nextFree is the virtual
// instant the link finishes transmitting everything accepted so far. An
// idle link accrues at most burst bytes of credit.
type Link struct {
	cfg LinkConfig
	clk clock.Clock

	// transferSec, when instrumented, records each batch's pacing wait —
	// the per-edge contribution to end-to-end latency. Atomic so Instrument
	// can attach it while traffic flows.
	transferSec atomic.Pointer[obs.Histogram]

	// fault, when non-nil, is the installed fault-injection state (loss,
	// reorder, black-hole — see faults.go). Atomic so the healthy path
	// pays exactly one pointer load to learn there is nothing to decide.
	fault atomic.Pointer[linkFault]

	mu       sync.Mutex
	nextFree time.Time
	stats    LinkStats
}

// NewLink returns a link driven by clk. A nil clock panics: links without a
// time base cannot pace anything.
func NewLink(clk clock.Clock, cfg LinkConfig) *Link {
	if clk == nil {
		panic("netsim: NewLink requires a clock")
	}
	if cfg.Bandwidth < 0 {
		panic(fmt.Sprintf("netsim: negative bandwidth %d", cfg.Bandwidth))
	}
	l := &Link{cfg: cfg, clk: clk}
	if cfg.Bandwidth > 0 {
		// Start with full burst credit.
		l.nextFree = clk.Now().Add(-l.burstWindow())
	}
	return l
}

// burstWindow is the idle credit expressed as time: burst bytes at line
// rate.
func (l *Link) burstWindow() time.Duration {
	return time.Duration(float64(l.cfg.burst()) / float64(l.cfg.Bandwidth) * float64(time.Second))
}

// Config returns the link's configuration (with the current bandwidth).
func (l *Link) Config() LinkConfig {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cfg
}

// SetBandwidth changes the link's capacity at runtime (zero means
// unlimited), modeling a grid whose available bandwidth shifts mid-run —
// the condition live re-deployment reacts to. Traffic already accepted
// into the shaper keeps its committed finish time; only transfers after
// the change pace at the new rate. Quantum is immutable.
func (l *Link) SetBandwidth(bw int64) {
	if bw < 0 {
		panic(fmt.Sprintf("netsim: negative bandwidth %d", bw))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if bw == l.cfg.Bandwidth {
		return
	}
	wasUnlimited := l.cfg.Bandwidth == 0
	l.cfg.Bandwidth = bw
	if bw > 0 {
		// Grant at most the burst credit of the new rate; a previously
		// unlimited link starts with a full (not infinite) bucket.
		earliest := l.clk.Now().Add(-l.burstWindow())
		if wasUnlimited || l.nextFree.Before(earliest) {
			l.nextFree = earliest
		}
	}
}

// Transfer blocks for the virtual time needed to carry n payload bytes and
// returns the pacing delay owed. When a Quantum is configured, small owed
// delays are not slept immediately — they remain in the shaper and a later
// transfer sleeps the accumulated backlog — so the long-run rate is exact
// while the number of real timer operations stays bounded. n <= 0 owes
// nothing.
func (l *Link) Transfer(n int) time.Duration {
	return l.TransferBatch(n, 1)
}

// TransferBatch carries msgs coalesced messages totaling n payload bytes in
// one shaper reservation: a single token-bucket charge for the summed bytes.
// Because the virtual-finish-time shaper is linear in bytes, reserving the
// sum is byte-exact — the batch clears the link at the same virtual instant
// the messages would have individually — so the paper's B/b transfer law
// holds unchanged while the per-message locking and timer traffic collapses
// to one round-trip per batch. LinkStats stays message- and byte-accurate:
// Messages advances by msgs, Bytes by n.
func (l *Link) TransferBatch(n, msgs int) time.Duration {
	if msgs < 1 {
		msgs = 1
	}
	// Co-located fast path: an unlimited link (the lazy loopback edges
	// between stages sharing a node) imposes no pacing, so the shaper
	// reservation is skipped and accounting takes one lock round-trip
	// instead of two.
	l.mu.Lock()
	if l.cfg.Bandwidth == 0 {
		l.stats.Messages += int64(msgs)
		l.stats.Bytes += int64(n)
		l.mu.Unlock()
		if h := l.transferSec.Load(); h != nil {
			h.Observe(0)
		}
		return 0
	}
	l.mu.Unlock()
	wait := l.reserve(n)
	// A wait under Quantum stays in the shaper, and the next transfer's
	// wait contains it again: Waited counts it once, when slept.
	var slept time.Duration
	if wait > 0 && wait >= l.cfg.Quantum {
		l.clk.Sleep(wait)
		slept = wait
	}
	l.mu.Lock()
	l.stats.Messages += int64(msgs)
	l.stats.Bytes += int64(n)
	l.stats.Waited += slept
	l.mu.Unlock()
	if h := l.transferSec.Load(); h != nil {
		h.Observe(wait.Seconds())
	}
	return wait
}

// reserve accepts n bytes into the shaper and returns how long the caller
// must wait before its payload has cleared the link.
func (l *Link) reserve(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cfg.Bandwidth == 0 {
		return 0
	}
	now := l.clk.Now()
	if earliest := now.Add(-l.burstWindow()); l.nextFree.Before(earliest) {
		l.nextFree = earliest
	}
	l.nextFree = l.nextFree.Add(time.Duration(float64(n) / float64(l.cfg.Bandwidth) * float64(time.Second)))
	wait := l.nextFree.Sub(now)
	if wait < 0 {
		return 0
	}
	return wait
}

// Stats returns a snapshot of the link's accounting.
func (l *Link) Stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Network is a named collection of nodes and the directed links between
// them. The Deployer queries it to wire stage containers with the bandwidth
// the application's placement implies.
type Network struct {
	clk clock.Clock

	mu      sync.Mutex
	nodes   map[string]bool
	links   map[string]*Link     // key: "from->to"
	ends    map[string][2]string // link key -> {from, to}, for fault topology
	dead    map[string]bool      // killed nodes (see Kill/Heal in faults.go)
	parts   map[string]bool      // severed directed pairs, key "a->b"
	onLive  []func(node string, alive bool)
	defCfg  LinkConfig
	hasDef  bool
	created int
}

// NewNetwork returns an empty topology on clk.
func NewNetwork(clk clock.Clock) *Network {
	if clk == nil {
		panic("netsim: NewNetwork requires a clock")
	}
	return &Network{
		clk:   clk,
		nodes: make(map[string]bool),
		links: make(map[string]*Link),
		ends:  make(map[string][2]string),
		dead:  make(map[string]bool),
		parts: make(map[string]bool),
	}
}

// AddNode registers a node name. Adding an existing node is a no-op.
func (n *Network) AddNode(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes[name] = true
}

// Nodes returns the number of registered nodes.
func (n *Network) Nodes() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.nodes)
}

// SetDefaultLink configures the link used between any pair of nodes that has
// no explicit link.
func (n *Network) SetDefaultLink(cfg LinkConfig) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.defCfg = cfg
	n.hasDef = true
}

// Connect installs a directed link from one node to another, registering the
// nodes if needed, and returns it.
func (n *Network) Connect(from, to string, cfg LinkConfig) *Link {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes[from] = true
	n.nodes[to] = true
	l := NewLink(n.clk, cfg)
	n.registerLocked(from, to, l)
	return l
}

// InstallLink routes from->to over an existing link, so several node pairs
// can share one physical bottleneck (a site's WAN uplink, say): traffic from
// every pair then competes for the same bandwidth.
func (n *Network) InstallLink(from, to string, l *Link) {
	if l == nil {
		panic("netsim: InstallLink requires a link")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes[from] = true
	n.nodes[to] = true
	n.registerLocked(from, to, l)
}

// registerLocked records the link under its directed key and applies any
// standing fault topology (a link created toward a dead node black-holes
// from birth).
func (n *Network) registerLocked(from, to string, l *Link) {
	n.links[from+"->"+to] = l
	n.ends[from+"->"+to] = [2]string{from, to}
	if n.severedLocked(from, to) {
		l.SetBlackhole(true)
	}
}

// ConnectBidirectional installs links in both directions with the same
// configuration and returns them (from->to, to->from).
func (n *Network) ConnectBidirectional(from, to string, cfg LinkConfig) (*Link, *Link) {
	return n.Connect(from, to, cfg), n.Connect(to, from, cfg)
}

// Link returns the link from one node to another. Traffic between a node and
// itself, or between nodes with no explicit link when no default is set,
// travels on an unlimited loopback link (allocated lazily, one per pair).
func (n *Network) Link(from, to string) *Link {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.linkLocked(from, to)
}

func (n *Network) linkLocked(from, to string) *Link {
	key := from + "->" + to
	if l, ok := n.links[key]; ok {
		return l
	}
	cfg := LinkConfig{} // unlimited loopback
	if from != to && n.hasDef {
		cfg = n.defCfg
	}
	l := NewLink(n.clk, cfg)
	n.registerLocked(from, to, l)
	n.created++
	return l
}

// TotalBytes returns the payload volume carried across all links. A link
// installed on several node pairs is counted once.
func (n *Network) TotalBytes() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	seen := make(map[*Link]bool, len(n.links))
	var sum int64
	for _, l := range n.links {
		if seen[l] {
			continue
		}
		seen[l] = true
		sum += l.Stats().Bytes
	}
	return sum
}
