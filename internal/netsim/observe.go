package netsim

import (
	"sort"

	"github.com/gates-middleware/gates/internal/obs"
)

// Instrument publishes the link's counters into reg under the given route
// name (e.g. "n1->n2") as scrape-time callbacks — the hot transfer path is
// untouched. A nil registry is a no-op.
func (l *Link) Instrument(reg *obs.Registry, name string) {
	if reg == nil {
		return
	}
	lb := map[string]string{"link": name}
	reg.CounterFunc("gates_link_bytes_total",
		"Payload bytes carried by the emulated link.", lb,
		func() float64 { return float64(l.Stats().Bytes) })
	reg.CounterFunc("gates_link_messages_total",
		"Messages carried by the emulated link.", lb,
		func() float64 { return float64(l.Stats().Messages) })
	reg.CounterFunc("gates_link_waited_seconds_total",
		"Cumulative virtual time senders slept on the link shaper's pacing.", lb,
		func() float64 { return l.Stats().Waited.Seconds() })
	l.transferSec.Store(reg.Histogram("gates_link_transfer_seconds",
		"Virtual time one coalesced batch owed the link's pacing.",
		obs.LatencyBuckets, lb))
}

// Instrument publishes every installed link into reg, labeled by route. A
// link shared by several routes (InstallLink) is registered once, under its
// lexicographically first route, so aggregations over gates_link_bytes_total
// match TotalBytes instead of multiply counting the shared bottleneck.
func (n *Network) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	n.mu.Lock()
	keys := make([]string, 0, len(n.links))
	for k := range n.links {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	seen := make(map[*Link]bool, len(keys))
	routes := make([]struct {
		key  string
		link *Link
	}, 0, len(keys))
	for _, k := range keys {
		l := n.links[k]
		if seen[l] {
			continue
		}
		seen[l] = true
		routes = append(routes, struct {
			key  string
			link *Link
		}{k, l})
	}
	n.mu.Unlock()
	for _, r := range routes {
		r.link.Instrument(reg, r.key)
	}
}
