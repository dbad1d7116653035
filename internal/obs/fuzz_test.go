package obs

import (
	"encoding/json"
	"math"
	"sort"
	"testing"
)

// FuzzMergeSnapshots feeds MergeMetrics what HTTPSource accepts from a remote
// node: JSON-decoded snapshots. The seeds (testdata/fuzz/FuzzMergeSnapshots)
// are two nodes whose histograms share their bounds and two whose bounds
// differ. Whatever the bytes, the merge must not panic, must return an error
// exactly when two histograms of one series have different bounds, and must
// never fold such a histogram into the series: each merged series carries
// the bounds of its first point and the bucket counts of the points that
// align with it.
func FuzzMergeSnapshots(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		var snaps []NodeSnapshot
		if json.Unmarshal(b, &snaps) != nil {
			return
		}
		type group struct {
			first  MetricPoint
			counts []uint64
		}
		groups := make(map[string]*group)
		misaligned := false
		for _, snap := range snaps {
			for _, p := range snap.Metrics {
				key, _ := mergeKey(p, snap.Node)
				g := groups[key]
				if g == nil {
					g = &group{first: p}
					for _, bc := range p.Buckets {
						g.counts = append(g.counts, bc.Count)
					}
					groups[key] = g
					continue
				}
				if p.Kind != "histogram" {
					continue
				}
				if !sameBounds(g.first.Buckets, p.Buckets) {
					misaligned = true
					continue
				}
				for i, bc := range p.Buckets {
					g.counts[i] += bc.Count
				}
			}
		}

		merged, err := MergeMetrics(snaps)
		if misaligned != (err != nil) {
			t.Fatalf("misaligned histograms: %v, but MergeMetrics returned error %v", misaligned, err)
		}
		keys := make([]string, 0, len(groups))
		for key := range groups {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		if len(merged) != len(keys) {
			t.Fatalf("%d merged series, want one per series name and labels: %d", len(merged), len(keys))
		}
		for i, key := range keys {
			g, got := groups[key], merged[i]
			if got.Name != g.first.Name || len(got.Buckets) != len(g.counts) {
				t.Fatalf("series %s: merged %s with %d buckets, want %d", key, got.Name, len(got.Buckets), len(g.counts))
			}
			for j, bc := range got.Buckets {
				want := g.first.Buckets[j]
				if math.Float64bits(float64(bc.UpperBound)) != math.Float64bits(float64(want.UpperBound)) || bc.Count != g.counts[j] {
					t.Fatalf("series %s bucket %d = %+v, want bound %v count %d", key, j, bc, want.UpperBound, g.counts[j])
				}
			}
		}
	})
}

// sameBounds is the alignment MergeMetrics requires: as many buckets, and
// equal upper bounds (a NaN bound equals nothing).
func sameBounds(a, b []BucketCount) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].UpperBound != b[i].UpperBound {
			return false
		}
	}
	return true
}
