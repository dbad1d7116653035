package obs

import "math"

// LatencyBuckets is the log-spaced (HDR-style) bucketing used by the
// end-to-end latency histograms: latencyBucketsPerDecade bounds per decade
// from 10µs to 1000s of virtual time. The growth factor between adjacent
// bounds is 10^(1/16) ≈ 1.155, so a quantile interpolated inside one bucket
// is within ~±8% of the true value — comfortably inside the ±20% the
// acceptance tests allow — while the whole histogram stays a fixed array of
// latencyBucketCount atomic counters.
var LatencyBuckets = makeLatencyBuckets()

const (
	latencyBucketsPerDecade = 16
	latencyMinExp           = -5 // 10µs
	latencyMaxExp           = 3  // 1000s
)

func makeLatencyBuckets() []float64 {
	n := (latencyMaxExp - latencyMinExp) * latencyBucketsPerDecade
	out := make([]float64, 0, n+1)
	for i := 0; i <= n; i++ {
		exp := float64(latencyMinExp) + float64(i)/latencyBucketsPerDecade
		out = append(out, math.Pow(10, exp))
	}
	return out
}

// QuantileFromBuckets estimates the q-quantile (0 < q <= 1) from cumulative
// buckets, as produced by Histogram.State or carried in a MetricPoint — the
// form the cluster aggregator works in after merging node snapshots — by
// linear interpolation inside the bucket holding the target rank. It
// returns 0 when there are no observations. Values in the +Inf overflow
// bucket clamp to the largest finite bound — percentiles cannot exceed what
// the bucketing can represent.
func QuantileFromBuckets(buckets []BucketCount, count uint64, q float64) float64 {
	if count == 0 || len(buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(count)
	if rank < 1 {
		rank = 1
	}
	var prevBound float64
	var prevCount uint64
	for i, b := range buckets {
		bound := float64(b.UpperBound)
		if float64(b.Count) >= rank {
			if math.IsInf(bound, +1) {
				// Overflow bucket: clamp to the last finite bound.
				if i > 0 {
					return float64(buckets[i-1].UpperBound)
				}
				return 0
			}
			inBucket := b.Count - prevCount
			if inBucket == 0 {
				return bound
			}
			frac := (rank - float64(prevCount)) / float64(inBucket)
			return prevBound + (bound-prevBound)*frac
		}
		prevBound, prevCount = bound, b.Count
	}
	return prevBound
}

// quantilePoints are the percentiles exposition attaches to histograms.
var quantilePoints = []struct {
	Key string
	Q   float64
}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}}

// mergeBuckets adds src's cumulative counts into dst. Both must share the
// same bounds; it returns false on misalignment (different length or
// bounds), which callers surface as a merge error rather than silently
// producing a wrong distribution.
func mergeBuckets(dst, src []BucketCount) bool {
	if len(dst) != len(src) {
		return false
	}
	for i := range dst {
		db, sb := float64(dst[i].UpperBound), float64(src[i].UpperBound)
		if db != sb && !(math.IsInf(db, +1) && math.IsInf(sb, +1)) {
			return false
		}
	}
	for i := range dst {
		dst[i].Count += src[i].Count
	}
	return true
}
