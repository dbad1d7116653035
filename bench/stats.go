package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks (the "inclusive" definition:
// percentile(xs, 0) is the minimum, percentile(xs, 100) the maximum). An
// empty sample yields NaN: a missing measurement must not read as zero.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := math.Floor(pos)
	hi := math.Ceil(pos)
	if lo < 0 {
		return s[0]
	}
	if int(hi) >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - lo
	return s[int(lo)]*(1-frac) + s[int(hi)]*frac
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartile of xs by the rule Python's
// statistics.quantiles(xs, n=4) uses (its default "exclusive" method), which
// is the rule the benchmark's acceptance check applies to a set of runs: the
// i-th cut of m = len(xs) points sits at position i*(m+1)/4 (1-based),
// clamped to the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	m := len(xs)
	if m == 0 {
		return math.NaN(), math.NaN()
	}
	s := sorted(xs)
	if m == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range of xs as a share of its median — the
// run-to-run noise figure every bound in BENCHMARK.json is judged against.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return math.NaN()
	}
	return math.Abs((q3 - q1) / m)
}

// summary is how one metric is reported: the median over the trials (or
// samples) that produced it, with the quartiles and the sample count that
// say how far to trust it.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

func summarize(xs []float64, unit string) summary {
	q1, q3 := quartiles(xs)
	return summary{Value: median(xs), Unit: unit, Q1: q1, Q3: q3, N: len(xs)}
}

// blockMedians cuts xs, in order, into blocks of n and returns each block's
// median; a tail shorter than n is dropped, and a sample shorter than n is
// one block.
func blockMedians(xs []float64, n int) []float64 {
	if len(xs) < n {
		return []float64{median(xs)}
	}
	out := make([]float64, 0, len(xs)/n)
	for i := 0; i+n <= len(xs); i += n {
		out = append(out, median(xs[i:i+n]))
	}
	return out
}
