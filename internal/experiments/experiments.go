// Package experiments regenerates every table and figure in Section 5 of
// the GATES paper on top of the full middleware stack (grid directory →
// deployer → launcher → pipeline engine → self-adaptation), with the
// emulated network standing in for the authors' delay-injected cluster and
// a virtual clock compressing their multi-minute runs into seconds.
//
// Each FigureN function returns a typed result whose Render method prints
// the same rows or series the paper reports:
//
//   - Figure5: centralized vs distributed count-samps (time + accuracy).
//   - Figure6 / Figure7: execution time / accuracy of five count-samps
//     versions across four bandwidths (one shared set of runs).
//   - Figure8: comp-steer sampling-rate convergence under five processing
//     costs.
//   - Figure9: comp-steer sampling-rate convergence under five generation
//     rates through a 10 KB/s link.
//
// Ablations exercises the design choices DESIGN.md calls out (Equation 4
// sign, φ2 variant, weight vector, window size, observation interval,
// congestion priority) as variants of Figure 8's 20 ms/byte cell; Figures 8
// and 9 and the ablations share one comp-steer runner.
package experiments

import "github.com/gates-middleware/gates/internal/workload"

// Config controls how the experiments execute.
type Config struct {
	// Scale is the virtual-seconds-per-wall-second compression.
	// Zero selects per-experiment defaults chosen so every sleep stays
	// comfortably above timer granularity.
	Scale float64
	// Seed drives every workload generator.
	Seed int64
	// Quick shrinks workloads roughly 4× for smoke tests and CI; the
	// shapes survive, the absolute numbers shift.
	Quick bool
	// Parallelism bounds the worker pool running independent trials and
	// config-grid cells. Zero picks GOMAXPROCS (1 under the race
	// detector); 1 forces fully sequential execution. Every trial owns an
	// isolated clock, network, and engine, so seed-deterministic outputs
	// (accuracy, byte counts, converged parameters) are identical at any
	// parallelism; only wall-clock-derived timings vary, as they already
	// do between sequential runs.
	Parallelism int
}

func (c Config) scale(def float64) float64 {
	if c.Scale > 0 {
		return c.Scale
	}
	return def
}

func (c Config) seed() int64 {
	if c.Seed == 0 {
		return 20040607 // HPDC 2004 keynote morning
	}
	return c.Seed
}

// items returns the count-samps items per sub-stream: the paper's 25 000,
// or 6 000 in quick mode.
func (c Config) items() int {
	if c.Quick {
		return 6_000
	}
	return 25_000
}

// zipfStreams builds the evaluation workload: n sub-streams of
// itemsPerStream Zipf-distributed integers, plus the merged ground truth.
// The paper does not specify its distribution; the skew is calibrated so a
// 100-item summary per source reproduces Figure 5's 97-accuracy regime
// (heavier-tailed streams churn the counting-samples threshold and push
// distributed accuracy lower — Figure 7's small-summary cells show that
// effect within the calibrated workload). The paper observes "with larger
// number of data sources ... a larger difference can be expected"; the
// scaling extension measures that with n > 4.
func zipfStreams(seed int64, n, itemsPerStream int) ([][]int, map[int]int) {
	streams := make([][]int, n)
	parts := make([]map[int]int, n)
	for i := range streams {
		streams[i] = workload.Take(workload.NewZipf(seed+int64(i)*101, 1.5, 50_000), itemsPerStream)
		parts[i] = workload.Counts(streams[i])
	}
	return streams, workload.MergeCounts(parts...)
}
