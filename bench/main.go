// Command bench is the repository's benchmark: five workloads, each run in a
// process of its own, reporting the end-to-end metrics BENCHMARK.json gates
// on and, in a traced run, the per-layer metrics that explain them.
//
//	bash bench/run.sh --workload tcp-sat --seed 7 --seconds 15 --trace 0
//	bash bench/run.sh                  # every workload, then every traced run
//	bash bench/run.sh -aa 10           # two interleaved sets of 10 runs, compared
//
// See README.md in this directory for what each workload and metric means.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

// hardStop ends a run that has hung (a lost packet would leave the latency
// probe waiting for ever) before the acceptance harness's own limit does.
const hardStop = 170 * time.Second

func main() {
	var (
		o    options
		name = flag.String("workload", "", "run this workload in this process (default: run them all, one child process each)")
		tr   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		aa   = flag.Int("aa", 0, "run the suite as two interleaved sets of this many runs (at least 5) and compare them")
	)
	flag.Int64Var(&o.seed, "seed", 20040607, "payload seed")
	flag.Float64Var(&o.seconds, "seconds", 15, "measuring time per workload run")
	flag.BoolVar(&o.smoke, "smoke", false, "a hundredth of the warm-up work and no CPU pinning, for quick checks of the harness")
	flag.StringVar(&o.outDir, "out", "out", "directory for result and trace files")
	flag.Parse()
	o.trace = *tr != 0

	if err := run(o, *name, *aa); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, name string, aa int) error {
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds %v must be positive", o.seconds)
	}
	switch {
	case aa != 0:
		if aa < 5 {
			return fmt.Errorf("-aa %d: a quartile needs at least 5 runs per set", aa)
		}
		return runAA(o, aa)
	case name == "":
		return runSuite(o)
	}
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	time.AfterFunc(hardStop, func() {
		fmt.Fprintln(os.Stderr, "bench: run exceeded", hardStop)
		os.Exit(3)
	})
	r, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	if err := r.save(o.outDir); err != nil {
		return err
	}
	if err := r.print(os.Stdout); err != nil {
		return err
	}
	if !r.Correct {
		return fmt.Errorf("%s: %d of %d operations failed verification", w.name, r.Failed, r.Attempted)
	}
	return nil
}
