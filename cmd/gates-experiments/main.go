// Command gates-experiments regenerates the tables and figures of the GATES
// paper's evaluation (Section 5) and the ablation studies DESIGN.md defines.
//
// Usage:
//
//	gates-experiments [-exp all|fig5|fig6|fig7|fig8|fig9|ablations|ext|migration|latency|constriction|policy|chaos] [-quick] [-scale N] [-seed N] [-parallel N]
//
// -exp latency sweeps the trace sampling rate, measuring the hot-path
// observability tax and the end-to-end latency quantiles, and prints them
// as a table. -exp
// constriction runs a pipeline with one deliberately slow stage and checks
// that the backpressure attribution engine names it. -exp policy runs the
// bandwidth-collapse scenario under a lax policy v1, hot-reloads a
// tightened v2 mid-run, and shows the journal proving which policy
// version moved the placement. -exp chaos kills the node hosting a
// summarizer mid-stream under an armed checkpoint/recovery plane and
// compares coverage and accuracy against a fault-free run.
//
// Absolute times are virtual seconds on the emulated grid; the shapes (who
// wins, by what factor, where adaptation converges) are the reproduction
// target. See EXPERIMENTS.md for the paper-vs-measured record.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/gates-middleware/gates/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "which artifact to regenerate: all, fig5, fig6, fig7, fig8, fig9, ablations, ext, migration, latency, constriction, policy, chaos")
		quick   = flag.Bool("quick", false, "shrink workloads ~4x (shapes survive, absolute numbers shift)")
		scale   = flag.Float64("scale", 0, "virtual seconds per wall second (0 = per-experiment default)")
		seed    = flag.Int64("seed", 0, "workload seed (0 = default)")
		par     = flag.Int("parallel", 0, "worker pool for independent trials/cells (0 = GOMAXPROCS, 1 = sequential)")
		jsonOut = flag.String("json", "", "also write a machine-readable report (implies -exp all) to this file")
	)
	flag.Parse()

	cfg := experiments.Config{Scale: *scale, Seed: *seed, Quick: *quick, Parallelism: *par}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "gates-experiments:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*exp, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "gates-experiments:", err)
		os.Exit(1)
	}
}

func writeJSON(path string, cfg experiments.Config) error {
	rep, err := experiments.RunAll(cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := rep.WriteJSON(f); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

func run(exp string, cfg experiments.Config) error {
	out := os.Stdout
	wantAll := exp == "all"

	if wantAll || exp == "fig5" {
		res, err := experiments.Figure5(cfg)
		if err != nil {
			return err
		}
		res.Render(out)
		fmt.Fprintln(out)
	}
	if wantAll || exp == "fig6" || exp == "fig7" {
		res, err := experiments.Figure67(cfg)
		if err != nil {
			return err
		}
		if wantAll || exp == "fig6" {
			res.RenderTime(out)
			fmt.Fprintln(out)
		}
		if wantAll || exp == "fig7" {
			res.RenderAccuracy(out)
			fmt.Fprintln(out)
		}
	}
	if wantAll || exp == "fig8" {
		res, err := experiments.Figure8(cfg)
		if err != nil {
			return err
		}
		res.Render(out)
		fmt.Fprintln(out)
	}
	if wantAll || exp == "fig9" {
		res, err := experiments.Figure9(cfg)
		if err != nil {
			return err
		}
		res.Render(out)
		fmt.Fprintln(out)
	}
	if wantAll || exp == "ablations" {
		studies := []func(experiments.Config) (*experiments.AblationResult, error){
			experiments.AblationDownstreamSign,
			experiments.AblationPhi2,
			experiments.AblationWeights,
			experiments.AblationWindow,
			experiments.AblationInterval,
			experiments.AblationCongestionPriority,
		}
		for _, study := range studies {
			res, err := study(cfg)
			if err != nil {
				return err
			}
			res.Render(out)
			fmt.Fprintln(out)
		}
	}
	if wantAll || exp == "ext" {
		scaling, err := experiments.ExtScalingSources(cfg)
		if err != nil {
			return err
		}
		scaling.Render(out)
		fmt.Fprintln(out)
		hier, err := experiments.ExtHierarchy(cfg)
		if err != nil {
			return err
		}
		hier.Render(out)
		fmt.Fprintln(out)
	}
	if wantAll || exp == "migration" {
		res, err := experiments.ExpMigration(cfg)
		if err != nil {
			return err
		}
		res.Render(out)
		fmt.Fprintln(out)
	}
	if exp == "latency" {
		res, err := experiments.ExpLatency(cfg)
		if err != nil {
			return err
		}
		res.Render(out)
	}
	if exp == "constriction" {
		res, err := experiments.ExpConstriction(cfg)
		if err != nil {
			return err
		}
		res.Render(out)
	}
	if exp == "policy" {
		res, err := experiments.ExpPolicy(cfg)
		if err != nil {
			return err
		}
		res.Render(out)
	}
	if exp == "chaos" {
		res, err := experiments.ExpChaos(cfg)
		if err != nil {
			return err
		}
		res.Render(out)
	}
	switch exp {
	case "all", "fig5", "fig6", "fig7", "fig8", "fig9", "ablations", "ext", "migration", "latency", "constriction", "policy", "chaos":
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}
