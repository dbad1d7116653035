// Command gates-experiments regenerates the tables and figures of the GATES
// paper's evaluation (Section 5) and the ablation studies DESIGN.md defines.
//
// Usage:
//
//	gates-experiments [-exp all|fig5|fig6|fig7|fig8|fig9|ablations|ext|migration|constriction|policy|chaos] [-quick] [-scale N] [-seed N] [-parallel N]
//
// -exp constriction runs a pipeline with one deliberately slow stage and checks
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
	"io"
	"os"

	"github.com/gates-middleware/gates/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "which artifact to regenerate: all, fig5, fig6, fig7, fig8, fig9, ablations, ext, migration, constriction, policy, chaos")
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

// show prints one experiment's table and a blank line, or returns the error
// that stopped the experiment.
func show[R interface{ Render(io.Writer) }](res R, err error) error {
	if err != nil {
		return err
	}
	res.Render(os.Stdout)
	fmt.Println()
	return nil
}

func run(exp string, cfg experiments.Config) error {
	switch exp {
	case "all", "fig5", "fig6", "fig7", "fig8", "fig9", "ablations", "ext", "migration":
	case "constriction":
		return show(experiments.ExpConstriction(cfg))
	case "policy":
		return show(experiments.ExpPolicy(cfg))
	case "chaos":
		return show(experiments.ExpChaos(cfg))
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	all := exp == "all"
	if all || exp == "fig5" {
		if err := show(experiments.Figure5(cfg)); err != nil {
			return err
		}
	}
	if all || exp == "fig6" || exp == "fig7" {
		res, err := experiments.Figure67(cfg)
		if err != nil {
			return err
		}
		if all || exp == "fig6" {
			res.RenderTime(os.Stdout)
			fmt.Println()
		}
		if all || exp == "fig7" {
			res.RenderAccuracy(os.Stdout)
			fmt.Println()
		}
	}
	if all || exp == "fig8" {
		if err := show(experiments.Figure8(cfg)); err != nil {
			return err
		}
	}
	if all || exp == "fig9" {
		if err := show(experiments.Figure9(cfg)); err != nil {
			return err
		}
	}
	if all || exp == "ablations" {
		studies, err := experiments.Ablations(cfg)
		if err != nil {
			return err
		}
		for _, res := range studies {
			res.Render(os.Stdout)
			fmt.Println()
		}
	}
	if all || exp == "ext" {
		if err := show(experiments.ExtScalingSources(cfg)); err != nil {
			return err
		}
		if err := show(experiments.ExtHierarchy(cfg)); err != nil {
			return err
		}
	}
	if all || exp == "migration" {
		return show(experiments.ExpMigration(cfg))
	}
	return nil
}
