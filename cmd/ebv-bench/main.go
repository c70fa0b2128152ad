// Command ebv-bench regenerates the paper's tables and figures over the
// scaled synthetic analogues (DESIGN.md §4 maps each experiment to its
// modules; EXPERIMENTS.md records paper-vs-measured).
//
// Usage:
//
//	ebv-bench                      # run everything at the default scale
//	ebv-bench -exp table3          # one experiment
//	ebv-bench -exp fig2 -scale 0.5 # faster
//	ebv-bench -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ebv"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "ebv-bench: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "ebv-bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	var (
		exp      = flag.String("exp", "all", "experiment name or 'all'")
		scale    = flag.Float64("scale", 1.0, "graph size multiplier")
		seed     = flag.Uint64("seed", 2021, "generator seed")
		iters    = flag.Int("pr-iters", 10, "PageRank iterations")
		workers  = flag.String("workers", "", "comma-separated worker counts for the figure sweeps (default 4,8,12,16)")
		list     = flag.Bool("list", false, "list experiments and exit")
		asCSV    = flag.Bool("csv", false, "emit tidy CSV instead of tables")
		extended = flag.Bool("extended", false, "add beyond-the-paper partitioners to the tables")
		repeat   = flag.Int("repeat", 1, "repeats for timing experiments (Table II; reports mean ± stddev)")
	)
	flag.Parse()

	if *list {
		for _, name := range ebv.ExperimentNames() {
			fmt.Println(name)
		}
		return nil
	}

	opt := ebv.ExperimentOptions{
		Scale: *scale, Seed: *seed, PageRankIters: *iters,
		Extended: *extended, Repeat: *repeat,
	}
	if *workers != "" {
		for _, field := range strings.Split(*workers, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(field))
			if err != nil {
				return fmt.Errorf("bad -workers entry %q: %w", field, err)
			}
			opt.Workers = append(opt.Workers, k)
		}
	}

	names := []string{*exp}
	if *exp == "all" {
		names = ebv.ExperimentNames()
	}
	runExperiment := ebv.RunExperiment
	if *asCSV {
		runExperiment = ebv.RunExperimentCSV
	}
	for _, name := range names {
		start := time.Now()
		if err := runExperiment(ctx, name, opt, os.Stdout); err != nil {
			return fmt.Errorf("experiment %s: %w", name, err)
		}
		if !*asCSV {
			fmt.Printf("\n[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}
