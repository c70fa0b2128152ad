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
//
// With -serve it instead load-tests a running ebv-serve instance and
// writes a BENCH_serve.json report (jobs/sec, latency percentiles,
// reject rate):
//
//	ebv-bench -serve http://127.0.0.1:8080 -serve-graph social \
//	    -qps 40 -duration 10s -mix cc:5,pr:3,sssp:2 -out BENCH_serve.json
//
// With -live it streams edge mutations into an open session (inserts
// assigned online, affected subgraphs patched incrementally), interleaved
// with CC/PR jobs, asserts the streamed session computes byte-identical
// results to a freshly built one, and writes a BENCH_live.json report
// (patch latency vs full rebuild, warm-start speedup, RF drift):
//
//	ebv-bench -live -live-mutations 10000 -live-verify -out BENCH_live.json
package main

import (
	"context"
	"encoding/json"
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
	"ebv/internal/serve"
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
		par      = flag.Int("parallelism", 0, "CPUs for the subgraph-build passes (0 = GOMAXPROCS)")
		combine  = flag.String("combine", "off", "message combining in the BSP runs: off (paper-faithful counts) | auto (each app's natural combiner)")

		liveMode      = flag.Bool("live", false, "run the live-graph mutation bench instead of experiments (writes -out)")
		liveVertices  = flag.Int("live-vertices", 20000, "live mode: vertex count")
		liveEdges     = flag.Int("live-edges", 120000, "live mode: initial edge count (held-out edges become inserts)")
		liveMutations = flag.Int("live-mutations", 10000, "live mode: total mutation stream length (80% inserts, 20% deletes)")
		liveBatch     = flag.Int("live-batch", 500, "live mode: mutations per Apply batch")
		liveK         = flag.Int("live-k", 8, "live mode: subgraph count")
		livePolicy    = flag.String("live-policy", "ebv", "live mode: streaming assignment policy (ebv | hdrf | fennel)")
		liveTCP       = flag.Bool("live-tcp", false, "live mode: run jobs over the TCP loopback mesh")
		liveVerify    = flag.Bool("live-verify", false, "live mode: cross-check every incremental patch against a full rebuild")

		serveURL     = flag.String("serve", "", "load-test a running ebv-serve at this base URL instead of running experiments")
		serveGraph   = flag.String("serve-graph", "", "graph name to target in -serve mode")
		qps          = flag.Float64("qps", 20, "offered request rate in -serve mode")
		duration     = flag.Duration("duration", 10*time.Second, "load duration in -serve mode")
		mixSpec      = flag.String("mix", "cc:5,pr:3,sssp:2", "weighted app mix in -serve mode, e.g. cc:5,pr:3,sssp:2")
		out          = flag.String("out", "", "report path in -serve/-live mode ('-' for stdout; default BENCH_serve.json / BENCH_live.json)")
		serveTimeout = flag.Duration("serve-timeout", 30*time.Second, "per-request timeout in -serve mode")
		source       = flag.Int64("source", 0, "SSSP/WSSSP source vertex in -serve mode")
	)
	flag.Parse()
	if *combine != "auto" && *combine != "off" {
		return fmt.Errorf("invalid -combine %q (valid: auto, off)", *combine)
	}

	if *liveMode {
		return liveBench(ctx, liveArgs{
			vertices: *liveVertices, edges: *liveEdges, mutations: *liveMutations,
			batch: *liveBatch, k: *liveK, policy: *livePolicy,
			tcp: *liveTCP, verify: *liveVerify, seed: *seed, out: reportPath(*out, true),
		})
	}

	if *serveURL != "" {
		return serveLoad(ctx, serveLoadArgs{
			url: *serveURL, graph: *serveGraph, mix: *mixSpec, out: reportPath(*out, false),
			qps: *qps, duration: *duration, timeout: *serveTimeout, source: *source,
		})
	}

	if *list {
		for _, name := range ebv.ExperimentNames() {
			fmt.Println(name)
		}
		return nil
	}

	opt := ebv.ExperimentOptions{
		Scale: *scale, Seed: *seed, PageRankIters: *iters,
		Extended: *extended, Repeat: *repeat, Parallelism: *par,
		Combine: *combine == "auto",
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

// reportPath resolves -out: an explicit path wins in either mode, an unset
// one means the mode's own default report name.
func reportPath(out string, live bool) string {
	switch {
	case out != "":
		return out
	case live:
		return "BENCH_live.json"
	default:
		return "BENCH_serve.json"
	}
}

type serveLoadArgs struct {
	url, graph, mix, out string
	qps                  float64
	duration             time.Duration
	timeout              time.Duration
	source               int64
}

// serveLoad drives a running ebv-serve instance and writes the
// BENCH_serve.json report. It exits non-zero when the run completed no
// jobs or failed any — which is exactly the CI smoke assertion.
func serveLoad(ctx context.Context, args serveLoadArgs) error {
	if args.graph == "" {
		return errors.New("-serve mode needs -serve-graph")
	}
	mix, err := serve.ParseMix(args.mix)
	if err != nil {
		return err
	}
	report, err := serve.RunLoad(ctx, serve.LoadConfig{
		BaseURL:  args.url,
		Graph:    args.graph,
		Mix:      mix,
		QPS:      args.qps,
		Duration: args.duration,
		Timeout:  args.timeout,
		Source:   args.source,
		Warmup:   true,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "ebv-bench: "+format+"\n", a...)
		},
	})
	if err != nil {
		return err
	}
	if err := writeReport(args.out, report); err != nil {
		return err
	}
	if report.Completed == 0 {
		return errors.New("load run completed zero jobs")
	}
	if report.Failed > 0 {
		return fmt.Errorf("load run had %d failed jobs (first errors: %s)",
			report.Failed, strings.Join(report.Errors, "; "))
	}
	return nil
}

// writeReport marshals the report to path ('-' for stdout), joining any
// close error into the result so a full disk is not silently ignored.
func writeReport(path string, report any) (err error) {
	payload, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	payload = append(payload, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(payload)
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	_, err = f.Write(payload)
	return err
}
