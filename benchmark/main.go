// Command benchmark is the repository's performance benchmark: four pinned
// workloads driven through the public surface (Session, Cluster, the HTTP
// service), three end-to-end metrics per workload, and — in a separate
// traced run — a per-layer ledger measured from outside. See README.md.
//
//	benchmark --workload powerlaw-mem --seed 2021 --seconds 8 --trace 0
//	benchmark --workload all --seed 2021 --out run1.json
//	benchmark --check run1.json run2.json
//
// The last line of standard output of a single-workload run is one JSON
// object {correct, attempted, failed, metrics}; everything before it is
// for people.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"time"
)

const schemaVersion = "ebv-benchmark/1"

// metricDef names a metric, its unit and which way is better.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a caller of the system sees. BENCHMARK.json
// holds their regression bounds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cycle_s", "s", "lower"},
	{"replication_factor", "ratio", "lower"},
}

// perLayer are the traced run's metrics, one group per module of the
// repository. A row that a workload's path does not touch reads 0.
var perLayer = []metricDef{
	{"graph.parse_s", "s", "lower"},
	{"graph.parse_mb_per_s", "MB/s", "higher"},
	{"core.partition_s", "s", "lower"},
	{"core.edges_per_s", "1/s", "higher"},
	{"partition.metrics_s", "s", "lower"},
	{"partition.rf", "ratio", "lower"},
	{"partition.eif", "ratio", "lower"},
	{"partition.vif", "ratio", "lower"},
	{"bsp.build_s", "s", "lower"},
	{"bsp.run_mem_s", "s", "lower"},
	{"bsp.run_tcp_s", "s", "lower"},
	{"bsp.steps", "count", "lower"},
	{"bsp.rows_emitted", "count", "lower"},
	{"bsp.rows_wire", "count", "lower"},
	{"bsp.rows_delivered", "count", "lower"},
	{"bsp.comp_s", "s", "lower"},
	{"bsp.comm_s", "s", "lower"},
	{"bsp.sync_s", "s", "lower"},
	{"bsp.max_mean_ratio", "ratio", "lower"},
	{"apps.CC.job_s", "s", "lower"},
	{"apps.PR.job_s", "s", "lower"},
	{"apps.SSSP.job_s", "s", "lower"},
	{"apps.AGG.job_s", "s", "lower"},
	{"transport.wire_bytes", "B", "lower"},
	{"transport.tcp_minus_mem_s", "s", "lower"},
	{"transport.small.rows_per_s", "1/s", "higher"},
	{"transport.wide.rows_per_s", "1/s", "higher"},
	{"transport.coalesce_rows_per_s", "1/s", "higher"},
	{"transport.merge_rows_per_s", "1/s", "higher"},
	{"cluster.register_ship_s", "s", "lower"},
	{"cluster.job_overhead_s", "s", "lower"},
	{"cluster.attempts", "count", "lower"},
	{"serve.queue_s", "s", "lower"},
	{"serve.run_s", "s", "lower"},
	{"serve.http_overhead_s", "s", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.warm_s", "s", "lower"},
	{"live.apply_s", "s", "lower"},
	{"live.parts_patched", "count", "lower"},
	{"live.parts_rebuilt", "count", "lower"},
	{"live.rf_drift", "ratio", "lower"},
	{"trace_overhead_s", "s", "lower"},
}

// envInfo records where a result set was measured.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func currentEnv() envInfo {
	env := envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// runRecord is one run of one workload in a result file.
type runRecord struct {
	Workload     string             `json:"workload"`
	Why          string             `json:"why"`
	Seed         uint64             `json:"seed"`
	Seconds      float64            `json:"seconds"`
	Scale        float64            `json:"scale"`
	Trace        bool               `json:"trace"`
	Plan         samplePlan         `json:"plan"`
	Inputs       []*graphInput      `json:"inputs"`
	InputsS      float64            `json:"inputs_s"`
	WallS        float64            `json:"wall_s"`
	OpsAttempted int                `json:"ops_attempted"`
	OpsFailed    int                `json:"ops_failed"`
	Metrics      map[string]summary `json:"metrics"`
}

// resultFile is what --out writes and --check reads.
type resultFile struct {
	Schema string      `json:"schema"`
	Env    envInfo     `json:"env"`
	Runs   []runRecord `json:"runs"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "all", "workload to run: all, or one of "+fmt.Sprint(workloadNames()))
		seed      = fs.Uint64("seed", 2021, "seed every input is generated from")
		seconds   = fs.Float64("seconds", 8, "wall time of the timed cycle phase, per workload")
		trace     = fs.String("trace", "0", "1 runs the traced run and reports the per-layer metrics instead")
		scale     = fs.Float64("scale", 1, "input size multiplier (tests use 0.02)")
		out       = fs.String("out", "", "result file to write (default .bench_build/results/<workload>-<seed>-trace<t>.json)")
		work      = fs.String("dir", ".bench_build", "directory for generated inputs, traces and default results")
		check     = fs.Bool("check", false, "compare two result files: --check a.json b.json")
		benchJSON = fs.String("bench-json", "BENCHMARK.json", "where --check reads the regression bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *check {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark --check a.json b.json")
			return 2
		}
		return runCheck(stdout, stderr, *benchJSON, fs.Arg(0), fs.Arg(1))
	}
	traced, err := strconv.ParseBool(*trace)
	if err != nil || fs.NArg() != 0 || *seconds <= 0 || *scale <= 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments (see --help)")
		return 2
	}

	var selected []*workload
	if *name == "all" {
		selected = workloads
	} else if w := workloadByName(*name); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %v)\n", *name, workloadNames())
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opt := options{seed: *seed, seconds: *seconds, scale: *scale, trace: traced, outDir: *work, log: stdout}
	file := resultFile{Schema: schemaVersion, Env: currentEnv()}
	fmt.Fprintf(stdout, "env: nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s\n", file.Env.NProc, file.Env.GOMAXPROCS,
		file.Env.GoVersion, file.Env.GOOS, file.Env.GOARCH, file.Env.Commit)
	for _, w := range selected {
		dir, err := scratchDir(*work)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		opt.dir = dir
		rec, err := runWorkload(ctx, w, opt)
		os.RemoveAll(dir)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		file.Runs = append(file.Runs, *rec)
	}

	path := *out
	if path == "" {
		path = filepath.Join(*work, "results", fmt.Sprintf("%s-%d-trace%s.json", *name, *seed, *trace))
	}
	if err := writeResultFile(path, &file); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "results: %s\n", path)

	// The contract line: totals over the workloads run, and the metrics of
	// the (single) workload.
	attempted, failed := 0, 0
	for _, r := range file.Runs {
		attempted, failed = attempted+r.OpsAttempted, failed+r.OpsFailed
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]lineValue `json:"metrics"`
	}{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]lineValue{}}
	if len(file.Runs) == 1 {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for _, d := range defs {
			line.Metrics[d.Name] = lineValue{file.Runs[0].Metrics[d.Name].Value, d.Unit}
		}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	if failed > 0 {
		return 1
	}
	return 0
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runWorkload generates the inputs (off the clock, reported as
// inputs_s), runs the measurement rounds and — traced — the layer ledger
// and the transport kernels, and assembles the run's record.
func runWorkload(ctx context.Context, w *workload, opt options) (*runRecord, error) {
	start := time.Now()
	fmt.Fprintf(opt.log, "== %s (seed %d, %.0fs, scale %g, trace %v)\n   %s\n", w.name, opt.seed, opt.seconds, opt.scale, opt.trace, w.why)
	in, err := w.inputs(opt.dir, opt.seed, opt.scale)
	if err != nil {
		return nil, fmt.Errorf("%s: inputs: %w", w.name, err)
	}
	rec := &runRecord{
		Workload: w.name, Why: w.why, Seed: opt.seed, Seconds: opt.seconds, Scale: opt.scale, Trace: opt.trace, Plan: w.plan(),
		Inputs: in.graphs, InputsS: time.Since(start).Seconds(), Metrics: make(map[string]summary),
	}
	for _, g := range in.graphs {
		fmt.Fprintf(opt.log, "  input %-9s |V|=%d |E|=%d %d bytes sha256=%s\n", g.Name, g.Vertices, g.Edges, g.Bytes, g.SHA256[:16])
	}
	fmt.Fprintf(opt.log, "  inputs_s %.3f (excluded from setup_s)\n", rec.InputsS)

	var tr *tracer
	if opt.trace {
		tr = newTracer(w.name)
	}
	st, err := runRounds(ctx, w, in, opt, tr)
	if err != nil {
		return nil, err
	}
	rec.OpsAttempted, rec.OpsFailed = st.attempted, st.failed
	rec.Metrics["setup_s"] = summarize(st.setup, "s", "lower")
	rec.Metrics["cycle_s"] = summarize(st.cycle, "s", "lower")
	rec.Metrics["replication_factor"] = exact(st.rf, "ratio", "lower")

	if opt.trace {
		ledger, err := runLedger(ctx, tr, w, in)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		rec.OpsAttempted, rec.OpsFailed = rec.OpsAttempted+ledger.attempted, rec.OpsFailed+ledger.failed
		if err := runKernels(ctx, tr); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		layerMetrics(rec, st, tr, ledger)
		if gap := tr.printSelfTable(opt.log); gap > 0.05 {
			return nil, fmt.Errorf("%s: layer self times are %.1f%% off the traced setup+cycle total", w.name, 100*gap)
		}
		printShares(opt.log, rec, w.tcp)
		path := filepath.Join(opt.outDir, "results", "trace-"+w.name+".json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if err := tr.writeChrome(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(opt.log, "  trace: %s\n", path)
	}
	rec.WallS = time.Since(start).Seconds()
	printMetrics(opt.log, rec)
	return rec, nil
}

// layerMetrics fills the per-layer rows from the traced rounds, the
// ledger and the kernels.
func layerMetrics(rec *runRecord, st *runStats, tr *tracer, c ledgerResult) {
	dur, obs := tr.durations(), tr.observed
	samples := func(name string) []float64 {
		if xs := dur[name]; len(xs) > 0 {
			return xs
		}
		return obs[name]
	}
	timing := func(metric, source string) {
		d := defOf(metric)
		rec.Metrics[metric] = summarize(samples(source), d.Unit, d.Better)
	}
	count := func(metric string, v float64) {
		d := defOf(metric)
		rec.Metrics[metric] = exact(v, d.Unit, d.Better)
	}
	// derived is a single value computed from medians: no spread, not exact.
	derived := func(metric string, v float64) {
		count(metric, v)
		s := rec.Metrics[metric]
		s.Exact = false
		rec.Metrics[metric] = s
	}
	timing("graph.parse_s", "graph.parse")
	timing("graph.parse_mb_per_s", "graph.parse_mb_per_s")
	timing("core.partition_s", "core.partition")
	timing("core.edges_per_s", "core.edges_per_s")
	timing("partition.metrics_s", "partition.metrics")
	count("partition.rf", c.rf)
	count("partition.eif", c.eif)
	count("partition.vif", c.vif)
	timing("bsp.build_s", "bsp.build")
	timing("bsp.run_mem_s", "bsp.run_mem_s")
	timing("bsp.run_tcp_s", "bsp.run_tcp_s")
	count("bsp.steps", float64(c.steps))
	count("bsp.rows_emitted", float64(c.emitted))
	count("bsp.rows_wire", float64(c.wire))
	count("bsp.rows_delivered", float64(c.delivered))
	timing("bsp.comp_s", "bsp.comp_s")
	timing("bsp.comm_s", "bsp.comm_s")
	timing("bsp.sync_s", "bsp.sync_s")
	count("bsp.max_mean_ratio", c.maxMean)
	for _, app := range []string{"CC", "PR", "SSSP", "AGG"} {
		timing("apps."+app+".job_s", "apps."+app)
	}
	count("transport.wire_bytes", float64(c.wireBytes))
	derived("transport.tcp_minus_mem_s", median(obs["bsp.run_tcp_s"])-median(obs["bsp.run_mem_s"]))
	timing("transport.small.rows_per_s", "transport.small.rows_per_s")
	timing("transport.wide.rows_per_s", "transport.wide.rows_per_s")
	timing("transport.coalesce_rows_per_s", "transport.coalesce_rows_per_s")
	timing("transport.merge_rows_per_s", "transport.merge_rows_per_s")

	timing("cluster.register_ship_s", "cluster.register_ship")
	overhead := 0.0
	if xs := obs["cluster.job_s.PR"]; len(xs) > 0 {
		overhead = median(xs) - median(dur["bsp.run_tcp.PR"])
	}
	derived("cluster.job_overhead_s", overhead)
	attempts := 0.0
	if xs := obs["cluster.attempts"]; len(xs) > 0 {
		attempts = slices.Max(xs)
	}
	count("cluster.attempts", attempts)

	timing("serve.queue_s", "serve.queue_s")
	timing("serve.run_s", "serve.run_s")
	timing("serve.http_overhead_s", "serve.http_overhead_s")
	count("serve.rejected", float64(len(obs["serve.rejected"])))
	timing("serve.warm_s", "serve.warm")
	timing("live.apply_s", "live.apply_s")
	timing("live.parts_patched", "live.parts_patched")
	timing("live.parts_rebuilt", "live.parts_rebuilt")
	drift := 0.0
	if xs := obs["live.rf_drift"]; len(xs) > 0 {
		drift = xs[len(xs)-1]
	}
	derived("live.rf_drift", drift)

	rec.Metrics["traced_setup_s"] = summarize(st.tracedSetup, "s", "lower")
	rec.Metrics["traced_cycle_s"] = summarize(st.tracedCycle, "s", "lower")
	derived("trace_overhead_s", median(st.tracedSetup)+median(st.tracedCycle)-median(st.setup)-median(st.cycle))
}

// defOf looks a metric's unit and direction up by name.
func defOf(name string) metricDef {
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if d.Name == name {
			return d
		}
	}
	return metricDef{Name: name}
}

// printShares prints the figures that show the workloads separate the
// layers: the partitioner's share of set-up, and how a ledger cycle on
// the workload's own mesh divides. The per-worker view is the paper's
// (mean comp, comm, sync per worker); with K workers on fewer cores most
// of a worker's sync is waiting for peers that wait for a core, so the
// core-seconds view — summed busy time over cores × wall, the rest being
// barrier idle, job set-up and result assembly — is printed beside it.
func printShares(w io.Writer, rec *runRecord, tcp bool) {
	m := rec.Metrics
	layerSetup := m["graph.parse_s"].Value + m["core.partition_s"].Value + m["partition.metrics_s"].Value + m["bsp.build_s"].Value
	if layerSetup > 0 {
		fmt.Fprintf(w, "  ledger set-up: core.partition_s is %.1f%% of parse+partition+metrics+build\n",
			100*m["core.partition_s"].Value/layerSetup)
	}
	comp, comm, wait := m["bsp.comp_s"].Value, m["bsp.comm_s"].Value, m["bsp.sync_s"].Value
	if busy := comp + comm + wait; busy > 0 {
		fmt.Fprintf(w, "  ledger cycle, per worker: comp %.1f%% comm %.1f%% sync %.1f%% (comm+sync %.1f%%)\n",
			100*comp/busy, 100*comm/busy, 100*wait/busy, 100*(comm+wait)/busy)
	}
	run := m["bsp.run_mem_s"].Value
	if tcp {
		run = m["bsp.run_tcp_s"].Value
	}
	if cores := float64(min(runtime.GOMAXPROCS(0), K)); run > 0 {
		// Over sockets a worker's comm time includes blocking on its
		// peers' frames, so it can only claim what compute left over.
		compute := min(comp*K/cores, run)
		exchange := min(comm*K/cores, run-compute)
		fmt.Fprintf(w, "  ledger cycle, core-seconds: compute %.1f%% exchange %.1f%% other %.1f%% of %d cores x %.3fs\n",
			100*compute/run, 100*exchange/run, 100*(run-compute-exchange)/run, int(cores), run)
	}
}

// printMetrics prints every metric of the run by name and unit, with
// its quartiles and sample count beside the median.
func printMetrics(w io.Writer, rec *runRecord) {
	names := make([]string, 0, len(rec.Metrics))
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if _, ok := rec.Metrics[d.Name]; ok {
			names = append(names, d.Name)
		}
	}
	for _, extra := range []string{"traced_setup_s", "traced_cycle_s"} {
		if _, ok := rec.Metrics[extra]; ok {
			names = append(names, extra)
		}
	}
	fmt.Fprintf(w, "  %-30s %14s %-6s %5s %14s %14s  %s\n", "metric", "median", "unit", "n", "q1", "q3", "tail")
	for _, n := range names {
		s := rec.Metrics[n]
		tail := ""
		if s.TailPct > 0 {
			tail = fmt.Sprintf("p%.1f=%.6g", s.TailPct, s.Tail)
		}
		if s.Exact {
			tail = "exact"
		}
		fmt.Fprintf(w, "  %-30s %14.6g %-6s %5d %14.6g %14.6g  %s\n", n, s.Value, s.Unit, s.N, s.Q1, s.Q3, tail)
	}
	fmt.Fprintf(w, "  ops_attempted %d ops_failed %d wall_s %.1f\n", rec.OpsAttempted, rec.OpsFailed, rec.WallS)
}

func writeResultFile(path string, file *resultFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file resultFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if file.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, file.Schema, schemaVersion)
	}
	return &file, nil
}
