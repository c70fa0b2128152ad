// Command ebv-run partitions a graph and executes one or more of the
// registry applications (CC, PR, SSSP, WSSSP, AGG) on the subgraph-centric
// BSP engine, printing the §V-B breakdown (comp / comm / ΔC / execution
// time) and the message statistics of Tables IV and V. It is a thin shell over
// the ebv.Session API: the graph is loaded, partitioned and built ONCE,
// then every requested app runs as a job of that session, so a multi-app
// invocation pays the partition cost a single time and the per-job
// breakdown shows the amortization. Ctrl-C cancels the in-flight stage
// (partitioning or a superstep) and exits cleanly.
//
// Usage:
//
//	ebv-run -in graph.txt -algo EBV -parts 8 -app CC
//	ebv-run -in graph.txt -algo EBV -parts 8 -app cc,pr,sssp
//	ebv-run -in graph.bin -algo METIS -parts 4 -app PR -iters 20
//	ebv-run -in graph.txt -algo EBV -parts 4 -app SSSP -source 0 -transport tcp
//	ebv-run -in graph.txt -algo EBV -parts 4 -app AGG -layers 2 -width 8
//
// Every emitted message row crosses the wire as is: the message counts are
// the paper's raw message plane.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
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
			fmt.Fprintln(os.Stderr, "ebv-run: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "ebv-run:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	var (
		in         = flag.String("in", "", "input graph path (.bin = binary, else text edge list)")
		undirected = flag.Bool("undirected", false, "treat text input as undirected")
		algo       = flag.String("algo", "EBV", "partition algorithm")
		parts      = flag.Int("parts", 8, "number of workers/subgraphs")
		app        = flag.String("app", "CC", "comma-separated applications run as sequential jobs of one session: "+ebv.ProgramNames)
		iters      = flag.Int("iters", 10, "PageRank iterations")
		layers     = flag.Int("layers", 2, "AGG aggregation layers")
		source     = flag.Uint64("source", 0, "SSSP/WSSSP source vertex")
		width      = flag.Int("width", 1, "per-vertex value width (floats per message; AGG aggregates width-wide feature vectors)")
		transport  = flag.String("transport", "mem", "transport: mem | tcp")
		assignPath = flag.String("assignment", "", "load a precomputed assignment (skips partitioning)")
		progress   = flag.Bool("progress", false, "print pipeline stage progress to stderr")
		par        = flag.Int("parallelism", 0, "CPUs for the load and subgraph-build stages (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if *in == "" {
		return errors.New("missing -in (graph path)")
	}
	if *width < 1 {
		return fmt.Errorf("invalid -width %d: the per-vertex value width must be >= 1", *width)
	}

	p, err := ebv.PartitionerByName(*algo)
	if err != nil {
		return err
	}
	params := ebv.ProgramParams{Iterations: *iters, Source: int64(*source), Layers: *layers}
	var progs []ebv.Program
	for _, name := range strings.Split(*app, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		prog, err := ebv.ProgramByName(name, params)
		if err != nil {
			return err
		}
		progs = append(progs, prog)
	}
	if len(progs) == 0 {
		return fmt.Errorf("no applications in -app %q (valid: %s)", *app, ebv.ProgramNames)
	}

	opts := []ebv.PipelineOption{
		ebv.FromEdgeList(*in),
		ebv.UsePartitioner(p),
		ebv.Parallelism(*par),
		ebv.ValueWidth(*width),
	}
	// With -assignment, the subgraph count follows the assignment; pass
	// Subgraphs only when -parts was set explicitly, so an explicit
	// mismatch fails loudly while the default of 8 does not fight a
	// 4-part assignment.
	partsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "parts" {
			partsSet = true
		}
	})
	if *assignPath == "" || partsSet {
		opts = append(opts, ebv.Subgraphs(*parts))
	}
	if *undirected {
		opts = append(opts, ebv.Undirected())
	}
	if *assignPath != "" {
		a, err := readAssignment(*assignPath)
		if err != nil {
			return err
		}
		opts = append(opts, ebv.UseAssignment(a))
	}
	if *transport == "tcp" {
		opts = append(opts, ebv.UseTCPLoopback())
	}
	if *progress {
		opts = append(opts, ebv.OnProgress(func(ev ebv.PipelineProgress) {
			if !ev.Done {
				return
			}
			if ev.Throughput > 0 {
				fmt.Fprintf(os.Stderr, "[%s] done in %v (%s, %.3g edges/s)\n",
					ev.Stage, ev.Elapsed.Round(time.Millisecond), ev.Detail, ev.Throughput)
				return
			}
			fmt.Fprintf(os.Stderr, "[%s] done in %v (%s)\n",
				ev.Stage, ev.Elapsed.Round(time.Millisecond), ev.Detail)
		}))
	}

	// Prepare once (load → partition → build → persistent transport mesh),
	// then serve every requested app as a job of the session.
	s, err := ebv.NewPipeline(opts...).Open(ctx)
	if err != nil {
		return err
	}
	defer s.Close()

	res := s.Prepared()
	fmt.Printf("graph               %s (V=%d, E=%d)\n", *in, res.Graph.NumVertices(), res.Graph.NumEdges())
	fmt.Printf("partition           %s into %d subgraphs in %v (RF %.3f, EIF %.3f, VIF %.3f)\n",
		res.PartitionerName, res.Assignment.K, res.PartitionTime.Round(time.Millisecond),
		res.Metrics.ReplicationFactor, res.Metrics.EdgeImbalance, res.Metrics.VertexImbalance)
	fmt.Printf("prepare             load %v + partition %v + build %v over %s transport\n",
		res.LoadTime.Round(time.Millisecond), res.PartitionTime.Round(time.Millisecond),
		res.BuildTime.Round(time.Millisecond), *transport)

	for _, prog := range progs {
		job, err := s.Run(ctx, prog)
		if err != nil {
			return err
		}
		fmt.Printf("\njob %d               %s\n", job.Job, job.Program)
		fmt.Printf("  supersteps        %d\n", job.BSP.Steps)
		fmt.Printf("  execution time    %v\n", job.BSP.WallTime.Round(time.Microsecond))
		fmt.Printf("  avg comp / comm   %v / %v\n",
			job.BSP.AvgComp().Round(time.Microsecond), job.BSP.AvgComm().Round(time.Microsecond))
		fmt.Printf("  deltaC (skew)     %v\n", job.BSP.DeltaC().Round(time.Microsecond))
		fmt.Printf("  total messages    %d\n", job.BSP.TotalMessages())
		fmt.Printf("  max/mean messages %.3f\n", job.BSP.MaxMeanMessageRatio())
	}

	st := s.Stats()
	fmt.Printf("\nsession             %d job(s) in %v (prepare was %v",
		st.JobsServed, st.TotalRunTime.Round(time.Microsecond), st.PrepareTime.Round(time.Millisecond))
	if st.JobsServed > 1 {
		fmt.Printf("; first job %v, steady state %v/job",
			st.FirstRunTime().Round(time.Microsecond), st.SteadyStateRunTime().Round(time.Microsecond))
	}
	fmt.Println(")")
	return nil
}

func readAssignment(path string) (*ebv.Assignment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".bin") {
		return ebv.ReadAssignmentBinary(f)
	}
	return ebv.ReadAssignmentText(f)
}
