// Command ebv-coordinator is the control-plane head of a multi-process
// deployment: it loads and partitions the graph ONCE, then serves the
// shards to ebv-worker processes that register over TCP, assembles the
// data-plane address list automatically, and drives jobs with
// superstep-barrier checkpointing and automatic failover. A deployment
// looks like:
//
//	ebv-coordinator -in graph.txt -algo EBV -parts 3 -listen 127.0.0.1:9090 \
//	    -app PR -iters 20 -checkpoint-dir ckpt/ -checkpoint-every 4 -out pr.txt &
//	ebv-worker -coordinator 127.0.0.1:9090 &
//	ebv-worker -coordinator 127.0.0.1:9090 &
//	ebv-worker -coordinator 127.0.0.1:9090 &
//
// Workers need no flags beyond -coordinator: each registers, receives its
// shard, and serves jobs until the coordinator exits. Extra workers
// register as hot standbys; if a worker dies mid-job (kill -9 included),
// its partition moves to a standby or a restarted worker and the job
// resumes from the latest complete checkpoint epoch with values
// byte-identical to an uninterrupted run.
//
// The first stdout line is "COORDINATOR <addr>" — scripts that pass
// -listen :0 can scrape the bound address from it.
package main

import (
	"bufio"
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
			fmt.Fprintln(os.Stderr, "ebv-coordinator: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "ebv-coordinator:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	var (
		listen     = flag.String("listen", "127.0.0.1:0", "control-plane listen address (use :port to accept remote workers)")
		in         = flag.String("in", "", "input graph path (.bin = binary, else text edge list)")
		undirected = flag.Bool("undirected", false, "treat text input as undirected")
		algo       = flag.String("algo", "EBV-auto", "partition algorithm (EBV is the paper's)")
		parts      = flag.Int("parts", 3, "number of workers/subgraphs")
		app        = flag.String("app", "CC", "comma-separated applications run as sequential jobs of one deployment: "+ebv.ProgramNames)
		iters      = flag.Int("iters", 10, "PageRank iterations")
		layers     = flag.Int("layers", 2, "AGG aggregation layers")
		source     = flag.Uint64("source", 0, "SSSP/WSSSP source vertex")
		width      = flag.Int("width", 1, "per-vertex value width (floats per message; must match all workers)")
		maxSteps   = flag.Int("max-steps", 0, "superstep safety cap (0 = engine default)")
		ckptDir    = flag.String("checkpoint-dir", "", "checkpoint directory shared with the workers (empty disables checkpointing)")
		ckptEvery  = flag.Int("checkpoint-every", 0, "checkpoint epoch length in supersteps (0 disables)")
		attempts   = flag.Int("attempts", 0, "max attempts per job, failures included (0 = 5)")
		hbTimeout  = flag.Duration("hb-timeout", 5*time.Second, "declare a silent worker dead after this long")
		outPath    = flag.String("out", "", "write 'vertex value...' lines here (default stdout; multiple apps get .<app> suffixes)")
		verbose    = flag.Bool("v", false, "log control-plane events to stderr")
	)
	flag.Parse()
	if *in == "" {
		return errors.New("missing -in (graph path)")
	}
	if *width < 1 {
		return fmt.Errorf("invalid -width %d: the per-vertex value width must be >= 1", *width)
	}
	// Every -app name resolves through the registry before the graph is
	// loaded, so a typo fails in milliseconds.
	var jobs []ebv.ClusterJob
	for _, name := range strings.Split(*app, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		job := ebv.ClusterJob{
			App:             name,
			Iterations:      *iters,
			Layers:          *layers,
			Source:          int64(*source),
			ValueWidth:      *width,
			MaxSteps:        *maxSteps,
			CheckpointDir:   *ckptDir,
			CheckpointEvery: *ckptEvery,
			MaxAttempts:     *attempts,
		}
		if _, err := job.Program(); err != nil {
			return err
		}
		jobs = append(jobs, job)
	}
	if len(jobs) == 0 {
		return fmt.Errorf("no applications in -app %q (valid: %s)", *app, ebv.ProgramNames)
	}

	p, err := ebv.PartitionerByName(*algo)
	if err != nil {
		return err
	}
	opts := []ebv.PipelineOption{
		ebv.FromEdgeList(*in),
		ebv.UsePartitioner(p),
		ebv.Subgraphs(*parts),
	}
	if *undirected {
		opts = append(opts, ebv.Undirected())
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "ebv-coordinator: "+format+"\n", args...)
		}
	}
	c, err := ebv.NewPipeline(opts...).OpenCluster(ctx, ebv.ClusterOptions{
		Listen:           *listen,
		HeartbeatTimeout: *hbTimeout,
		Logf:             logf,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	res := c.Prepared()
	fmt.Printf("COORDINATOR %s\n", c.Addr())
	os.Stdout.Sync()
	fmt.Printf("graph               %s (V=%d, E=%d)\n", *in, res.Graph.NumVertices(), res.Graph.NumEdges())
	fmt.Printf("partition           %s into %d subgraphs in %v (RF %.3f)\n",
		res.PartitionerName, res.Assignment.K, res.PartitionTime.Round(time.Millisecond),
		res.Metrics.ReplicationFactor)
	fmt.Printf("waiting             %d worker(s) on %s\n", c.NumWorkers(), c.Addr())

	for _, job := range jobs {
		jr, err := c.Run(ctx, job)
		if err != nil {
			return err
		}
		fmt.Printf("\njob %d               %s\n", jr.Job, job.App)
		fmt.Printf("  supersteps        %d\n", jr.Steps)
		fmt.Printf("  attempts          %d\n", jr.Attempts)
		if jr.RestoredFrom >= 0 {
			fmt.Printf("  restored from     checkpoint epoch %d\n", jr.RestoredFrom)
		}
		path := *outPath
		if path != "" && len(jobs) > 1 {
			path += "." + strings.ToLower(job.App)
		}
		if err := writeValues(path, jr); err != nil {
			return err
		}
	}
	return nil
}

// writeValues prints "vertex value..." lines for the covered vertices,
// ascending by vertex id — the same shape ebv-worker and ebv-run emit.
func writeValues(path string, jr *ebv.ClusterJobResult) (err error) {
	w := os.Stdout
	if path != "" {
		f, cerr := os.Create(path)
		if cerr != nil {
			return cerr
		}
		// The close error is the data-loss error on a written file: join it
		// into the return instead of dropping it (closeerr).
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		w = f
	}
	bw := bufio.NewWriter(w)
	for v := 0; v < jr.Values.Rows(); v++ {
		if !jr.Covered[v] {
			continue
		}
		bw.WriteString(strconv.Itoa(v))
		for _, val := range jr.Values.Row(v) {
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatFloat(val, 'g', -1, 64))
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
