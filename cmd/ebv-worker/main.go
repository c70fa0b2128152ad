// Command ebv-worker runs ONE worker of a multi-process subgraph-centric
// BSP computation, in either of two modes.
//
// Coordinator mode (the normal deployment shape) needs a single flag: the
// worker registers with an ebv-coordinator, receives its subgraph shard
// over the control connection, and serves jobs until the coordinator
// exits — no shard files, no -peers list, no worker ids to keep in sync:
//
//	ebv-coordinator -in graph.txt -algo EBV -parts 3 -listen 127.0.0.1:9090 \
//	    -app CC -out cc.txt &
//	ebv-worker -coordinator 127.0.0.1:9090 &
//	ebv-worker -coordinator 127.0.0.1:9090 &
//	ebv-worker -coordinator 127.0.0.1:9090 &
//
// Extra workers beyond the partition count register as hot standbys. If a
// worker dies mid-job (kill -9 included) the coordinator reassigns its
// partition and, when the job checkpoints (-checkpoint-dir on the
// coordinator), resumes from the latest complete epoch; results are
// byte-identical to an uninterrupted run. Job results are assembled and
// written by the coordinator; this process only logs progress to stderr.
//
// Standalone mode is the original hand-wired flow — shard files from
// ebv-partition plus a shared peer list — for runs without a control
// plane:
//
//  1. Partition and shard:
//     ebv-partition -in graph.txt -algo EBV -parts 3 -subgraph-dir shards/
//  2. Start one worker per process; worker i listens on the i-th address:
//     ebv-worker -subgraph shards/subgraph-0.bin -worker 0 \
//     -peers 127.0.0.1:9100,127.0.0.1:9101,127.0.0.1:9102 -app CC -out r0.txt
//     ebv-worker -subgraph shards/subgraph-1.bin -worker 1 -peers ... -out r1.txt
//     ebv-worker -subgraph shards/subgraph-2.bin -worker 2 -peers ... -out r2.txt
//
// Each standalone worker prints its breakdown and writes "vertex value"
// lines for its local vertices. No process ever loads the whole graph.
//
// Both modes run on the same data plane: the process wires one mesh node
// (dialing peers with exponential backoff until -dial-timeout expires, so
// workers may start in any order) and opens its job on it; every frame
// between workers is a job-tagged, compressed, CRC-checked v4 frame. A
// worker that finishes its last superstep exits without waiting for its
// peers — they still receive everything it sent — while a worker that
// dies mid-run fails its peers' next exchange loudly.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ebv"
)

func main() {
	// A SIGINT mid-superstep cancels the context: the worker closes its
	// transport (peers observe the closed connections and abort their own
	// exchanges) and exits without leaking goroutines.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "ebv-worker: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "ebv-worker:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) (err error) {
	var (
		coord   = flag.String("coordinator", "", "coordinator control-plane address (enables coordinator mode; most other flags are then unused)")
		host    = flag.String("host", "127.0.0.1", "address to advertise for this worker's data-plane listener (coordinator mode)")
		subPath = flag.String("subgraph", "", "subgraph file written by ebv-partition -subgraph-dir (standalone mode)")
		worker  = flag.Int("worker", -1, "this worker's id (standalone mode)")
		peers   = flag.String("peers", "", "comma-separated listen addresses, one per worker (standalone mode)")
		app     = flag.String("app", "CC", "application: "+ebv.ProgramNames)
		iters   = flag.Int("iters", 10, "PageRank iterations")
		layers  = flag.Int("layers", 2, "AGG aggregation layers")
		source  = flag.Uint64("source", 0, "SSSP/WSSSP source vertex")
		width   = flag.Int("width", 1, "per-vertex value width (floats per message; must match all workers)")
		combine = flag.String("combine", "auto", "message combining: auto (each app's natural min/sum combiner, the default) | off")
		timeout = flag.Duration("dial-timeout", 30*time.Second, "total budget for dialing peers (and the coordinator), with exponential backoff")
		outPath = flag.String("out", "", "write 'vertex value...' lines here (default stdout; standalone mode)")
	)
	flag.Parse()
	combineOn := false
	switch *combine {
	case "auto":
		combineOn = true
	case "off":
	default:
		return fmt.Errorf("invalid -combine %q (valid: auto, off)", *combine)
	}

	if *coord != "" {
		return ebv.RunClusterAgent(ctx, ebv.ClusterAgentConfig{
			Coordinator: *coord,
			Host:        *host,
			DialTimeout: *timeout,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "ebv-worker: "+format+"\n", args...)
			},
		})
	}

	if *width < 1 {
		return fmt.Errorf("invalid -width %d: the per-vertex value width must be >= 1", *width)
	}
	if *subPath == "" || *worker < 0 || *peers == "" {
		return errors.New("need -coordinator, or -subgraph, -worker and -peers")
	}
	addrs := strings.Split(*peers, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	if *worker >= len(addrs) {
		return fmt.Errorf("worker %d but only %d peer addresses", *worker, len(addrs))
	}

	f, err := os.Open(*subPath)
	if err != nil {
		return err
	}
	sub, err := ebv.ReadSubgraph(f)
	f.Close()
	if err != nil {
		return err
	}
	if sub.Part != *worker {
		return fmt.Errorf("subgraph file is for worker %d, not %d", sub.Part, *worker)
	}
	if sub.NumWorkers != len(addrs) {
		return fmt.Errorf("subgraph expects %d workers, peer list has %d",
			sub.NumWorkers, len(addrs))
	}

	prog, err := ebv.ProgramByName(*app, ebv.ProgramParams{Iterations: *iters, Source: int64(*source), Layers: *layers})
	if err != nil {
		return err
	}

	node, err := ebv.WireMeshNode(ctx, *worker, addrs, nil, *timeout)
	if err != nil {
		return err
	}
	defer node.Close()
	// One run per mesh: every worker opens the same job id.
	tr, err := node.OpenJob(1, *width)
	if err != nil {
		return err
	}

	res, err := ebv.RunBSPWorker(ctx, sub, prog, tr, ebv.RunConfig{ValueWidth: *width, AutoCombine: combineOn}, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"worker %d: %s done in %d supersteps, %v (comp %v, comm %v, sync %v), %d msgs sent\n",
		*worker, prog.Name(), res.Steps, res.WallTime.Round(time.Microsecond),
		res.Stats.TotalComp().Round(time.Microsecond),
		res.Stats.TotalComm().Round(time.Microsecond),
		res.Stats.TotalSync().Round(time.Microsecond),
		res.Stats.TotalSent())

	w := os.Stdout
	if *outPath != "" {
		out, cerr := os.Create(*outPath)
		if cerr != nil {
			return cerr
		}
		// The close error is the data-loss error on a written file: join it
		// into the return instead of dropping it (closeerr).
		defer func() {
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}()
		w = out
	}
	bw := bufio.NewWriter(w)
	ids := make([]int, len(sub.GlobalIDs))
	for i, gid := range sub.GlobalIDs {
		ids[i] = int(gid)
	}
	sort.Ints(ids)
	for _, gid := range ids {
		local, _ := sub.LocalOf(ebv.VertexID(gid))
		bw.WriteString(strconv.Itoa(gid))
		for _, v := range res.Values.Row(int(local)) {
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
