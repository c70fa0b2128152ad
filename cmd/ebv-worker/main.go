// Command ebv-worker runs ONE worker process of a coordinator/worker
// cluster. It needs a single flag: the worker registers with an
// ebv-coordinator, receives its subgraph shard over the control connection,
// and serves jobs until the coordinator exits — no shard files, no peer
// list, no worker ids to keep in sync:
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
// The process binds one data-plane listener for its lifetime and wires one
// mesh node per roster through it (dialing peers with exponential backoff
// until -dial-timeout expires); every job runs on that node, and a failed
// attempt closes it so the retry rewires. Every frame between workers is a
// job-tagged, CRC-checked EBV6 bundle of fixed-width columns, and a worker
// that dies mid-run fails its peers' next exchange loudly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
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

func run(ctx context.Context) error {
	var (
		coord   = flag.String("coordinator", "", "coordinator control-plane address (required)")
		host    = flag.String("host", "127.0.0.1", "address to advertise for this worker's data-plane listener")
		timeout = flag.Duration("dial-timeout", 30*time.Second, "total budget for dialing the coordinator and peers, with exponential backoff")
	)
	flag.Parse()
	if *coord == "" {
		return errors.New("need -coordinator")
	}
	return ebv.RunClusterAgent(ctx, ebv.ClusterAgentConfig{
		Coordinator: *coord,
		Host:        *host,
		DialTimeout: *timeout,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "ebv-worker: "+format+"\n", args...)
		},
	})
}
