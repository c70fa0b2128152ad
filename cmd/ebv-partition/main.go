// Command ebv-partition partitions a graph file with any of the paper's
// algorithms and prints the §III-C quality metrics (edge imbalance factor,
// vertex imbalance factor, replication factor). It runs the ebv.Pipeline
// through its Prepare stages (load → partition → metrics); Ctrl-C cancels
// the in-flight partitioning.
//
// Usage:
//
//	ebv-partition -in graph.txt -algo EBV -parts 16
//	ebv-partition -in graph.bin -algo DBH -parts 32 -assignment out.part
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
			fmt.Fprintln(os.Stderr, "ebv-partition: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "ebv-partition:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) (err error) {
	var (
		in         = flag.String("in", "", "input graph path (.bin = binary, else text edge list)")
		undirected = flag.Bool("undirected", false, "treat text input as undirected")
		algo       = flag.String("algo", "EBV", "algorithm: EBV | EBV-auto | EBV-local | EBV-unsort | Ginger | DBH | CVC | NE | METIS | Random | Grid")
		parts      = flag.Int("parts", 8, "number of subgraphs")
		alpha      = flag.Float64("alpha", 1, "EBV edge-balance weight α")
		beta       = flag.Float64("beta", 1, "EBV vertex-balance weight β")
		outPath    = flag.String("assignment", "", "write per-edge part ids to this path")
	)
	flag.Parse()
	if *in == "" {
		return errors.New("missing -in (graph path)")
	}

	var p ebv.Partitioner
	if *algo == "EBV" && (*alpha != 1 || *beta != 1) {
		p = ebv.NewEBV(ebv.WithAlpha(*alpha), ebv.WithBeta(*beta))
	} else {
		p, err = ebv.PartitionerByName(*algo)
		if err != nil {
			return err
		}
	}

	opts := []ebv.PipelineOption{
		ebv.FromEdgeList(*in),
		ebv.UsePartitioner(p),
		ebv.Subgraphs(*parts),
	}
	if *undirected {
		opts = append(opts, ebv.Undirected())
	}
	res, err := ebv.NewPipeline(opts...).Prepare(ctx)
	if err != nil {
		return err
	}

	fmt.Printf("graph              %s (V=%d, E=%d)\n", *in, res.Graph.NumVertices(), res.Graph.NumEdges())
	fmt.Printf("algorithm          %s\n", res.PartitionerName)
	fmt.Printf("subgraphs          %d\n", res.Assignment.K)
	fmt.Printf("partition time     %v\n", res.PartitionTime.Round(time.Millisecond))
	fmt.Printf("edge imbalance     %.4f\n", res.Metrics.EdgeImbalance)
	fmt.Printf("vertex imbalance   %.4f\n", res.Metrics.VertexImbalance)
	fmt.Printf("replication factor %.4f\n", res.Metrics.ReplicationFactor)

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
		if strings.HasSuffix(*outPath, ".bin") {
			err = ebv.WriteAssignmentBinary(out, res.Assignment)
		} else {
			err = ebv.WriteAssignmentText(out, res.Assignment)
		}
		if err != nil {
			return err
		}
		fmt.Printf("assignment         written to %s\n", *outPath)
	}
	return nil
}
