// gnn-aggregate: the §VII outlook workload — GNN-style mean neighborhood
// aggregation over 8-wide feature vectors, run distributed on the
// subgraph-centric engine over a real TCP loopback mesh, then verified
// per vertex (all 8 columns) against the sequential oracle.
//
// This is the workload the columnar message plane exists for: every
// replica-synchronization message carries a whole feature row, shipped as
// one strided slice of the batch's value column instead of eight separate
// scalar messages.
//
// Run with: go run ./examples/gnn-aggregate
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"time"

	"ebv"
)

const (
	workers = 4
	width   = 8 // feature-vector dimension
	layers  = 2 // aggregation rounds (GraphSAGE-mean layers)
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx); err != nil {
		log.Fatal(err)
	}
}

// feature fills a deterministic, column-varying input vector.
func feature(v ebv.VertexID, feat []float64) {
	for j := range feat {
		feat[j] = float64((uint64(v)*31 + uint64(j)*17) % 13)
	}
}

func run(ctx context.Context) error {
	res, err := ebv.NewPipeline(
		ebv.FromGenerator(func() (*ebv.Graph, error) {
			return ebv.PowerLaw(ebv.PowerLawConfig{
				NumVertices: 20000,
				NumEdges:    120000,
				Eta:         2.3,
				Directed:    true,
				Seed:        42,
			})
		}),
		ebv.UsePartitioner(ebv.NewEBV()),
		ebv.Subgraphs(workers),
		ebv.UseTCPLoopback(),
		ebv.WithRun(ebv.WithValueWidth(width), ebv.WithReplicaVerification(true)),
	).Run(ctx, &ebv.Aggregate{Layers: layers, Feature: feature})
	if err != nil {
		return err
	}

	fmt.Printf("aggregated %d-wide features over %d TCP workers: %d supersteps in %v\n",
		width, workers, res.BSP.Steps, res.RunTime.Round(time.Millisecond))
	fmt.Printf("feature rows on the wire: %d (RF %.3f)\n",
		res.BSP.TotalMessages(), res.Metrics.ReplicationFactor)

	// Verify all width columns of every covered vertex against the oracle.
	want := ebv.SequentialAggregate(res.Graph, layers, width, feature)
	for v := 0; v < res.Graph.NumVertices(); v++ {
		row, ok := res.BSP.Row(ebv.VertexID(v))
		if !ok {
			continue
		}
		for j, got := range row {
			if math.Abs(got-want.At(v, j)) > 1e-9 {
				return fmt.Errorf("vertex %d column %d: got %g, want %g",
					v, j, got, want.At(v, j))
			}
		}
	}
	fmt.Println("all feature vectors verified against the sequential oracle ✓")

	// A taste of the output: the first vertex's embedding.
	if row, ok := res.BSP.Row(0); ok {
		fmt.Printf("h(0) = %.4v\n", row)
	}
	return nil
}
