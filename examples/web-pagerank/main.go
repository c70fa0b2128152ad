// web-pagerank: rank pages of an R-MAT web-shaped graph with the
// subgraph-centric engine, comparing the communication volume of an EBV
// partition against DBH, and against the vertex-centric engine — the
// paper's core motivation (§I). Each subgraph-centric run is one
// ebv.Pipeline call; Ctrl-C cancels the in-flight stage.
//
// Run with: go run ./examples/web-pagerank
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"time"

	"ebv"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context) error {
	g, err := ebv.RMAT(ebv.RMATConfig{
		ScaleLog2: 15, // 32768 vertices
		NumEdges:  400000,
		Directed:  true,
		Seed:      11,
	})
	if err != nil {
		return err
	}
	fmt.Printf("web graph (R-MAT): V=%d E=%d max-degree=%d\n\n",
		g.NumVertices(), g.NumEdges(), g.MaxDegree())

	const (
		workers = 8
		iters   = 15
	)

	var ebvRun *ebv.RunResult
	for _, p := range []ebv.Partitioner{ebv.NewEBV(), &ebv.DBH{}} {
		res, err := ebv.NewPipeline(
			ebv.FromGraph(g),
			ebv.UsePartitioner(p),
			ebv.Subgraphs(workers),
		).Run(ctx, &ebv.PageRank{Iterations: iters})
		if err != nil {
			return err
		}
		fmt.Printf("%-4s subgraph-centric: %v, %d messages\n",
			res.PartitionerName, res.RunTime.Round(time.Millisecond), res.BSP.TotalMessages())
		if res.PartitionerName == "EBV" {
			ebvRun = res.BSP
		}
	}

	// Vertex-centric comparator: same computation, different model.
	start := time.Now()
	vc, err := ebv.RunPregel(ctx, g, workers, &ebv.PregelPageRank{Iterations: iters}, ebv.PregelConfig{})
	if err != nil {
		return err
	}
	fmt.Printf("%-4s vertex-centric:   %v, %d messages\n\n",
		"VC", time.Since(start).Round(time.Millisecond), vc.TotalMessages())

	// Top pages from the EBV run.
	type page struct {
		id   ebv.VertexID
		rank float64
	}
	pages := make([]page, 0, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		if rank, ok := ebvRun.Value(ebv.VertexID(v)); ok {
			pages = append(pages, page{ebv.VertexID(v), rank})
		}
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i].rank > pages[j].rank })
	fmt.Println("top pages:")
	for i := 0; i < 5 && i < len(pages); i++ {
		fmt.Printf("  vertex %-8d rank %.6f\n", pages[i].id, pages[i].rank)
	}
	return nil
}
