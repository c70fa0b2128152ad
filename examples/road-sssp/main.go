// road-sssp: the USARoad-style workload — shortest paths over a large road
// network, contrasting EBV against NE (the local-based algorithm the paper
// shows winning on non-power-law graphs, Figure 3).
//
// Run with: go run ./examples/road-sssp
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"ebv"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	g, err := ebv.Road(ebv.RoadConfig{Width: 250, Height: 250, Seed: 3})
	if err != nil {
		return err
	}
	fmt.Printf("road network: V=%d E=%d (high diameter, near-uniform degree)\n\n",
		g.NumVertices(), g.NumEdges())

	const workers = 8
	source := ebv.VertexID(0)

	for _, p := range []ebv.Partitioner{ebv.NewEBV(), &ebv.NE{}} {
		a, err := p.Partition(ctx, g, workers)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name(), err)
		}
		m, err := ebv.ComputeMetrics(g, a)
		if err != nil {
			return err
		}
		subs, err := ebv.BuildSubgraphs(g, a)
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := ebv.RunBSP(ctx, subs, &ebv.SSSP{Source: source}, ebv.RunConfig{})
		if err != nil {
			return err
		}
		reachable, maxDist := 0, 0.0
		for v := 0; v < g.NumVertices(); v++ {
			d, ok := res.Value(ebv.VertexID(v))
			if ok && !math.IsInf(d, 1) {
				reachable++
				if d > maxDist {
					maxDist = d
				}
			}
		}
		fmt.Printf("%-6s RF=%.3f  supersteps=%d  time=%v  messages=%d\n",
			p.Name(), m.ReplicationFactor, res.Steps,
			time.Since(start).Round(time.Millisecond), res.TotalMessages())
		fmt.Printf("       reachable=%d  eccentricity(source)=%.0f\n\n", reachable, maxDist)
	}

	fmt.Println("On road networks NE's locality pays off: far fewer messages than EBV")
	fmt.Println("(the paper's Figure 3 / Table IV USARoad row).")
	return nil
}
