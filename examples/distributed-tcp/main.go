// distributed-tcp: the same subgraph-centric CC computation as
// examples/social-cc, but with workers exchanging replica updates over a
// real TCP mesh (loopback here; a multi-host deployment dials remote
// addresses with the identical frame protocol — see internal/transport).
//
// Run with: go run ./examples/distributed-tcp
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"ebv"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	g, err := ebv.PowerLaw(ebv.PowerLawConfig{
		NumVertices: 20000,
		NumEdges:    120000,
		Eta:         2.4,
		Directed:    false,
		Seed:        13,
	})
	if err != nil {
		return err
	}

	const workers = 4
	a, err := ebv.NewEBV().Partition(g, workers)
	if err != nil {
		return err
	}
	subs, err := ebv.BuildSubgraphs(g, a)
	if err != nil {
		return err
	}

	mesh, err := ebv.NewTCPMeshDeployment(context.Background(), workers)
	if err != nil {
		return err
	}
	dep, err := ebv.NewBSPDeployment(subs, mesh)
	if err != nil {
		_ = mesh.Close()
		return err
	}
	defer dep.Close()

	start := time.Now()
	res, err := dep.Run(context.Background(), &ebv.CC{}, ebv.RunConfig{})
	if err != nil {
		return err
	}
	fmt.Printf("CC over %d TCP workers: %d supersteps in %v\n",
		workers, res.Steps, time.Since(start).Round(time.Millisecond))
	fmt.Printf("messages on the wire: %d (avg comm per worker %v)\n",
		res.TotalMessages(), res.AvgComm().Round(time.Microsecond))

	want := ebv.SequentialCC(g)
	for v := range want {
		if got, ok := res.Value(ebv.VertexID(v)); ok && got != want[v] {
			return fmt.Errorf("TCP result differs from oracle at vertex %d", v)
		}
	}
	fmt.Println("TCP result verified against the sequential oracle ✓")
	return nil
}
