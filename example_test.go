package ebv_test

import (
	"context"
	"fmt"

	"ebv"
)

// Example demonstrates the core flow: generate a power-law graph,
// partition it with EBV, and inspect the paper's §III-C quality metrics.
func Example() {
	g, err := ebv.PowerLaw(ebv.PowerLawConfig{
		NumVertices: 10000, NumEdges: 80000, Eta: 2.4, Directed: true, Seed: 1,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	a, err := ebv.NewEBV().Partition(context.Background(), g, 8)
	if err != nil {
		fmt.Println(err)
		return
	}
	m, err := ebv.ComputeMetrics(g, a)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("edge imbalance ≈ 1: %t\n", m.EdgeImbalance < 1.1)
	fmt.Printf("vertex imbalance ≈ 1: %t\n", m.VertexImbalance < 1.1)
	fmt.Printf("replication factor < random model: %t\n",
		m.ReplicationFactor < ebv.ExpectedRandomReplication(g, 8))
	// Output:
	// edge imbalance ≈ 1: true
	// vertex imbalance ≈ 1: true
	// replication factor < random model: true
}

// ExampleRunBSP runs connected components on the subgraph-centric engine
// and verifies it against the sequential oracle.
func ExampleRunBSP() {
	g, err := ebv.PowerLaw(ebv.PowerLawConfig{
		NumVertices: 5000, NumEdges: 20000, Eta: 2.5, Directed: false, Seed: 2,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	a, err := ebv.NewEBV().Partition(context.Background(), g, 4)
	if err != nil {
		fmt.Println(err)
		return
	}
	subs, err := ebv.BuildSubgraphs(g, a)
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := ebv.RunBSP(context.Background(), subs, &ebv.CC{}, ebv.RunConfig{})
	if err != nil {
		fmt.Println(err)
		return
	}
	want := ebv.SequentialCC(g)
	agree := true
	for v := range want {
		if got, ok := res.Value(ebv.VertexID(v)); ok && got != want[v] {
			agree = false
			break
		}
	}
	fmt.Printf("distributed CC equals sequential oracle: %t\n", agree)
	// Output:
	// distributed CC equals sequential oracle: true
}

// ExampleNewEBV_options shows the α/β weights and edge-order knobs of the
// evaluation function (§IV-C).
func ExampleNewEBV_options() {
	p := ebv.NewEBV(
		ebv.WithAlpha(2),              // stronger edge-balance pressure
		ebv.WithBeta(0.5),             // weaker vertex-balance pressure
		ebv.WithOrder(ebv.OrderInput), // skip the sorting preprocessing
	)
	fmt.Println(p.Name())
	fmt.Println(p.Alpha(), p.Beta())
	// Output:
	// EBV-unsort
	// 2 0.5
}

// ExampleNewStreamingEBV feeds an edge stream through the one-pass variant.
func ExampleNewStreamingEBV() {
	s, err := ebv.NewStreamingEBV(ebv.StreamingEBVConfig{K: 2, NumVertices: 4})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, e := range []ebv.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}} {
		if err := s.Add(e); err != nil {
			fmt.Println(err)
			return
		}
	}
	s.Flush()
	counts := s.EdgeCounts()
	fmt.Println(counts[0]+counts[1] == 3)
	// Output:
	// true
}
