package bsp_test

import (
	"fmt"
	"runtime"
	"testing"

	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/gen"
	"ebv/internal/graph"
	"ebv/internal/partition"
)

func benchPartitioned(b *testing.B, k int) (*graph.Graph, *partition.Assignment) {
	b.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: 50000, NumEdges: 500000, Eta: 2.2, Directed: true, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.New().Partition(b.Context(), g, k)
	if err != nil {
		b.Fatal(err)
	}
	return g, a
}

// BenchmarkBuildSubgraphs compares the sequential baseline (parallelism 1)
// against the part-parallel build at GOMAXPROCS.
func BenchmarkBuildSubgraphs(b *testing.B) {
	for _, k := range []int{8, 32} {
		g, a := benchPartitioned(b, k)
		for _, bc := range []struct {
			name string
			par  int
		}{
			{"seq", 1},
			{fmt.Sprintf("par%d", runtime.GOMAXPROCS(0)), runtime.GOMAXPROCS(0)},
		} {
			b.Run(fmt.Sprintf("k%d/%s", k, bc.name), func(b *testing.B) {
				b.SetBytes(int64(g.NumEdges()))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := bsp.BuildSubgraphsParallel(g, a, bc.par); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
