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

// benchPartitioned is the 50 k / 500 k power-law graph, EBV-partitioned k
// ways.
func benchPartitioned(tb testing.TB, k int) (*graph.Graph, *partition.Assignment) {
	tb.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: 50000, NumEdges: 500000, Eta: 2.2, Directed: true, Seed: 11,
	})
	if err != nil {
		tb.Fatal(err)
	}
	a, err := core.New().Partition(tb.Context(), g, k)
	if err != nil {
		tb.Fatal(err)
	}
	return g, a
}

// TestBuildSubgraphsAllocations: a sequential build makes a bounded number
// of allocations per part, however many vertices the part covers — the
// replica peers are one flat CSR per part and the out-adjacency waits for
// its first reader.
func TestBuildSubgraphsAllocations(t *testing.T) {
	const k = 8
	g, a := benchPartitioned(t, k)
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := bsp.BuildSubgraphsWeightedParallel(g, a, nil, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d vertices, %d edges: %.0f allocations", g.NumVertices(), g.NumEdges(), allocs)
	if allocs > 64*k {
		t.Fatalf("k = %d build of %d vertices made %.0f allocations, want <= %d", k, g.NumVertices(), allocs, 64*k)
	}
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
					if _, err := bsp.BuildSubgraphsWeightedParallel(g, a, nil, bc.par); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
