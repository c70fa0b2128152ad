// Warm-start and convergence tests: PageRank{Tol} seeded with a previous
// run's ranks must reach the cold run's fixed point, in no more
// supersteps, after insert-only growth.
package apps

import (
	"math"
	"testing"

	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/gen"
	"ebv/internal/graph"
)

// grownPair draws one power-law edge list and splits it into a base graph
// g0 and a superset graph g1 (base + holdout inserts), each with built
// subgraphs — the before/after snapshots of an insert-only stream.
func grownPair(t *testing.T, k int) (subs0, subs1 []*bsp.Subgraph) {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: 800, NumEdges: 4200, Eta: 2.2, Directed: true, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := g.Edges()
	e0 := len(all) - 200
	g0, err := graph.New(g.NumVertices(), all[:e0])
	if err != nil {
		t.Fatal(err)
	}
	g1, err := graph.New(g.NumVertices(), all)
	if err != nil {
		t.Fatal(err)
	}
	for i, gi := range []*graph.Graph{g0, g1} {
		a, err := core.New().Partition(t.Context(), gi, k)
		if err != nil {
			t.Fatal(err)
		}
		subs, err := bsp.BuildSubgraphs(gi, a)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			subs0 = subs
		} else {
			subs1 = subs
		}
	}
	return subs0, subs1
}

// TestDeltaPageRankWarmConverges: a converging PageRank on the grown graph,
// started from the base graph's fixed point, reaches the cold fixed point
// (within Tol-scale slack) in no more iterations than cold.
func TestDeltaPageRankWarmConverges(t *testing.T) {
	subs0, subs1 := grownPair(t, 6)
	prev, err := bsp.Run(t.Context(), subs0, &PageRank{Tol: 1e-9, Iterations: 500}, bsp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := bsp.Run(t.Context(), subs1, &PageRank{Tol: 1e-9, Iterations: 500}, bsp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := bsp.Run(t.Context(), subs1,
		&PageRank{Tol: 1e-9, Iterations: 500, Warm: prev.Values, WarmCovered: prev.Covered}, bsp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Steps > cold.Steps {
		t.Fatalf("warm PR took %d supersteps, cold took %d", warm.Steps, cold.Steps)
	}
	if warm.Steps <= 2 {
		t.Fatalf("warm PR halted after %d supersteps — the 200 inserts cannot already be converged", warm.Steps)
	}
	var maxDiff float64
	for v, covered := range cold.Covered {
		if !covered {
			continue
		}
		if d := math.Abs(warm.Values.Scalar(v) - cold.Values.Scalar(v)); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-6 {
		t.Fatalf("warm and cold fixed points differ by %g (> 1e-6)", maxDiff)
	}
}

// TestDeltaPageRankMatchesPowerIteration: on a tiny hand-checked graph the
// fixed-point ranks must agree with a dense power iteration run to the
// same tolerance.
func TestDeltaPageRankMatchesPowerIteration(t *testing.T) {
	edges := []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
		{Src: 2, Dst: 3}, {Src: 3, Dst: 0}, {Src: 1, Dst: 0},
	}
	g, err := graph.New(4, edges)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.New().Partition(t.Context(), g, 2)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := bsp.BuildSubgraphs(g, a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bsp.Run(t.Context(), subs, &PageRank{Tol: 1e-12, Iterations: 500}, bsp.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Dense reference: same update rule, same damping, uniform start.
	n := 4
	ranks := []float64{0.25, 0.25, 0.25, 0.25}
	for iter := 0; iter < 10000; iter++ {
		next := make([]float64, n)
		for _, e := range edges {
			next[e.Dst] += ranks[e.Src] / float64(g.OutDegree(e.Src))
		}
		var delta float64
		for v := range next {
			next[v] = (1-0.85)/float64(n) + 0.85*next[v]
			if d := math.Abs(next[v] - ranks[v]); d > delta {
				delta = d
			}
		}
		ranks = next
		if delta < 1e-13 {
			break
		}
	}
	for v := 0; v < n; v++ {
		if d := math.Abs(res.Values.Scalar(v) - ranks[v]); d > 1e-9 {
			t.Fatalf("vertex %d: converged PR rank %g vs reference %g (diff %g)",
				v, res.Values.Scalar(v), ranks[v], d)
		}
	}
}
