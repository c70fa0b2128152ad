// Equivalence tests: the engine hands every batch to the exchange as the
// program emitted it, and the receiver concatenates. Every app produces a
// byte-identical ValueMatrix on the in-memory router and the TCP mesh, at
// scalar and vector widths, and every row sent is delivered — on a
// high-fan-in star graph too.
package bsp_test

import (
	"fmt"
	"testing"

	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/graph"
	"ebv/internal/partition"
)

// evaluationApps returns one instance of each evaluation app, plus the
// converging PageRank, whose halt is the engine's vote.
func evaluationApps() []bsp.Program {
	return []bsp.Program{
		&apps.CC{},
		&apps.PageRank{Iterations: 6},
		&apps.SSSP{Source: 0},
		&apps.SSSP{Source: 0, Weighted: true},
		&apps.Aggregate{Layers: 2},
		&apps.PageRank{Tol: 1e-6, Iterations: 500},
	}
}

// appName labels an evaluationApps entry in subtest names.
func appName(prog bsp.Program) string {
	if pr, ok := prog.(*apps.PageRank); ok && pr.Tol > 0 {
		return "PR-tol"
	}
	return prog.Name()
}

// buildWeightedSubs builds subgraphs carrying hash weights (weighted SSSP
// exercises them; every other app ignores them).
func buildWeightedSubs(t *testing.T, g *graph.Graph, a *partition.Assignment) []*bsp.Subgraph {
	t.Helper()
	subs, err := bsp.BuildSubgraphsWeightedParallel(g, a, graph.HashWeights(g, 7, 1, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	return subs
}

// TestCombinerEquivalenceAllApps is the acceptance matrix: every app ×
// {Mem, TCP} × widths {1, 8} produces a ValueMatrix byte-identical to an
// in-memory reference run, with replicas in agreement and every row sent
// delivered. (The name predates the removal of message combining.)
func TestCombinerEquivalenceAllApps(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	const k = 3
	a, err := core.New().Partition(t.Context(), g, k)
	if err != nil {
		t.Fatal(err)
	}
	subs := buildWeightedSubs(t, g, a)
	for _, prog := range evaluationApps() {
		for _, width := range []int{1, 8} {
			cfg := bsp.Config{ValueWidth: width}
			ref, err := bsp.Run(t.Context(), subs, prog, cfg)
			if err != nil {
				t.Fatalf("%s/w%d reference: %v", appName(prog), width, err)
			}
			for _, trName := range []string{"mem", "tcp"} {
				t.Run(fmt.Sprintf("%s/w%d/%s", appName(prog), width, trName), func(t *testing.T) {
					res, err := runOnMesh(t.Context(), subs, meshByName(t, trName, k), prog, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Values.EqualValues(ref.Values) {
						t.Fatal("values differ from the in-memory reference (byte-identity violated)")
					}
					if res.Steps != ref.Steps {
						t.Fatalf("run took %d steps, reference %d", res.Steps, ref.Steps)
					}
					c := res.MessageCounts()
					if c.Emitted != c.Wire || c.Wire != c.Delivered {
						t.Fatalf("want emitted == wire == delivered, got %+v", c)
					}
					if rc := ref.MessageCounts(); c != rc {
						t.Fatalf("counts %+v, reference %+v", c, rc)
					}
					if res.TotalMessages() != c.Wire {
						t.Fatalf("TotalMessages = %d, want the wire count %d", res.TotalMessages(), c.Wire)
					}
				})
			}
		}
	}
}

// starGraph builds a high-fan-in star (every leaf points at the hub,
// vertex 0) with a round-robin edge assignment, so the hub is replicated
// in every part and each part's hub rows arrive from every peer.
func starGraph(t *testing.T, leaves, k int) (*graph.Graph, []*bsp.Subgraph) {
	t.Helper()
	edges := make([]graph.Edge, leaves)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i + 1), Dst: 0}
	}
	g, err := graph.New(leaves+1, edges)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]int32, len(edges))
	for i := range parts {
		parts[i] = int32(i % k)
	}
	subs, err := bsp.BuildSubgraphs(g, &partition.Assignment{K: k, Parts: parts})
	if err != nil {
		t.Fatal(err)
	}
	return g, subs
}

// TestCombinerStarGraphFanInDelivered crafts the high-fan-in case: the
// hub's rows arrive at every worker from every peer. The receiver delivers
// each of them — the program's own accumulator is the one fold — so every
// row sent is delivered and the replicas agree.
func TestCombinerStarGraphFanInDelivered(t *testing.T) {
	_, subs := starGraph(t, 200, 4)
	for _, prog := range []bsp.Program{&apps.CC{}, &apps.PageRank{Iterations: 4}} {
		t.Run(prog.Name(), func(t *testing.T) {
			res, err := bsp.Run(t.Context(), subs, prog, bsp.Config{})
			if err != nil {
				t.Fatal(err)
			}
			c := res.MessageCounts()
			if c.Wire == 0 || c.Emitted != c.Wire || c.Delivered != c.Wire {
				t.Fatalf("want emitted == wire == delivered > 0, got %+v", c)
			}
		})
	}
}
