package bsp_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"ebv/internal/bsp"
	"ebv/internal/graph"
)

// serialAssemble is AssembleValues before masters wrote the result: one
// serial pass over every replica of every worker, each writing its row
// (the highest-id replica's last) and, with verify, comparing it bit for
// bit with the row the previous replica wrote. It is the reference the
// master-written assembly is held to.
func serialAssemble(subs []*bsp.Subgraph, workerValues []*graph.ValueMatrix, width int, verify bool) (*graph.ValueMatrix, []bool, error) {
	values := graph.NewValueMatrix(subs[0].NumGlobalVertices, width)
	covered := make([]bool, subs[0].NumGlobalVertices)
	for w, sub := range subs {
		for local, gid := range sub.GlobalIDs {
			row, dst := workerValues[w].Row(local), values.Row(int(gid))
			if verify && covered[gid] {
				for j := range dst {
					if math.Float64bits(dst[j]) != math.Float64bits(row[j]) {
						return nil, nil, fmt.Errorf("bsp: replicas of vertex %d disagree at column %d", gid, j)
					}
				}
			}
			copy(dst, row)
			covered[gid] = true
		}
	}
	return values, covered, nil
}

// agreeingValues returns per-worker matrices whose replicas agree: vertex
// v's row is v + j/8 in column j.
func agreeingValues(subs []*bsp.Subgraph, width int) []*graph.ValueMatrix {
	vals := make([]*graph.ValueMatrix, len(subs))
	for w, sub := range subs {
		vals[w] = graph.NewValueMatrix(sub.NumLocalVertices(), width)
		for l, gid := range sub.GlobalIDs {
			for j := range width {
				vals[w].Row(l)[j] = float64(gid) + float64(j)/8
			}
		}
	}
	return vals
}

// sameBits reports whether two matrices hold the same bits.
func sameBits(a, b *graph.ValueMatrix) bool {
	return a.Width == b.Width && slices.EqualFunc(a.Data, b.Data, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// TestAssembleValuesMatchesSerialReference: over the generated graphs, the
// paper's partitioners, k ∈ {1, 3, 8} and widths 1 and 3, the
// master-written assembly equals the serial all-replica one, with and
// without verification, and the masters (Routing().Owned) number exactly
// the covered vertices. A mirror that disagrees fails verification naming
// the vertex; without verification its master's row wins.
func TestAssembleValuesMatchesSerialReference(t *testing.T) {
	for gname, g := range testGraphs(t) {
		for _, p := range allPartitioners() {
			for _, k := range []int{1, 3, 8} {
				subs := buildSubs(t, g, p, k)
				for _, width := range []int{1, 3} {
					label := fmt.Sprintf("%s/%s/k%d/w%d", gname, p.Name(), k, width)
					vals := agreeingValues(subs, width)
					want, wantCovered, err := serialAssemble(subs, vals, width, true)
					if err != nil {
						t.Fatalf("%s: reference: %v", label, err)
					}
					for _, verify := range []bool{false, true} {
						got, covered, err := bsp.AssembleValues(subs, vals, width, verify)
						if err != nil {
							t.Fatalf("%s verify=%t: %v", label, verify, err)
						}
						if !sameBits(got, want) || !slices.Equal(covered, wantCovered) {
							t.Fatalf("%s verify=%t: assembly differs from the serial reference", label, verify)
						}
					}
					owned, nCovered := 0, 0
					for _, sub := range subs {
						owned += len(sub.Routing().Owned)
					}
					for _, c := range wantCovered {
						if c {
							nCovered++
						}
					}
					if owned != nCovered {
						t.Fatalf("%s: Σ|Owned| = %d, covered vertices = %d", label, owned, nCovered)
					}
				}
			}
		}
	}
}

// TestAssembleValuesMasterRowWins: a mirror whose row disagrees with its
// master's fails verification naming the vertex, and without verification
// the vertex's row is its master's.
func TestAssembleValuesMasterRowWins(t *testing.T) {
	_, subs := starGraph(t, 40, 4) // the hub, vertex 0, is mastered by worker 0
	vals := agreeingValues(subs, 2)
	hub, _ := subs[3].LocalOf(0)
	vals[3].Row(int(hub))[1] = 7
	if _, _, err := bsp.AssembleValues(subs, vals, 2, true); err == nil ||
		!strings.Contains(err.Error(), "replicas of vertex 0 disagree at column 1: 0.125 vs 7 (worker 3)") {
		t.Fatalf("disagreeing mirror: err = %v", err)
	}
	res, _, err := bsp.AssembleValues(subs, vals, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if row := res.Row(0); row[0] != 0 || row[1] != 0.125 {
		t.Fatalf("hub row = %v, want the master's [0 0.125]", row)
	}
}

// BenchmarkAssembleValues times result assembly of a k = 8 EBV partition of
// the 50 k / 500 k power-law graph, at widths 1 and 8, with and without
// replica verification.
func BenchmarkAssembleValues(b *testing.B) {
	const k = 8
	g, a := benchPartitioned(b, k)
	subs, err := bsp.BuildSubgraphs(g, a)
	if err != nil {
		b.Fatal(err)
	}
	for _, width := range []int{1, 8} {
		vals := agreeingValues(subs, width)
		for _, verify := range []bool{false, true} {
			b.Run(fmt.Sprintf("w%d/verify=%t", width, verify), func(b *testing.B) {
				for b.Loop() {
					if _, _, err := bsp.AssembleValues(subs, vals, width, verify); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
