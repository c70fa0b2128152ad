package bsp_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"ebv/internal/bsp"
	"ebv/internal/graph"
	"ebv/internal/partition"
)

// serialAssemble is AssembleValues before masters wrote the result: one
// serial pass over every replica of every worker, each writing its row
// (the highest-id replica's last) after comparing it bit for bit with the
// row the previous replica wrote. It is the reference the master-written
// assembly is held to.
func serialAssemble(subs []*bsp.Subgraph, workerValues []*graph.ValueMatrix, width int) (*graph.ValueMatrix, []bool, error) {
	values := graph.NewValueMatrix(subs[0].NumGlobalVertices, width)
	covered := make([]bool, subs[0].NumGlobalVertices)
	for w, sub := range subs {
		for local, gid := range sub.GlobalIDs {
			row, dst := workerValues[w].Row(local), values.Row(int(gid))
			if covered[gid] {
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
// master-written assembly equals the serial all-replica one, and the
// masters (Routing().Owned) number exactly the covered vertices. Changing
// the last column of the last worker's last mirror fails the assembly,
// naming that vertex, worker and master.
func TestAssembleValuesMatchesSerialReference(t *testing.T) {
	for gname, g := range testGraphs(t) {
		for _, p := range allPartitioners() {
			for _, k := range []int{1, 3, 8} {
				subs := buildSubs(t, g, p, k)
				for _, width := range []int{1, 3} {
					label := fmt.Sprintf("%s/%s/k%d/w%d", gname, p.Name(), k, width)
					vals := agreeingValues(subs, width)
					want, wantCovered, err := serialAssemble(subs, vals, width)
					if err != nil {
						t.Fatalf("%s: reference: %v", label, err)
					}
					got, covered, err := bsp.AssembleValues(subs, vals, width)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !sameBits(got, want) || !slices.Equal(covered, wantCovered) {
						t.Fatalf("%s: assembly differs from the serial reference", label)
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
					checkLastMirrorCaught(t, label, subs, vals, width)
				}
			}
		}
	}
}

// checkLastMirrorCaught changes the last column of the last mirror row of
// the highest worker holding a mirror, and wants AssembleValues to name it.
func checkLastMirrorCaught(t *testing.T, label string, subs []*bsp.Subgraph, vals []*graph.ValueMatrix, width int) {
	t.Helper()
	for w := len(subs) - 1; w >= 0; w-- {
		cols := subs[w].Routing().ToMaster
		for q := len(cols) - 1; q >= 0; q-- {
			if n := len(cols[q].Locals); n > 0 {
				gid, row := cols[q].IDs[n-1], vals[w].Row(int(cols[q].Locals[n-1]))
				was := row[width-1]
				row[width-1] = -1
				defer func() { row[width-1] = was }()
				wantErr := fmt.Sprintf("bsp: replicas of vertex %d disagree at column %d: %g vs -1 (worker %d), master at worker %d",
					gid, width-1, was, w, q)
				if _, _, err := bsp.AssembleValues(subs, vals, width); err == nil || err.Error() != wantErr {
					t.Fatalf("%s: changed mirror: err = %v, want %q", label, err, wantErr)
				}
				return
			}
		}
	}
	if len(subs) > 1 {
		t.Fatalf("%s: no worker holds a mirror", label)
	}
}

// TestAssembleValuesMasterRowWins: a mirror whose row disagrees with its
// master's fails the assembly naming the vertex, the worker and the value.
func TestAssembleValuesMasterRowWins(t *testing.T) {
	_, subs := starGraph(t, 40, 4) // the hub, vertex 0, is mastered by worker 0
	vals := agreeingValues(subs, 2)
	hub, _ := subs[3].LocalOf(0)
	vals[3].Row(int(hub))[1] = 7
	if _, _, err := bsp.AssembleValues(subs, vals, 2); err == nil ||
		!strings.Contains(err.Error(), "replicas of vertex 0 disagree at column 1: 0.125 vs 7 (worker 3)") {
		t.Fatalf("disagreeing mirror: err = %v", err)
	}
}

// TestAssembleValuesRefusesUnpairedParts: parts from two different
// partitions of one path graph do not pair their send columns — worker 1
// holds mirrors of vertices 1 and 2 mastered at worker 0, whose part
// lists a mirror of vertex 1 alone on worker 1. The assembly fails naming
// both workers instead of reading past worker 0's column.
func TestAssembleValuesRefusesUnpairedParts(t *testing.T) {
	g, err := graph.New(4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}})
	if err != nil {
		t.Fatal(err)
	}
	build := func(parts ...int32) []*bsp.Subgraph {
		subs, err := bsp.BuildSubgraphs(g, &partition.Assignment{K: 2, Parts: parts})
		if err != nil {
			t.Fatal(err)
		}
		return subs
	}
	subs := []*bsp.Subgraph{build(0, 1, 1)[0], build(0, 1, 0)[1]}
	want := "bsp: worker 1 holds 2 mirrors of worker 0, which lists 1"
	if _, _, err := bsp.AssembleValues(subs, agreeingValues(subs, 1), 1); err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// BenchmarkAssembleValues times result assembly, the replica check
// included, of a k = 8 EBV partition of the 50 k / 500 k power-law graph,
// at widths 1 and 8.
func BenchmarkAssembleValues(b *testing.B) {
	const k = 8
	g, a := benchPartitioned(b, k)
	subs, err := bsp.BuildSubgraphs(g, a)
	if err != nil {
		b.Fatal(err)
	}
	for _, width := range []int{1, 8} {
		vals := agreeingValues(subs, width)
		b.Run(fmt.Sprintf("w%d", width), func(b *testing.B) {
			for b.Loop() {
				if _, _, err := bsp.AssembleValues(subs, vals, width); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
