package bsp_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/graph"
	"ebv/internal/partition"
)

// TestBuildSubgraphsParallelDeterministic asserts the parallel build is
// byte-identical to the sequential one (parallelism 1) for every part —
// ids, degrees, replica tables, CSR views, and the edge order within each
// part (the originating graph's edge-list order).
func TestBuildSubgraphsParallelDeterministic(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			a, err := core.New().Partition(t.Context(), g, 7)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := bsp.BuildSubgraphsParallel(g, a, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{2, 4, 16} {
				got, err := bsp.BuildSubgraphsParallel(g, a, par)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(seq) {
					t.Fatalf("parallelism %d: %d parts, want %d", par, len(got), len(seq))
				}
				for p := range seq {
					if !reflect.DeepEqual(seq[p], got[p]) {
						t.Fatalf("parallelism %d: part %d differs from sequential build", par, p)
					}
				}
			}
		})
	}
}

// TestBuildSubgraphsEdgeOrder pins the determinism contract directly: each
// part's local edges appear in ascending order of their global edge index.
func TestBuildSubgraphsEdgeOrder(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	a, err := core.New().Partition(t.Context(), g, 5)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := bsp.BuildSubgraphs(g, a)
	if err != nil {
		t.Fatal(err)
	}
	cursors := make([]int, len(subs))
	for i, e := range g.Edges() {
		sub := subs[a.Parts[i]]
		c := cursors[a.Parts[i]]
		if c >= len(sub.Edges) {
			t.Fatalf("part %d has %d edges, expected more", sub.Part, len(sub.Edges))
		}
		ls, okS := sub.LocalOf(e.Src)
		ld, okD := sub.LocalOf(e.Dst)
		if !okS || !okD {
			t.Fatalf("edge %d endpoints not covered by part %d", i, sub.Part)
		}
		if got := sub.Edges[c]; got.Src != graph.VertexID(ls) || got.Dst != graph.VertexID(ld) {
			t.Fatalf("part %d slot %d = %v, want localized edge %d (%d,%d)",
				sub.Part, c, got, i, ls, ld)
		}
		cursors[a.Parts[i]]++
	}
	for p, c := range cursors {
		if c != len(subs[p].Edges) {
			t.Fatalf("part %d: consumed %d of %d edges", p, c, len(subs[p].Edges))
		}
	}
}

// TestBuildSubgraphsWeightedParallelDeterministic covers the weighted
// variant: weights stay aligned with the part-local edge order under any
// parallelism.
func TestBuildSubgraphsWeightedParallelDeterministic(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	a, err := core.New().Partition(t.Context(), g, 6)
	if err != nil {
		t.Fatal(err)
	}
	weights := make(graph.EdgeWeights, g.NumEdges())
	for i := range weights {
		weights[i] = float64(i%97) + 1
	}
	seq, err := bsp.BuildSubgraphsWeightedParallel(g, a, weights, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := bsp.BuildSubgraphsWeightedParallel(g, a, weights, 8)
	if err != nil {
		t.Fatal(err)
	}
	for p := range seq {
		if !reflect.DeepEqual(seq[p], got[p]) {
			t.Fatalf("part %d differs from sequential weighted build", p)
		}
	}
}

// Header word indices of the shard format (serialize.go): word 2 is the
// flags, 3..5 the part labels, and each word from shardIDs on is the
// length of the column of the same position.
const (
	shardFlags = iota + 2
	shardPart
	shardWorkers
	shardGlobal
	shardIDs
	shardEdges
	shardPeerLens
	shardPeers
	shardOut
	shardIn
	shardWeights
	shardHeaderBytes = 4 * (shardWeights + 1)
)

// shardElemBytes is the element size of each column, by header word.
var shardElemBytes = map[int]int{
	shardIDs: 4, shardEdges: 8, shardPeerLens: 4, shardPeers: 4, shardOut: 4, shardIn: 4, shardWeights: 8,
}

// validShard encodes the 3-vertex, 2-edge part 0 of 2 every corruption
// below starts from: vertex 0 is replicated on part 1.
func validShard(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := bsp.WriteSubgraph(&buf, &bsp.Subgraph{
		Part:              0,
		NumWorkers:        2,
		NumGlobalVertices: 4,
		GlobalIDs:         []graph.VertexID{0, 1, 3},
		Edges:             []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}},
		ReplicaPeers:      [][]int32{{1}, nil, nil},
		GlobalOutDegree:   []int32{1, 1, 0},
		GlobalInDegree:    []int32{0, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func shardWord(b []byte, word int) int { return int(binary.LittleEndian.Uint32(b[4*word:])) }

func setShardWord(b []byte, word int, v uint32) { binary.LittleEndian.PutUint32(b[4*word:], v) }

// shardColumn returns the byte range of the column whose length is header
// word col.
func shardColumn(b []byte, col int) (start, end int) {
	start = shardHeaderBytes
	for c := shardIDs; c < col; c++ {
		start += shardWord(b, c) * shardElemBytes[c]
	}
	return start, start + shardWord(b, col)*shardElemBytes[col]
}

// setShardElems overwrites the leading 32-bit words of a column.
func setShardElems(b []byte, col int, words ...uint32) {
	start, _ := shardColumn(b, col)
	for i, w := range words {
		binary.LittleEndian.PutUint32(b[start+4*i:], w)
	}
}

// resizeShardColumn makes a column n elements long — cut from its end, or
// extended with zero elements — and states the new length in the header.
func resizeShardColumn(b []byte, col, n int) []byte {
	start, end := shardColumn(b, col)
	setShardWord(b, col, uint32(n))
	grown := make([]byte, n*shardElemBytes[col])
	copy(grown, b[start:end])
	return slices.Concat(b[:start], grown, b[end:])
}

// resealShard recomputes the trailing CRC-32C, so that what rejects a
// patched shard is the structural validation and not the checksum.
func resealShard(b []byte) []byte {
	body := b[:len(b)-4]
	return binary.LittleEndian.AppendUint32(body[:len(body):len(body)],
		crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}

// TestReadSubgraphValidatesLengths is the regression test for the missing
// GlobalInDegree/Weights length checks, grown into the corrupt-shard
// suite: a truncated per-vertex or per-edge column, or a value out of its
// range, must fail ReadSubgraph with a corruption error, not panic later
// at run time with index out of range. Every case is one edit on the
// valid shard's bytes, re-sealed.
func TestReadSubgraphValidatesLengths(t *testing.T) {
	if _, err := bsp.ReadSubgraph(bytes.NewReader(resealShard(validShard(t)))); err != nil {
		t.Fatalf("valid shard rejected: %v", err)
	}

	const minusOne = 0xFFFFFFFF
	corruptions := map[string]func(b []byte) []byte{
		"short-replica-peers": func(b []byte) []byte { return resizeShardColumn(b, shardPeerLens, 1) },
		"short-out-degree":    func(b []byte) []byte { return resizeShardColumn(b, shardOut, 2) },
		"short-in-degree":     func(b []byte) []byte { return resizeShardColumn(b, shardIn, 1) },
		"missing-in-degree":   func(b []byte) []byte { return resizeShardColumn(b, shardIn, 0) },
		"short-weights": func(b []byte) []byte {
			setShardWord(b, shardFlags, 1)
			return resizeShardColumn(b, shardWeights, 1)
		},
		"unsorted-global-ids":    func(b []byte) []byte { setShardElems(b, shardIDs, 0, 3, 1); return b },
		"duplicate-global-ids":   func(b []byte) []byte { setShardElems(b, shardIDs, 0, 1, 1); return b },
		"edge-out-of-localrange": func(b []byte) []byte { setShardElems(b, shardEdges, 0, 9); return resizeShardColumn(b, shardEdges, 1) },
		"gid-beyond-numglobal":   func(b []byte) []byte { setShardElems(b, shardIDs, 0, 1, 9); return b },
		"negative-numglobal":     func(b []byte) []byte { setShardWord(b, shardGlobal, minusOne); return b },
		// The field is 32 bits wide now; the cap it must respect is 1<<28.
		"huge-numglobal":      func(b []byte) []byte { setShardWord(b, shardGlobal, 1<<28+1); return b },
		"zero-workers":        func(b []byte) []byte { setShardWord(b, shardWorkers, 0); return b },
		"workers-beyond-cap":  func(b []byte) []byte { setShardWord(b, shardWorkers, partition.MaxParts+1); return b },
		"part-beyond-workers": func(b []byte) []byte { setShardWord(b, shardPart, 7); return b },
		"peer-beyond-workers": func(b []byte) []byte { setShardElems(b, shardPeers, 5); return b },
		"peer-negative":       func(b []byte) []byte { setShardElems(b, shardPeers, minusOne); return b },
		"peer-is-self":        func(b []byte) []byte { setShardElems(b, shardPeers, 0); return b },
		"peers-not-ascending": func(b []byte) []byte {
			setShardWord(b, shardWorkers, 4)
			setShardElems(b, shardPeerLens, 2)
			b = resizeShardColumn(b, shardPeers, 2)
			setShardElems(b, shardPeers, 2, 1)
			return b
		},
		// What only a flattened peer column and a flags word can get wrong.
		"peer-list-overruns-column": func(b []byte) []byte { setShardElems(b, shardPeerLens, 1, 1); return b },
		"peers-owned-by-no-vertex":  func(b []byte) []byte { setShardElems(b, shardPeerLens, 0); return b },
		"weights-without-flag":      func(b []byte) []byte { return resizeShardColumn(b, shardWeights, 2) },
		"unknown-flag":              func(b []byte) []byte { setShardWord(b, shardFlags, 2); return b },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			sub, err := bsp.ReadSubgraph(bytes.NewReader(resealShard(corrupt(validShard(t)))))
			if err == nil {
				t.Fatalf("corrupt shard accepted: %+v", sub)
			}
			if !strings.HasPrefix(err.Error(), "bsp:") || strings.Contains(err.Error(), "checksum") {
				t.Fatalf("unexpected error shape: %v", err)
			}
		})
	}
}
