package graph

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

// benchEdgeListText builds a deterministic ~n-edge SNAP text file.
func benchEdgeListText(n int) []byte {
	var sb strings.Builder
	sb.Grow(n * 12)
	state := uint64(2021)
	for i := 0; i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		fmt.Fprintf(&sb, "%d\t%d\n", state%100000, (state>>32)%100000)
	}
	return []byte(sb.String())
}

// BenchmarkReadEdgeList compares the sequential baseline (parallelism 1)
// against the chunked parallel parse at GOMAXPROCS.
func BenchmarkReadEdgeList(b *testing.B) {
	data := benchEdgeListText(500000)
	for _, bc := range []struct {
		name string
		par  int
	}{
		{"seq", 1},
		{fmt.Sprintf("par%d", runtime.GOMAXPROCS(0)), runtime.GOMAXPROCS(0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ReadEdgeListParallel(bytes.NewReader(data), false, bc.par); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSortedBySumDegree measures the §IV-C preprocessing at the
// benchmark's scale (100 k vertices, 1 M edges).
func BenchmarkSortedBySumDegree(b *testing.B) {
	g := benchBinaryGraph(b, 1000000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if order := g.SortedBySumDegree(); len(order) != g.NumEdges() {
			b.Fatal("short order")
		}
	}
}

func benchBinaryGraph(b *testing.B, n int) *Graph {
	b.Helper()
	edges := make([]Edge, n)
	state := uint64(7)
	for i := range edges {
		state = state*6364136223846793005 + 1442695040888963407
		edges[i] = Edge{Src: VertexID(state % 100000), Dst: VertexID((state >> 32) % 100000)}
	}
	g, err := New(100000, edges)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkWriteBinary measures the bulk-buffered binary writer.
func BenchmarkWriteBinary(b *testing.B) {
	g := benchBinaryGraph(b, 500000)
	b.SetBytes(int64(g.NumEdges() * 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteBinary(io.Discard, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadBinary measures the bulk-buffered binary reader.
func BenchmarkReadBinary(b *testing.B) {
	g := benchBinaryGraph(b, 500000)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
