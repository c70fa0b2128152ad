package graph

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// FuzzReadEdgeList checks that arbitrary text input never panics the
// parser, that the chunked parallel parse agrees exactly with a sequential
// one (same graph or same error, line number included), and that anything
// the parser accepts survives a write/read round trip.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n5\t7\n")
	f.Add("")
	f.Add("a b\n")
	f.Add("4294967295 0\n")
	f.Add("1 2 3 4\n")
	f.Add("0 1\r\n\n% c\n2 2")
	f.Fuzz(func(t *testing.T, input string) {
		data := []byte(input)
		if hasLongDigitRun(data, 7) {
			// Ids >= 10^6 allocate dense per-vertex arrays up to GiBs
			// (the loader cap admits 2^28), and this body holds up to
			// three graphs at once — enough to OOM the fuzz worker.
			// Parser semantics don't depend on id magnitude; the cap and
			// overflow errors are pinned by crafted tests instead.
			return
		}
		g, err := readEdgeListChunked(data, false, 1, len(data)+1)
		gp, errp := readEdgeListChunked(data, false, 4, 7)
		if (err == nil) != (errp == nil) {
			t.Fatalf("sequential err = %v, parallel err = %v", err, errp)
		}
		if err != nil {
			if err.Error() != errp.Error() {
				t.Fatalf("sequential err %q, parallel err %q", err, errp)
			}
			return // rejected input is fine; panics are not
		}
		if g.NumVertices() != gp.NumVertices() || g.NumEdges() != gp.NumEdges() {
			t.Fatalf("parallel parse diverged: V %d/%d, E %d/%d",
				g.NumVertices(), gp.NumVertices(), g.NumEdges(), gp.NumEdges())
		}
		for i := 0; i < g.NumEdges(); i++ {
			if g.Edge(i) != gp.Edge(i) {
				t.Fatalf("parallel parse reordered edge %d: %v != %v", i, g.Edge(i), gp.Edge(i))
			}
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write accepted graph: %v", err)
		}
		g2, err := ReadEdgeList(&buf, false)
		if err != nil {
			t.Fatalf("re-read own output: %v", err)
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed edge count %d -> %d", g.NumEdges(), g2.NumEdges())
		}
	})
}

// FuzzReadEdgeListUndirected mirrors FuzzReadEdgeList for mirrored inputs,
// where self-loops are stored once: accepted graphs must survive the
// undirected write/read round trip with edge order preserved.
func FuzzReadEdgeListUndirected(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("0 0\n1 1\n0 1\n")
	f.Add("2 1\n1 0\n")
	f.Fuzz(func(t *testing.T, input string) {
		if hasLongDigitRun([]byte(input), 7) {
			return // see FuzzReadEdgeList: avoid multi-GiB degree arrays
		}
		g, err := ReadEdgeList(strings.NewReader(input), true)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write accepted graph: %v", err)
		}
		g2, err := ReadEdgeList(&buf, true)
		if err != nil {
			t.Fatalf("re-read own output: %v", err)
		}
		if !g2.Undirected() {
			t.Fatal("round trip lost the undirected flag")
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: V %d->%d, E %d->%d",
				g.NumVertices(), g2.NumVertices(), g.NumEdges(), g2.NumEdges())
		}
	})
}

// hasLongDigitRun reports whether data contains n or more consecutive
// ASCII digits (a vertex id of at least 10^(n-1)).
func hasLongDigitRun(data []byte, n int) bool {
	run := 0
	for _, c := range data {
		if c < '0' || c > '9' {
			run = 0
			continue
		}
		if run++; run >= n {
			return true
		}
	}
	return false
}

// FuzzReadBinary checks the binary graph reader against corrupt input.
func FuzzReadBinary(f *testing.F) {
	// Seed with one valid file and a few corruptions of it.
	g, err := New(3, []Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 0}})
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := WriteBinary(&valid, g); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	truncated := valid.Bytes()[:len(valid.Bytes())-3]
	f.Add(truncated)
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 16 && binary.LittleEndian.Uint32(data[12:16]) > 1<<20 {
			return // huge header vertex counts allocate GiB degree arrays
		}
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted graphs must be internally consistent.
		for i := 0; i < g.NumEdges(); i++ {
			e := g.Edge(i)
			if int(e.Src) >= g.NumVertices() || int(e.Dst) >= g.NumVertices() {
				t.Fatalf("accepted graph has out-of-range edge %v", e)
			}
		}
	})
}

// FuzzSortedBySumDegree checks the counting sort against the comparison-sort
// oracle on arbitrary small multigraphs: every byte pair is one edge over
// numV%64+1 vertices, so self-loops, duplicates and isolated vertices are
// the common case.
func FuzzSortedBySumDegree(f *testing.F) {
	f.Add([]byte{}, uint8(0), false)
	f.Add([]byte{0, 0, 0, 0}, uint8(0), true)
	f.Add([]byte{0, 1, 0, 2, 0, 3, 4, 5, 0, 1}, uint8(5), false)
	f.Add([]byte{3, 1, 1, 3, 2, 2, 0, 4}, uint8(4), true)
	f.Fuzz(func(t *testing.T, data []byte, numV uint8, undirected bool) {
		n := int(numV)%64 + 1
		edges := make([]Edge, len(data)/2)
		for i := range edges {
			edges[i] = Edge{Src: VertexID(int(data[2*i]) % n), Dst: VertexID(int(data[2*i+1]) % n)}
		}
		build := New
		if undirected {
			build = NewUndirected
		}
		g, err := build(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		assertSortMatchesReference(t, g)
	})
}
