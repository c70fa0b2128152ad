package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"ebv/internal/frame"
)

func TestReadEdgeListBasic(t *testing.T) {
	input := `# a comment
% another comment style
0 1
1	2
2 0
`
	g, err := ReadEdgeList(strings.NewReader(input), false)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got V=%d E=%d, want 3/3", g.NumVertices(), g.NumEdges())
	}
}

func TestReadEdgeListUndirected(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n1 2\n"), true)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("E=%d, want 4 mirrored", g.NumEdges())
	}
	if !g.Undirected() {
		t.Error("undirected flag lost")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",          // too few fields
		"a b\n",        // non-numeric src
		"0 b\n",        // non-numeric dst
		"0 4294967296", // overflows uint32
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in), false); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestTextRoundTripDirected(t *testing.T) {
	g := mustGraph(t, 4, []Edge{{0, 1}, {1, 2}, {3, 0}, {2, 2}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	g2, err := ReadEdgeList(&buf, false)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	assertSameGraph(t, g, g2)
}

func TestTextRoundTripUndirected(t *testing.T) {
	g, err := NewUndirected(3, []Edge{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	g2, err := ReadEdgeList(&buf, true)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip E=%d, want %d", g2.NumEdges(), g.NumEdges())
	}
}

func TestTextRoundTripUndirectedSelfLoops(t *testing.T) {
	// Self-loops are stored once (not mirrored) and written once; the
	// round trip must preserve both the edge multiset and its order.
	g, err := NewUndirected(4, []Edge{{0, 0}, {1, 2}, {3, 3}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	g2, err := ReadEdgeList(&buf, true)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if !g2.Undirected() {
		t.Error("undirected flag lost")
	}
	assertSameGraph(t, g, g2)
}

// failAfterWriter fails every Write once n bytes have been accepted.
type failAfterWriter struct {
	n       int
	written int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, errors.New("disk full")
	}
	w.written += len(p)
	return len(p), nil
}

func TestWriteEdgeListPropagatesWriteError(t *testing.T) {
	// Enough edges to overflow WriteEdgeList's buffer several times, so
	// the underlying writer's failure must surface from an edge write —
	// not only from the final Flush.
	edges := make([]Edge, 20000)
	for i := range edges {
		edges[i] = Edge{Src: VertexID(i), Dst: VertexID(i + 1)}
	}
	g := mustGraph(t, len(edges)+1, edges)
	err := WriteEdgeList(&failAfterWriter{n: 1 << 16}, g)
	if err == nil {
		t.Fatal("WriteEdgeList swallowed the writer error")
	}
	if !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("error %v does not propagate the writer failure", err)
	}
}

func TestWriteBinaryPropagatesWriteError(t *testing.T) {
	edges := make([]Edge, 20000)
	for i := range edges {
		edges[i] = Edge{Src: VertexID(i), Dst: VertexID(i + 1)}
	}
	g := mustGraph(t, len(edges)+1, edges)
	if err := WriteBinary(&failAfterWriter{n: 1 << 15}, g); err == nil {
		t.Fatal("WriteBinary swallowed the writer error")
	}
	if err := WriteBinary(&failAfterWriter{n: 0}, g); err == nil {
		t.Fatal("WriteBinary swallowed the header write error")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := mustGraph(t, 100, []Edge{{0, 99}, {50, 25}, {99, 0}})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	assertSameGraph(t, g, g2)
}

func TestBinaryRoundTripUndirectedFlag(t *testing.T) {
	g, err := NewUndirected(3, []Edge{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Undirected() {
		t.Error("undirected flag lost in binary round trip")
	}
}

func TestBinaryRoundTripUndirectedSelfLoops(t *testing.T) {
	g, err := NewUndirected(4, []Edge{{0, 0}, {1, 2}, {3, 3}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !g2.Undirected() {
		t.Error("undirected flag lost")
	}
	assertSameGraph(t, g, g2)
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a graph file at all......"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// A flag bit this build does not know is refused under a valid checksum.
	var buf bytes.Buffer
	if err := WriteBinary(&buf, mustGraph(t, 2, []Edge{{0, 1}})); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()[:buf.Len()-4]
	file[8] |= 1 << 1 // header word 0, the flags
	if _, err := ReadBinary(bytes.NewReader(frame.Seal(file))); err == nil || !strings.Contains(err.Error(), "unknown flags") {
		t.Fatalf("flag bit 1 under a valid checksum: err = %v, want an unknown-flags error", err)
	}
}

// TestReadBinaryEndpointPastInt32: an edge endpoint of 2³¹+3 under a valid
// checksum is refused by range on every platform; a 32-bit int would wrap
// it negative past the check and index out of range.
func TestReadBinaryEndpointPastInt32(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, mustGraph(t, 2, []Edge{{0, 1}})); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()[:buf.Len()-4]
	binary.LittleEndian.PutUint32(file[20:], 1<<31+3) // the first edge's source
	if _, err := ReadBinary(bytes.NewReader(frame.Seal(file))); !errors.Is(err, ErrVertexOutOfRange) {
		t.Fatalf("endpoint 2³¹+3 under a valid checksum: err = %v, want ErrVertexOutOfRange", err)
	}
}

func assertSameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() {
		t.Fatalf("V: %d != %d", a.NumVertices(), b.NumVertices())
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("E: %d != %d", a.NumEdges(), b.NumEdges())
	}
	for i := 0; i < a.NumEdges(); i++ {
		if a.Edge(i) != b.Edge(i) {
			t.Fatalf("edge %d: %v != %v", i, a.Edge(i), b.Edge(i))
		}
	}
}

func TestStatsBasic(t *testing.T) {
	g := mustGraph(t, 4, []Edge{{0, 1}, {0, 2}, {0, 3}})
	s := ComputeStats(g)
	if s.NumVertices != 4 || s.NumEdges != 3 {
		t.Fatalf("stats V=%d E=%d", s.NumVertices, s.NumEdges)
	}
	if s.MaxDegree != 3 {
		t.Errorf("MaxDegree = %d, want 3", s.MaxDegree)
	}
	if s.AverageDegree != 0.75 {
		t.Errorf("AverageDegree = %g, want 0.75", s.AverageDegree)
	}
}

func TestEstimateEtaUniform(t *testing.T) {
	// A degree-regular sample has no power-law tail: the MLE diverges
	// upward (large eta), never below ~2 for constant degrees > dmin.
	degrees := make([]int, 1000)
	for i := range degrees {
		degrees[i] = 3
	}
	eta := EstimateEta(degrees, 1)
	if eta < 1 {
		t.Fatalf("eta = %g, want >= 1", eta)
	}
}

func TestEstimateEtaEmpty(t *testing.T) {
	if eta := EstimateEta(nil, 1); !isNaN(eta) {
		t.Fatalf("eta of empty sample = %g, want NaN", eta)
	}
	if eta := EstimateEta([]int{0, 0}, 1); !isNaN(eta) {
		t.Fatalf("eta of zero degrees = %g, want NaN", eta)
	}
}

func isNaN(f float64) bool { return f != f }
