package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func mustGraph(t *testing.T, n int, edges []Edge) *Graph {
	t.Helper()
	g, err := New(n, edges)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return g
}

func TestNewBasics(t *testing.T) {
	g := mustGraph(t, 4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	if g.NumVertices() != 4 {
		t.Errorf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 5 {
		t.Errorf("NumEdges = %d, want 5", g.NumEdges())
	}
	if got := g.OutDegree(0); got != 2 {
		t.Errorf("OutDegree(0) = %d, want 2", got)
	}
	if got := g.InDegree(2); got != 2 {
		t.Errorf("InDegree(2) = %d, want 2", got)
	}
	if got := g.Degree(0); got != 3 {
		t.Errorf("Degree(0) = %d, want 3", got)
	}
	if g.Undirected() {
		t.Error("directed graph reported undirected")
	}
}

func TestNewRejectsOutOfRange(t *testing.T) {
	if _, err := New(2, []Edge{{0, 5}}); !errors.Is(err, ErrVertexOutOfRange) {
		t.Fatalf("err = %v, want ErrVertexOutOfRange", err)
	}
	if _, err := New(-1, nil); err == nil {
		t.Fatal("negative vertex count accepted")
	}
}

func TestNewUndirectedMirrors(t *testing.T) {
	g, err := NewUndirected(3, []Edge{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatalf("NewUndirected: %v", err)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4 (mirrored)", g.NumEdges())
	}
	if !g.Undirected() {
		t.Error("undirected flag not set")
	}
	if g.OutDegree(1) != 2 || g.InDegree(1) != 2 {
		t.Errorf("vertex 1 degrees out=%d in=%d, want 2/2", g.OutDegree(1), g.InDegree(1))
	}
}

func TestNewUndirectedSelfLoopStoredOnce(t *testing.T) {
	g, err := NewUndirected(2, []Edge{{0, 0}, {0, 1}})
	if err != nil {
		t.Fatalf("NewUndirected: %v", err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3 (loop once + mirrored pair)", g.NumEdges())
	}
}

func TestEmptyGraph(t *testing.T) {
	g := mustGraph(t, 0, nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	if g.AverageDegree() != 0 {
		t.Errorf("AverageDegree = %g, want 0", g.AverageDegree())
	}
	if g.MaxDegree() != 0 {
		t.Errorf("MaxDegree = %d, want 0", g.MaxDegree())
	}
}

func TestSortedBySumDegree(t *testing.T) {
	// Star around 0 plus a pendant pair: the pendant edge (3,4)... build
	// explicit graph: 0-1, 0-2, 0-3, 4-5. Degrees: 0:3, 1..3:1, 4:1, 5:1.
	g := mustGraph(t, 6, []Edge{{0, 1}, {0, 2}, {0, 3}, {4, 5}})
	order := g.SortedBySumDegree()
	if len(order) != 4 {
		t.Fatalf("order length %d", len(order))
	}
	// (4,5) has degree sum 2, the star edges have 4; (4,5) must be first.
	first := order[0].Edge
	if first.Src != 4 || first.Dst != 5 {
		t.Errorf("first edge %v, want (4,5)", first)
	}
	// Ties broken by (src, dst): star edges must appear in input order.
	for i := 1; i < 4; i++ {
		e := order[i].Edge
		if e.Src != 0 || e.Dst != VertexID(i) {
			t.Errorf("order[%d] = %v, want (0,%d)", i, e, i)
		}
	}
}

func TestSortedBySumDegreeDeterministic(t *testing.T) {
	g := mustGraph(t, 5, []Edge{{0, 1}, {2, 3}, {1, 2}, {3, 4}, {4, 0}})
	a := g.SortedBySumDegree()
	b := g.SortedBySumDegree()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d", i)
		}
	}
}

// referenceSortedBySumDegree is the comparison sort that SortedBySumDegree
// was until it became a counting sort. It stays here as the oracle: the
// production sort must return this permutation element for element.
func referenceSortedBySumDegree(g *Graph) []int32 {
	order := make([]int32, len(g.edges))
	for i := range order {
		order[i] = int32(i)
	}
	key := func(i int32) int64 {
		e := g.edges[i]
		return int64(g.outDeg[e.Src]+g.inDeg[e.Src]) + int64(g.outDeg[e.Dst]+g.inDeg[e.Dst])
	}
	sort.SliceStable(order, func(a, b int) bool {
		ka, kb := key(order[a]), key(order[b])
		if ka != kb {
			return ka < kb
		}
		ea, eb := g.edges[order[a]], g.edges[order[b]]
		if ea.Src != eb.Src {
			return ea.Src < eb.Src
		}
		return ea.Dst < eb.Dst
	})
	return order
}

func assertSortMatchesReference(t testing.TB, g *Graph) {
	t.Helper()
	want := referenceSortedBySumDegree(g)
	assertOrder(t, g, "SortedBySumDegree", g.SortedBySumDegree(), want)
	for _, pieces := range []int{2, 3, 7} {
		assertOrder(t, g, fmt.Sprintf("%d pieces", pieces), g.sortedBySumDegree(pieces), want)
	}
}

func assertOrder(t testing.TB, g *Graph, name string, got []IndexedEdge, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("V=%d E=%d %s: order has %d entries, reference %d", g.NumVertices(), g.NumEdges(), name, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i] || got[i].Edge != g.Edge(int(got[i].ID)) {
			t.Fatalf("V=%d E=%d %s: order[%d] = edge %d %v, reference has edge %d %v",
				g.NumVertices(), g.NumEdges(), name, i, got[i].ID, got[i].Edge, want[i], g.Edge(int(want[i])))
		}
	}
}

// TestSortedBySumDegreePieces runs the sort split up to 7 ways on a graph
// whose bucket arrays leave room for all 7 (|E| ≥ 7·max(|V|, 2·MaxDegree
// + 1)): the per-piece bucket offsets must give the reference permutation
// at every split.
func TestSortedBySumDegreePieces(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	edges := make([]Edge, 100000)
	for i := range edges {
		edges[i] = Edge{Src: VertexID(r.Intn(1000)), Dst: VertexID(r.Intn(1000))}
	}
	g := mustGraph(t, 1000, edges)
	if g.NumEdges() < 7*max(g.NumVertices(), 2*g.MaxDegree()+1) {
		t.Fatalf("test graph too small to split 7 ways (max degree %d)", g.MaxDegree())
	}
	assertSortMatchesReference(t, g)
}

func TestSortedBySumDegreeMatchesReference(t *testing.T) {
	// A star of 40 000 leaves, mirrored: the hub's degree is 80 000, so
	// every key exceeds 2^16 and the bucket array outgrows |V|.
	star := make([]Edge, 40000)
	for i := range star {
		star[i] = Edge{Src: 0, Dst: VertexID(i + 1)}
	}
	hub, err := NewUndirected(len(star)+1, star)
	if err != nil {
		t.Fatal(err)
	}
	mirrored, err := NewUndirected(5, []Edge{{3, 1}, {1, 3}, {2, 2}, {0, 4}, {3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{
		"no edges":        mustGraph(t, 5, nil),
		"no vertices":     mustGraph(t, 0, nil),
		"one vertex":      mustGraph(t, 1, []Edge{{0, 0}, {0, 0}, {0, 0}}),
		"duplicate edges": mustGraph(t, 4, []Edge{{2, 1}, {0, 1}, {2, 1}, {0, 1}, {1, 2}, {2, 1}}),
		"isolated":        mustGraph(t, 100, []Edge{{99, 0}, {50, 50}, {0, 99}}),
		"mirrored pairs":  mirrored,
		"hub over 2^16":   hub,
	} {
		t.Run(name, func(t *testing.T) { assertSortMatchesReference(t, g) })
	}

	// Seeded random multigraphs: endpoints drawn from a few hot vertices
	// half the time, so duplicates, self-loops and large tied key classes
	// are common, and some vertices stay isolated.
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		numV := 1 + r.Intn(60)
		endpoint := func() VertexID {
			if r.Intn(2) == 0 {
				return VertexID(r.Intn(min(numV, 3)))
			}
			return VertexID(r.Intn(numV))
		}
		edges := make([]Edge, r.Intn(400))
		for i := range edges {
			edges[i] = Edge{Src: endpoint(), Dst: endpoint()}
		}
		build := New
		if seed%3 == 0 {
			build = NewUndirected
		}
		g, err := build(numV, edges)
		if err != nil {
			t.Fatal(err)
		}
		assertSortMatchesReference(t, g)
	}
}

func TestCSRRoundTrip(t *testing.T) {
	edges := []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 0}, {3, 3}}
	g := mustGraph(t, 4, edges)
	out := BuildCSR(g)
	in := BuildCSR(Reverse(g))
	if out.NumEdges() != len(edges) || in.NumEdges() != len(edges) {
		t.Fatalf("CSR edge counts out=%d in=%d", out.NumEdges(), in.NumEdges())
	}
	if got := out.Neighbors(0); len(got) != 2 {
		t.Fatalf("out-neighbors of 0: %v", got)
	}
	if got := in.Neighbors(2); len(got) != 2 {
		t.Fatalf("in-neighbors of 2: %v", got)
	}
	// EdgeIndices must map back to the original edge list, in both views.
	for v := 0; v < 4; v++ {
		nbrs := out.Neighbors(VertexID(v))
		idxs := out.EdgeIndices(VertexID(v))
		for j := range nbrs {
			e := g.Edge(int(idxs[j]))
			if e.Src != VertexID(v) || e.Dst != nbrs[j] {
				t.Fatalf("edge index mismatch at v=%d slot %d: %v", v, j, e)
			}
		}
		for j, src := range in.Neighbors(VertexID(v)) {
			if e := g.Edge(int(in.EdgeIndices(VertexID(v))[j])); e.Dst != VertexID(v) || e.Src != src {
				t.Fatalf("in-edge index mismatch at v=%d slot %d: %v", v, j, e)
			}
		}
	}
	if out.NumVertices() != 4 {
		t.Errorf("CSR NumVertices = %d", out.NumVertices())
	}
	if out.Degree(0) != 2 {
		t.Errorf("CSR Degree(0) = %d", out.Degree(0))
	}
}

func TestCSREmptyVertex(t *testing.T) {
	g := mustGraph(t, 3, []Edge{{0, 1}})
	csr := BuildCSR(g)
	if len(csr.Neighbors(2)) != 0 {
		t.Fatalf("isolated vertex has neighbors")
	}
}
