package partition

import (
	"math/rand"
	"slices"
	"testing"

	"ebv/internal/graph"
)

// TestStateMatchesMetricsAndSets places every edge of a random assignment
// on random multigraphs with self-loops and duplicate edges, across part
// counts on both sides of the 64-bit membership word: the counters must
// equal ComputeMetrics' raw counts, Covers must equal VertexSets, and
// StateOf over those sets must rebuild the placed state word for word.
func TestStateMatchesMetricsAndSets(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(150)
		k := []int{1, 3, 64, 65, 130}[seed%5]
		edges := make([]graph.Edge, r.Intn(2000))
		for i := range edges {
			u := graph.VertexID(r.Intn(n))
			v := graph.VertexID(r.Intn(n))
			switch r.Intn(8) {
			case 0:
				v = u // self-loop
			case 1:
				if i > 0 {
					u, v = edges[i-1].Src, edges[i-1].Dst // duplicate
				}
			}
			edges[i] = graph.Edge{Src: u, Dst: v}
		}
		g, err := graph.New(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		a := NewAssignment(k, len(edges))
		st := NewState(n, k)
		if st.K() != k {
			t.Fatalf("seed %d: K() = %d, want %d", seed, st.K(), k)
		}
		for i, e := range edges {
			a.Parts[i] = int32(r.Intn(k))
			st.Place(e, int(a.Parts[i]))
		}

		m, err := ComputeMetrics(g, a)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(st.Ecount, m.EdgesPerPart) || !slices.Equal(st.Vcount, m.VerticesPerPart) {
			t.Fatalf("seed %d k=%d: counters %v / %v, metrics %v / %v",
				seed, k, st.Ecount, st.Vcount, m.EdgesPerPart, m.VerticesPerPart)
		}
		sumV := 0
		for _, c := range m.VerticesPerPart {
			sumV += c
		}
		if st.Edges != len(edges) || st.Replicas != sumV {
			t.Fatalf("seed %d k=%d: Edges=%d Replicas=%d, want %d and %d",
				seed, k, st.Edges, st.Replicas, len(edges), sumV)
		}
		sets := a.VertexSets(g)
		for p := 0; p < k; p++ {
			for v := 0; v < n; v++ {
				if st.Covers(p, graph.VertexID(v)) != sets[p].Get(v) {
					t.Fatalf("seed %d k=%d: Covers(%d, %d) = %v, VertexSets says %v",
						seed, k, p, v, !sets[p].Get(v), sets[p].Get(v))
				}
			}
		}
		of := StateOf(n, sets, a.EdgeCounts())
		if !slices.Equal(of.Ecount, st.Ecount) ||
			!slices.Equal(of.Vcount, st.Vcount) || of.Edges != st.Edges || of.Replicas != st.Replicas {
			t.Fatalf("seed %d k=%d: StateOf differs from the placed state", seed, k)
		}
		for v := 0; v < n; v++ {
			if !slices.Equal(of.Row(graph.VertexID(v)), st.Row(graph.VertexID(v))) {
				t.Fatalf("seed %d k=%d: row %d differs", seed, k, v)
			}
		}
	}
}
