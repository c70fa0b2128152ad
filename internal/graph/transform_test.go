package graph

import "testing"

func TestReverse(t *testing.T) {
	g := mustGraph(t, 3, []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	r := Reverse(g)
	if r.Edge(0) != (Edge{Src: 1, Dst: 0}) || r.Edge(1) != (Edge{Src: 2, Dst: 1}) {
		t.Fatalf("reversed edges: %v %v", r.Edge(0), r.Edge(1))
	}
	if r.OutDegree(0) != 0 || r.InDegree(0) != 1 {
		t.Fatal("degrees not transposed")
	}
	// Reverse twice = identity.
	rr := Reverse(r)
	for i := 0; i < g.NumEdges(); i++ {
		if rr.Edge(i) != g.Edge(i) {
			t.Fatalf("double reverse changed edge %d", i)
		}
	}
}

func TestHashWeightsSymmetricAndBounded(t *testing.T) {
	g, err := NewUndirected(50, []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 3, Dst: 4}})
	if err != nil {
		t.Fatal(err)
	}
	w := HashWeights(g, 7, 2, 9)
	if len(w) != g.NumEdges() {
		t.Fatalf("%d weights for %d edges", len(w), g.NumEdges())
	}
	byPair := map[[2]VertexID]float64{}
	for i, e := range g.Edges() {
		if w[i] < 2 || w[i] >= 9 {
			t.Fatalf("weight %g out of [2,9)", w[i])
		}
		lo, hi := e.Src, e.Dst
		if lo > hi {
			lo, hi = hi, lo
		}
		key := [2]VertexID{lo, hi}
		if prev, ok := byPair[key]; ok && prev != w[i] {
			t.Fatalf("mirrored edge %v has weights %g and %g", key, prev, w[i])
		}
		byPair[key] = w[i]
	}
}

func TestUniformWeights(t *testing.T) {
	g := mustGraph(t, 3, []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	for _, x := range UniformWeights(g) {
		if x != 1 {
			t.Fatal("non-unit uniform weight")
		}
	}
}

func TestHashWeightsDegenerateRange(t *testing.T) {
	g := mustGraph(t, 2, []Edge{{Src: 0, Dst: 1}})
	w := HashWeights(g, 1, 5, 5) // max <= min → span forced to 1
	if w[0] < 5 || w[0] >= 6 {
		t.Fatalf("weight %g out of [5,6)", w[0])
	}
}
