package partition

import (
	"testing"

	"ebv/internal/gen"
	"ebv/internal/graph"
)

// Tests for the streaming/related-work baselines: HDRF, Hybrid, Fennel.

func TestHDRFBasics(t *testing.T) {
	g := testGraph(t)
	for _, k := range []int{2, 4, 12} {
		a, err := (&HDRF{}).Partition(t.Context(), g, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		m := checkAssignment(t, g, a, k)
		// HDRF's λ term keeps edges balanced.
		if k > 1 && m.EdgeImbalance > 1.1 {
			t.Errorf("k=%d: edge imbalance %.3f", k, m.EdgeImbalance)
		}
	}
	if _, err := (&HDRF{}).Partition(t.Context(), g, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestHDRFBeatsRandomOnReplication(t *testing.T) {
	g := testGraph(t)
	aH, err := (&HDRF{}).Partition(t.Context(), g, 8)
	if err != nil {
		t.Fatal(err)
	}
	mH, err := ComputeMetrics(g, aH)
	if err != nil {
		t.Fatal(err)
	}
	aR, err := (&Random{}).Partition(t.Context(), g, 8)
	if err != nil {
		t.Fatal(err)
	}
	mR, err := ComputeMetrics(g, aR)
	if err != nil {
		t.Fatal(err)
	}
	if mH.ReplicationFactor >= mR.ReplicationFactor {
		t.Errorf("HDRF RF %.3f >= Random RF %.3f", mH.ReplicationFactor, mR.ReplicationFactor)
	}
}

func TestHDRFReplicatesHighDegreeFirst(t *testing.T) {
	// On a star plus a path, the hub must end up replicated while path
	// vertices stay (mostly) whole: HDRF's defining property.
	edges := make([]graph.Edge, 0, 40)
	for i := 1; i <= 20; i++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.VertexID(i)})
	}
	for i := 21; i < 40; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)})
	}
	g, err := graph.New(41, edges)
	if err != nil {
		t.Fatal(err)
	}
	// λ > 1 applies enough balance pressure that the hub (whose marginal
	// affinity score decays as 1/degree) is the vertex that gets cut.
	a, err := (&HDRF{Lambda: 3}).Partition(t.Context(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	reps := BuildReplicasFromSets(g.NumVertices(), a.VertexSets(g))
	hubReplicas := len(reps.Parts(0))
	maxPathReplicas := 0
	for v := 21; v <= 40; v++ {
		if r := len(reps.Parts(graph.VertexID(v))); r > maxPathReplicas {
			maxPathReplicas = r
		}
	}
	if hubReplicas < 2 {
		t.Errorf("hub has %d replicas, expected it to be cut", hubReplicas)
	}
	if maxPathReplicas > hubReplicas {
		t.Errorf("a path vertex (%d replicas) is cut more than the hub (%d)",
			maxPathReplicas, hubReplicas)
	}
}

func TestHybridBasics(t *testing.T) {
	g := testGraph(t)
	for _, k := range []int{2, 8} {
		a, err := (&Hybrid{}).Partition(t.Context(), g, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		checkAssignment(t, g, a, k)
	}
	if _, err := (&Hybrid{}).Partition(t.Context(), g, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestHybridCoLocatesLowDegreeInEdges(t *testing.T) {
	// All in-edges of a low-in-degree vertex must land on one part.
	g := testGraph(t)
	h := &Hybrid{Threshold: 1 << 30} // everything low-degree
	a, err := h.Partition(t.Context(), g, 8)
	if err != nil {
		t.Fatal(err)
	}
	partOf := make(map[graph.VertexID]int32)
	for i, e := range g.Edges() {
		if prev, ok := partOf[e.Dst]; ok {
			if prev != a.Parts[i] {
				t.Fatalf("in-edges of vertex %d split across parts %d and %d",
					e.Dst, prev, a.Parts[i])
			}
		} else {
			partOf[e.Dst] = a.Parts[i]
		}
	}
}

func TestHybridBetterThanRandomWorseOrEqualGinger(t *testing.T) {
	g := testGraph(t)
	rf := func(p Partitioner) float64 {
		a, err := p.Partition(t.Context(), g, 8)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ComputeMetrics(g, a)
		if err != nil {
			t.Fatal(err)
		}
		return m.ReplicationFactor
	}
	if hybrid, random := rf(&Hybrid{}), rf(&Random{}); hybrid >= random {
		t.Errorf("Hybrid RF %.3f >= Random RF %.3f", hybrid, random)
	}
}

func TestFennelBasics(t *testing.T) {
	g := testGraph(t)
	for _, k := range []int{2, 8} {
		a, err := (&Fennel{}).Partition(t.Context(), g, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		checkAssignment(t, g, a, k)
	}
	if _, err := (&Fennel{}).Partition(t.Context(), g, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestFennelRespectsCapacity(t *testing.T) {
	g := testGraph(t)
	const k = 8
	f := &Fennel{}
	owners, err := f.VertexPartition(t.Context(), g, k)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, k)
	for _, p := range owners {
		counts[p]++
	}
	cap := int(1.1*float64(g.NumVertices())/float64(k)) + 1
	for p, c := range counts {
		if c > cap {
			t.Errorf("part %d holds %d vertices, cap %d", p, c, cap)
		}
	}
}

func TestFennelBeatsRandomCutOnRoad(t *testing.T) {
	// Fennel's locality objective must beat round-robin ownership on a
	// road graph (count cut edges under the vertex partition).
	g, err := gen.Road(gen.RoadConfig{Width: 40, Height: 40, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	owners, err := (&Fennel{}).VertexPartition(t.Context(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	cut := 0
	for _, e := range g.Edges() {
		if owners[e.Src] != owners[e.Dst] {
			cut++
		}
	}
	roundRobinCut := 0
	for _, e := range g.Edges() {
		if e.Src%4 != e.Dst%4 {
			roundRobinCut++
		}
	}
	if cut >= roundRobinCut {
		t.Errorf("Fennel cut %d >= round-robin cut %d", cut, roundRobinCut)
	}
}

func TestFennelEmptyGraph(t *testing.T) {
	g, err := graph.New(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	owners, err := (&Fennel{}).VertexPartition(t.Context(), g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(owners) != 0 {
		t.Fatal("owners for empty graph")
	}
}

func TestNewBaselineNames(t *testing.T) {
	for _, name := range []string{"HDRF", "Hybrid", "Fennel"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
}
