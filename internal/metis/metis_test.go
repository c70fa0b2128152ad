package metis

import (
	"errors"
	"testing"

	"ebv/internal/gen"
	"ebv/internal/graph"
	"ebv/internal/partition"
)

func TestMetisBalancesVertices(t *testing.T) {
	g, err := gen.Road(gen.RoadConfig{Width: 50, Height: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4, 8} {
		m := &Metis{}
		owners, err := m.VertexPartition(t.Context(), g, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		counts := make([]int, k)
		for _, p := range owners {
			if p < 0 || int(p) >= k {
				t.Fatalf("owner %d out of range", p)
			}
			counts[p]++
		}
		maxC := 0
		for _, c := range counts {
			if c > maxC {
				maxC = c
			}
		}
		imb := float64(maxC) / (float64(g.NumVertices()) / float64(k))
		// METIS's ε is 0.05; allow some slack for the simplified
		// refinement on small graphs.
		if imb > 1.15 {
			t.Errorf("k=%d: vertex-ownership imbalance %.3f, want ≈1.05", k, imb)
		}
	}
}

func TestMetisLowCutOnRoad(t *testing.T) {
	// On a near-planar road graph the multilevel scheme must find a far
	// better cut than random vertex ownership.
	g, err := gen.Road(gen.RoadConfig{Width: 50, Height: 50, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	m := &Metis{}
	owners, err := m.VertexPartition(t.Context(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	cut := cutEdges(g, owners)
	randomOwners := make([]int32, g.NumVertices())
	for v := range randomOwners {
		randomOwners[v] = int32(v % 4)
	}
	randomCut := cutEdges(g, randomOwners)
	if cut*4 > randomCut {
		t.Errorf("METIS cut %d not far below random cut %d", cut, randomCut)
	}
}

func cutEdges(g *graph.Graph, owners []int32) int {
	cut := 0
	for _, e := range g.Edges() {
		if owners[e.Src] != owners[e.Dst] {
			cut++
		}
	}
	return cut
}

func TestMetisEdgeImbalanceBlowsUpOnPowerLaw(t *testing.T) {
	// Table III's defining METIS behaviour: vertex balance ≈ 1 but edge
	// imbalance far above EBV's on skewed graphs.
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: 4000, NumEdges: 48000, Eta: 1.9, Directed: true, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := (&Metis{}).Partition(t.Context(), g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := partition.ComputeMetrics(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if m.EdgeImbalance < 1.3 {
		t.Errorf("edge imbalance %.3f; expected the power-law blow-up (>1.3)", m.EdgeImbalance)
	}
	// Under the paper's edge-cut definitions (Table III), the OWNED
	// vertex sets stay balanced even though the edge sets blow up.
	owners, err := (&Metis{}).VertexPartition(t.Context(), g, 8)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := ComputeEdgeCutMetrics(g, owners, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ec.VertexImbalance > 1.15 {
		t.Errorf("edge-cut vertex imbalance %.3f, want ≈1.05", ec.VertexImbalance)
	}
	if ec.EdgeImbalance < 1.3 {
		t.Errorf("edge-cut edge imbalance %.3f; expected blow-up", ec.EdgeImbalance)
	}
}

func TestComputeEdgeCutMetricsErrors(t *testing.T) {
	g, err := graph.New(3, []graph.Edge{{Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ComputeEdgeCutMetrics(g, []int32{0}, 2); err == nil {
		t.Error("short owners accepted")
	}
	if _, err := ComputeEdgeCutMetrics(g, []int32{0, 9, 0}, 2); err == nil {
		t.Error("out-of-range owner accepted")
	}
}

func TestMetisAssignmentMatchesOwnership(t *testing.T) {
	g, err := gen.ErdosRenyi(gen.ErdosRenyiConfig{
		NumVertices: 500, NumEdges: 3000, Directed: true, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := &Metis{}
	a, err := m.Partition(t.Context(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	owners, err := m.VertexPartition(t.Context(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range g.Edges() {
		if a.Parts[i] != owners[e.Src] {
			t.Fatalf("edge %d on part %d, source owner %d", i, a.Parts[i], owners[e.Src])
		}
	}
}

func TestMetisDeterministic(t *testing.T) {
	g, err := gen.Road(gen.RoadConfig{Width: 30, Height: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := (&Metis{Seed: 5}).Partition(t.Context(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := (&Metis{Seed: 5}).Partition(t.Context(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.Parts {
		if a1.Parts[i] != a2.Parts[i] {
			t.Fatalf("edge %d differs across identical seeds", i)
		}
	}
}

func TestMetisEdgeCases(t *testing.T) {
	empty, err := graph.New(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Metis{}).Partition(t.Context(), empty, 2); err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	g, err := graph.New(2, []graph.Edge{{Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Metis{}).Partition(t.Context(), g, 0); !errors.Is(err, partition.ErrBadPartCount) {
		t.Fatalf("err = %v, want ErrBadPartCount", err)
	}
	a, err := (&Metis{}).Partition(t.Context(), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Parts[0] != 0 {
		t.Fatal("k=1 must assign everything to part 0")
	}
}

func TestMetisName(t *testing.T) {
	if got := (&Metis{}).Name(); got != "METIS" {
		t.Errorf("Name = %q", got)
	}
}
