package ne

import (
	"errors"
	"testing"

	"ebv/internal/gen"
	"ebv/internal/graph"
	"ebv/internal/partition"
)

func TestNEBalancesEdges(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: 2000, NumEdges: 16000, Eta: 2.2, Directed: true, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4, 8} {
		a, err := (&NE{}).Partition(t.Context(), g, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		m, err := partition.ComputeMetrics(g, a)
		if err != nil {
			t.Fatal(err)
		}
		// NE's defining property: edge quotas are met almost exactly.
		if m.EdgeImbalance > 1.01 {
			t.Errorf("k=%d: edge imbalance %.4f, want ≈1.00", k, m.EdgeImbalance)
		}
	}
}

func TestNEVertexImbalanceGrowsWithSkew(t *testing.T) {
	// The paper's Table III: NE's vertex imbalance degrades as η falls.
	mild, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: 4000, NumEdges: 32000, Eta: 2.8, Directed: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: 4000, NumEdges: 32000, Eta: 1.9, Directed: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	vif := func(g *graph.Graph) float64 {
		a, err := (&NE{}).Partition(t.Context(), g, 8)
		if err != nil {
			t.Fatal(err)
		}
		m, err := partition.ComputeMetrics(g, a)
		if err != nil {
			t.Fatal(err)
		}
		return m.VertexImbalance
	}
	vMild, vSkewed := vif(mild), vif(skewed)
	if vSkewed <= vMild {
		t.Errorf("vertex imbalance: skewed %.3f <= mild %.3f; Table III trend inverted",
			vSkewed, vMild)
	}
}

func TestNELowReplicationOnRoad(t *testing.T) {
	// On the non-power-law road graph NE keeps locality: its RF must be
	// near 1 and far below a random vertex-cut's (Table III USARoad row).
	g, err := gen.Road(gen.RoadConfig{Width: 60, Height: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	aNE, err := (&NE{}).Partition(t.Context(), g, 12)
	if err != nil {
		t.Fatal(err)
	}
	mNE, err := partition.ComputeMetrics(g, aNE)
	if err != nil {
		t.Fatal(err)
	}
	aRand, err := (&partition.Random{}).Partition(t.Context(), g, 12)
	if err != nil {
		t.Fatal(err)
	}
	mRand, err := partition.ComputeMetrics(g, aRand)
	if err != nil {
		t.Fatal(err)
	}
	if mNE.ReplicationFactor >= mRand.ReplicationFactor {
		t.Errorf("NE RF %.3f >= Random RF %.3f on road graph",
			mNE.ReplicationFactor, mRand.ReplicationFactor)
	}
	if mNE.ReplicationFactor > 1.6 {
		t.Errorf("NE RF %.3f on road graph, want close to 1", mNE.ReplicationFactor)
	}
}

func TestNEEdgeCases(t *testing.T) {
	if _, err := (&NE{}).Partition(t.Context(), mustGraph(t, 3, nil), 2); err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	g := mustGraph(t, 2, []graph.Edge{{Src: 0, Dst: 1}})
	a, err := (&NE{}).Partition(t.Context(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := (&NE{}).Partition(t.Context(), g, 0); !errors.Is(err, partition.ErrBadPartCount) {
		t.Fatalf("err = %v, want ErrBadPartCount", err)
	}
}

func TestNEName(t *testing.T) {
	if got := (&NE{}).Name(); got != "NE" {
		t.Errorf("Name = %q", got)
	}
}

func mustGraph(t *testing.T, n int, edges []graph.Edge) *graph.Graph {
	t.Helper()
	g, err := graph.New(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
