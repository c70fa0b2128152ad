package ginger

import (
	"errors"
	"testing"

	"ebv/internal/gen"
	"ebv/internal/graph"
	"ebv/internal/partition"
)

func TestGingerBasics(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: 2000, NumEdges: 16000, Eta: 2.2, Directed: true, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4, 12} {
		a, err := (&Ginger{}).Partition(t.Context(), g, k)
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
		// Ginger is roughly balanced (Table III: ≤ ~1.1).
		if m.EdgeImbalance > 1.5 {
			t.Errorf("k=%d: edge imbalance %.3f", k, m.EdgeImbalance)
		}
		if m.VertexImbalance > 1.5 {
			t.Errorf("k=%d: vertex imbalance %.3f", k, m.VertexImbalance)
		}
	}
}

func TestGingerBeatsRandomOnReplication(t *testing.T) {
	// Ginger's locality objective must beat the pure random vertex-cut.
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: 3000, NumEdges: 24000, Eta: 2.1, Directed: true, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	aG, err := (&Ginger{}).Partition(t.Context(), g, 8)
	if err != nil {
		t.Fatal(err)
	}
	mG, err := partition.ComputeMetrics(g, aG)
	if err != nil {
		t.Fatal(err)
	}
	aR, err := (&partition.Random{}).Partition(t.Context(), g, 8)
	if err != nil {
		t.Fatal(err)
	}
	mR, err := partition.ComputeMetrics(g, aR)
	if err != nil {
		t.Fatal(err)
	}
	if mG.ReplicationFactor >= mR.ReplicationFactor {
		t.Errorf("Ginger RF %.3f >= Random RF %.3f", mG.ReplicationFactor, mR.ReplicationFactor)
	}
}

func TestGingerThreshold(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: 1000, NumEdges: 8000, Eta: 2.2, Directed: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := (&Ginger{Threshold: 50}).threshold(g); got != 50 {
		t.Errorf("explicit threshold = %d", got)
	}
	auto := (&Ginger{}).threshold(g)
	if auto < 4 {
		t.Errorf("auto threshold = %d, want >= 4", auto)
	}
}

func TestGingerEdgeCases(t *testing.T) {
	empty, err := graph.New(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Ginger{}).Partition(t.Context(), empty, 2); err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	g, err := graph.New(2, []graph.Edge{{Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Ginger{}).Partition(t.Context(), g, 0); !errors.Is(err, partition.ErrBadPartCount) {
		t.Fatalf("err = %v, want ErrBadPartCount", err)
	}
	a, err := (&Ginger{}).Partition(t.Context(), g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGingerCoversAllEdges(t *testing.T) {
	// Every edge is an in-edge of exactly one vertex, so the pass over
	// vertices must assign every edge exactly once.
	g, err := gen.RMAT(gen.RMATConfig{ScaleLog2: 9, NumEdges: 4000, Directed: true, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	a, err := (&Ginger{}).Partition(t.Context(), g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := a.EdgeCounts()
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != g.NumEdges() {
		t.Fatalf("Σ|Ei| = %d, want %d", sum, g.NumEdges())
	}
}

func TestGingerName(t *testing.T) {
	if got := (&Ginger{}).Name(); got != "Ginger" {
		t.Errorf("Name = %q", got)
	}
}
