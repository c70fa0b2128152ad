package core

import (
	"testing"

	"ebv/internal/gen"
	"ebv/internal/graph"
	"ebv/internal/partition"
)

func TestStreamingEBVBasics(t *testing.T) {
	g := powerLawGraph(t, 2.2, 40)
	for _, k := range []int{2, 8} {
		p := &PartitionStream{}
		a, err := p.Partition(t.Context(), g, k)
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
		if m.EdgeImbalance > 1.2 {
			t.Errorf("k=%d: streaming edge imbalance %.3f", k, m.EdgeImbalance)
		}
	}
}

func TestStreamingCloseToOffline(t *testing.T) {
	// The one-pass variant must stay within 25% of offline EBV-unsort's
	// replication factor (it sees the same order with running normalizers).
	g := powerLawGraph(t, 2.1, 41)
	const k = 8
	offline, err := New(WithOrder(OrderInput)).Partition(t.Context(), g, k)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := (&PartitionStream{}).Partition(t.Context(), g, k)
	if err != nil {
		t.Fatal(err)
	}
	mo, err := partition.ComputeMetrics(g, offline)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := partition.ComputeMetrics(g, stream)
	if err != nil {
		t.Fatal(err)
	}
	if ms.ReplicationFactor > mo.ReplicationFactor*1.25 {
		t.Errorf("streaming RF %.3f vs offline-unsort RF %.3f",
			ms.ReplicationFactor, mo.ReplicationFactor)
	}
}

func TestStreamingWindowHelps(t *testing.T) {
	// The ADWISE-style window should not hurt the replication factor.
	g := powerLawGraph(t, 2.1, 42)
	const k = 8
	plain, err := (&PartitionStream{}).Partition(t.Context(), g, k)
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := (&PartitionStream{Window: 64}).Partition(t.Context(), g, k)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := partition.ComputeMetrics(g, plain)
	if err != nil {
		t.Fatal(err)
	}
	mw, err := partition.ComputeMetrics(g, windowed)
	if err != nil {
		t.Fatal(err)
	}
	if mw.ReplicationFactor > mp.ReplicationFactor*1.05 {
		t.Errorf("windowed RF %.3f much worse than plain %.3f",
			mw.ReplicationFactor, mp.ReplicationFactor)
	}
}

func TestStreamingIncremental(t *testing.T) {
	// Drive the streaming API directly: every edge assigned exactly once,
	// counters consistent.
	g := powerLawGraph(t, 2.3, 43)
	var emitted int
	s, err := NewStreaming(StreamingConfig{
		K: 4, NumVertices: g.NumVertices(),
		Emit: func(e graph.Edge, part int) {
			if part < 0 || part >= 4 {
				t.Errorf("part %d out of range", part)
			}
			emitted++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if err := s.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	if emitted != g.NumEdges() {
		t.Fatalf("emitted %d assignments for %d edges", emitted, g.NumEdges())
	}
	counts := s.EdgeCounts()
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != g.NumEdges() {
		t.Fatalf("Σ ecount = %d, want %d", sum, g.NumEdges())
	}
	if rf := s.ReplicationFactor(); rf <= 0 {
		t.Fatalf("replication factor %g", rf)
	}
}

func TestStreamingRejectsBadInput(t *testing.T) {
	if _, err := NewStreaming(StreamingConfig{K: 0, NumVertices: 10}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewStreaming(StreamingConfig{K: 2, NumVertices: -1}); err == nil {
		t.Fatal("negative vertex space accepted")
	}
	if _, err := NewStreaming(StreamingConfig{K: 2, NumVertices: 4, Alpha: -1}); err == nil {
		t.Fatal("negative alpha accepted")
	}
	s, err := NewStreaming(StreamingConfig{K: 2, NumVertices: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(graph.Edge{Src: 0, Dst: 9}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestStreamingNames(t *testing.T) {
	if got := (&PartitionStream{}).Name(); got != "EBV-stream" {
		t.Errorf("Name = %q", got)
	}
	if got := (&PartitionStream{Window: 8}).Name(); got != "EBV-stream-window" {
		t.Errorf("Name = %q", got)
	}
}

func TestParallelEBVMatchesSequentialQuality(t *testing.T) {
	g := powerLawGraph(t, 2.1, 44)
	const k = 8
	seq, err := New().Partition(t.Context(), g, k)
	if err != nil {
		t.Fatal(err)
	}
	par, err := (&ParallelEBV{Workers: 4}).Partition(t.Context(), g, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := par.Validate(); err != nil {
		t.Fatal(err)
	}
	mseq, err := partition.ComputeMetrics(g, seq)
	if err != nil {
		t.Fatal(err)
	}
	mpar, err := partition.ComputeMetrics(g, par)
	if err != nil {
		t.Fatal(err)
	}
	// One-epoch-stale counters cost a little replication; bound the loss.
	if mpar.ReplicationFactor > mseq.ReplicationFactor*1.15 {
		t.Errorf("parallel RF %.3f vs sequential %.3f",
			mpar.ReplicationFactor, mseq.ReplicationFactor)
	}
	if mpar.EdgeImbalance > 1.25 {
		t.Errorf("parallel edge imbalance %.3f", mpar.EdgeImbalance)
	}
}

func TestParallelEBVDeterministic(t *testing.T) {
	// Epoch merge order is fixed, so results are reproducible despite the
	// concurrency.
	g := powerLawGraph(t, 2.2, 45)
	a1, err := (&ParallelEBV{Workers: 3, EpochEdges: 500}).Partition(t.Context(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := (&ParallelEBV{Workers: 3, EpochEdges: 500}).Partition(t.Context(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.Parts {
		if a1.Parts[i] != a2.Parts[i] {
			t.Fatalf("edge %d differs across runs", i)
		}
	}
}

func TestParallelEBVEdgeCases(t *testing.T) {
	empty, err := graph.New(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&ParallelEBV{}).Partition(t.Context(), empty, 2); err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	g := powerLawGraph(t, 2.2, 46)
	if _, err := (&ParallelEBV{}).Partition(t.Context(), g, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := (&ParallelEBV{Alpha: -1}).Partition(t.Context(), g, 2); err == nil {
		t.Fatal("negative alpha accepted")
	}
	// NoSort path.
	a, err := (&ParallelEBV{Workers: 2, NoSort: true}).Partition(t.Context(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelEBVSmallEpochsStillValid(t *testing.T) {
	g, err := gen.ErdosRenyi(gen.ErdosRenyiConfig{
		NumVertices: 200, NumEdges: 1000, Directed: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := (&ParallelEBV{Workers: 8, EpochEdges: 7}).Partition(t.Context(), g, 5)
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
