// api_test exercises the public facade the way a downstream user would,
// touching only the ebv package (never internal/...).
package ebv_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"ebv"
)

func TestPublicQuickstartFlow(t *testing.T) {
	g, err := ebv.PowerLaw(ebv.PowerLawConfig{
		NumVertices: 2000, NumEdges: 12000, Eta: 2.3, Directed: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	part := ebv.NewEBV()
	a, err := part.Partition(t.Context(), g, 8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ebv.ComputeMetrics(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if m.ReplicationFactor <= 0 || m.EdgeImbalance < 1 {
		t.Fatalf("metrics: %+v", m)
	}
	subs, err := ebv.BuildSubgraphs(g, a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ebv.RunBSP(t.Context(), subs, &ebv.CC{}, ebv.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := ebv.SequentialCC(g)
	for v := range want {
		if got, ok := res.Value(ebv.VertexID(v)); ok && got != want[v] {
			t.Fatalf("CC(%d) mismatch", v)
		}
	}
}

func TestPublicAllPartitioners(t *testing.T) {
	g, err := ebv.RMAT(ebv.RMATConfig{ScaleLog2: 9, NumEdges: 4000, Directed: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	partitioners := []ebv.Partitioner{
		ebv.NewEBV(),
		ebv.NewEBV(ebv.WithAlpha(2), ebv.WithBeta(0.5), ebv.WithOrder(ebv.OrderInput)),
		&ebv.Ginger{},
		&ebv.DBH{},
		&ebv.CVC{},
		&ebv.NE{},
		&ebv.Metis{},
		&ebv.RandomPartitioner{},
		&ebv.HDRF{},
		&ebv.Hybrid{},
		&ebv.Fennel{},
		&ebv.EBVStream{},
		&ebv.ParallelEBV{Workers: 2},
	}
	for _, p := range partitioners {
		a, err := p.Partition(t.Context(), g, 4)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
	}
}

func TestPublicGraphIO(t *testing.T) {
	g, err := ebv.Road(ebv.RoadConfig{Width: 10, Height: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ebv.WriteBinaryGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ebv.ReadBinaryGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip lost edges")
	}
	stats := ebv.ComputeGraphStats(g2)
	if stats.NumVertices != 100 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestPublicGraphTransforms(t *testing.T) {
	g, err := ebv.NewGraph(4, []ebv.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 1}, {Src: 1, Dst: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := ebv.ReverseGraph(g); r.Edge(0).Src != 1 {
		t.Fatal("reverse failed")
	}
}

func TestPublicStreamingEBV(t *testing.T) {
	s, err := ebv.NewStreamingEBV(ebv.StreamingEBVConfig{K: 3, NumVertices: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := s.Add(ebv.Edge{Src: ebv.VertexID(i), Dst: ebv.VertexID((i + 1) % 10)}); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	if rf := s.ReplicationFactor(); rf <= 0 {
		t.Fatalf("rf = %g", rf)
	}
}

func TestPublicAggregate(t *testing.T) {
	g, err := ebv.PowerLaw(ebv.PowerLawConfig{
		NumVertices: 500, NumEdges: 3000, Eta: 2.4, Directed: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ebv.NewEBV().Partition(t.Context(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := ebv.BuildSubgraphs(g, a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ebv.RunBSP(t.Context(), subs, &ebv.Aggregate{Layers: 2}, ebv.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := ebv.SequentialAggregate(g, 2, 1, nil)
	for v := 0; v < g.NumVertices(); v++ {
		if got, ok := res.Value(ebv.VertexID(v)); ok && math.Abs(got-want.Scalar(v)) > 1e-9 {
			t.Fatalf("aggregate mismatch at %d", v)
		}
	}
}

func TestPublicPregel(t *testing.T) {
	g, err := ebv.PowerLaw(ebv.PowerLawConfig{
		NumVertices: 400, NumEdges: 2000, Eta: 2.4, Directed: true, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ebv.RunPregel(t.Context(), g, 3, &ebv.PregelCC{}, ebv.PregelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := ebv.SequentialCC(g)
	for v := range want {
		if res.Values.Scalar(v) != want[v] {
			t.Fatalf("pregel CC mismatch at %d", v)
		}
	}
}

func TestPublicExperimentCSV(t *testing.T) {
	var buf bytes.Buffer
	opt := ebv.ExperimentOptions{Scale: 0.1, Seed: 7, PageRankIters: 2, Workers: []int{2}}
	if err := ebv.RunExperimentCSV(t.Context(), "table1", opt, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 { // header + 4 graphs
		t.Fatalf("csv has %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "graph,type,vertices") {
		t.Fatalf("csv header %q", lines[0])
	}
	if err := ebv.RunExperimentCSV(t.Context(), "nosuch", opt, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestPublicPartitionerRegistry(t *testing.T) {
	names := []string{
		"EBV", "EBV-unsort", "Ginger", "DBH", "CVC", "NE", "METIS",
		"Random", "Grid", "HDRF", "Hybrid", "Fennel",
		"EBV-stream", "EBV-stream-window", "EBV-parallel", "EBV-local", "EBV-auto",
	}
	for _, name := range names {
		p, err := ebv.PartitionerByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("PartitionerByName(%q).Name() = %q", name, p.Name())
		}
	}
	if len(ebv.PaperPartitioners()) != 6 {
		t.Fatal("paper partitioner set changed")
	}
	if len(ebv.ExperimentNames()) != 12 {
		t.Fatal("experiment set changed")
	}
}
