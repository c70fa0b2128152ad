package gen

import (
	"math"
	"testing"

	"ebv/internal/graph"
	"ebv/internal/rng"
)

func TestAliasTableDistribution(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	table, err := newAliasTable(weights)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	counts := make([]int, 4)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[table.sample(r)]++
	}
	for i, w := range weights {
		want := w / 10 * n
		got := float64(counts[i])
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("index %d: got %d draws, want ≈%.0f", i, counts[i], want)
		}
	}
}

func TestAliasTableErrors(t *testing.T) {
	if _, err := newAliasTable(nil); err == nil {
		t.Error("empty weights accepted")
	}
	if _, err := newAliasTable([]float64{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := newAliasTable([]float64{0, 0}); err == nil {
		t.Error("zero-sum weights accepted")
	}
}

func TestPowerLawBasics(t *testing.T) {
	g, err := PowerLaw(PowerLawConfig{
		NumVertices: 5000, NumEdges: 50000, Eta: 2.2, Directed: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 5000 {
		t.Fatalf("V = %d", g.NumVertices())
	}
	if g.NumEdges() != 50000 {
		t.Fatalf("E = %d", g.NumEdges())
	}
}

func TestPowerLawDeterministic(t *testing.T) {
	cfg := PowerLawConfig{NumVertices: 1000, NumEdges: 5000, Eta: 2.5, Directed: true, Seed: 3}
	a, err := PowerLaw(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PowerLaw(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.NumEdges(); i++ {
		if a.Edge(i) != b.Edge(i) {
			t.Fatalf("edge %d differs across identical seeds", i)
		}
	}
	cfg.Seed = 4
	c, err := PowerLaw(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := 0; i < a.NumEdges(); i++ {
		if a.Edge(i) == c.Edge(i) {
			same++
		}
	}
	if same == a.NumEdges() {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestPowerLawSkewTracksEta(t *testing.T) {
	// Lower eta must produce a more skewed graph (larger max degree).
	skewed, err := PowerLaw(PowerLawConfig{
		NumVertices: 20000, NumEdges: 200000, Eta: 1.9, Directed: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	mild, err := PowerLaw(PowerLawConfig{
		NumVertices: 20000, NumEdges: 200000, Eta: 2.8, Directed: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if skewed.MaxDegree() <= mild.MaxDegree() {
		t.Fatalf("eta=1.9 max degree %d <= eta=2.8 max degree %d",
			skewed.MaxDegree(), mild.MaxDegree())
	}
}

func TestPowerLawEtaEstimate(t *testing.T) {
	// The MLE over the generated degree distribution should land near the
	// target for a large sample; allow generous tolerance (estimator bias
	// + finite size).
	target := 2.4
	g, err := PowerLaw(PowerLawConfig{
		NumVertices: 50000, NumEdges: 400000, Eta: target, Directed: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := graph.ComputeStats(g)
	if s.Eta < target-0.8 || s.Eta > target+0.8 {
		t.Fatalf("estimated eta %.2f too far from target %.2f", s.Eta, target)
	}
}

func TestPowerLawRejectsBadConfig(t *testing.T) {
	if _, err := PowerLaw(PowerLawConfig{NumVertices: 0, NumEdges: 5, Eta: 2}); err == nil {
		t.Error("zero vertices accepted")
	}
	if _, err := PowerLaw(PowerLawConfig{NumVertices: 5, NumEdges: 5, Eta: 1.0}); err == nil {
		t.Error("eta <= 1 accepted")
	}
}

func TestRoadBasics(t *testing.T) {
	g, err := Road(RoadConfig{Width: 50, Height: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2000 {
		t.Fatalf("V = %d", g.NumVertices())
	}
	if !g.Undirected() {
		t.Error("road graph must be undirected")
	}
	// Road networks have low, near-uniform degree.
	if g.MaxDegree() > 12 {
		t.Errorf("max degree %d too high for a road network", g.MaxDegree())
	}
	avg := g.AverageDegree()
	if avg < 2.5 || avg > 5 {
		t.Errorf("directed average degree %g outside road-like range", avg)
	}
}

func TestRoadRejectsBadDims(t *testing.T) {
	if _, err := Road(RoadConfig{Width: 0, Height: 5}); err == nil {
		t.Error("zero width accepted")
	}
}

func TestRMATBasics(t *testing.T) {
	g, err := RMAT(RMATConfig{ScaleLog2: 10, NumEdges: 8000, Directed: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1024 {
		t.Fatalf("V = %d", g.NumVertices())
	}
	if g.NumEdges() != 8000 {
		t.Fatalf("E = %d", g.NumEdges())
	}
	// R-MAT with Graph500 params is skewed.
	if g.MaxDegree() < 20 {
		t.Errorf("max degree %d suspiciously low for R-MAT", g.MaxDegree())
	}
}

func TestRMATRejectsBadConfig(t *testing.T) {
	if _, err := RMAT(RMATConfig{ScaleLog2: 0, NumEdges: 1}); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := RMAT(RMATConfig{ScaleLog2: 4, NumEdges: 1, A: 0.5, B: 0.4, C: 0.2}); err == nil {
		t.Error("probabilities >= 1 accepted")
	}
}

func TestErdosRenyi(t *testing.T) {
	g, err := ErdosRenyi(ErdosRenyiConfig{NumVertices: 500, NumEdges: 2000, Directed: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2000 {
		t.Fatalf("E = %d", g.NumEdges())
	}
}

func TestTableIGraphs(t *testing.T) {
	for _, a := range Analogues() {
		g, err := TableIGraph(a, 0.25, 42)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Fatalf("%s: empty graph", a)
		}
		switch a {
		case USARoad, Friendster:
			if !g.Undirected() {
				t.Errorf("%s must be undirected", a)
			}
		case LiveJournal, Twitter:
			if g.Undirected() {
				t.Errorf("%s must be directed", a)
			}
		}
	}
	if _, err := TableIGraph(USARoad, 0, 1); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := TableIGraph(Analogue(99), 1, 1); err == nil {
		t.Error("unknown analogue accepted")
	}
}

func TestAnalogueStrings(t *testing.T) {
	want := map[Analogue]string{
		USARoad: "USARoad", LiveJournal: "LiveJournal",
		Twitter: "Twitter", Friendster: "Friendster",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), s)
		}
	}
}
