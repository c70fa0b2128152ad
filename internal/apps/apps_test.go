package apps

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ebv/internal/gen"
	"ebv/internal/graph"
)

func lineGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)})
	}
	g, err := graph.New(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSequentialCCLine(t *testing.T) {
	g := lineGraph(t, 10)
	labels := SequentialCC(g)
	for v, l := range labels {
		if l != 0 {
			t.Fatalf("vertex %d label %g, want 0 (single component)", v, l)
		}
	}
}

func TestSequentialCCDisconnected(t *testing.T) {
	g, err := graph.New(6, []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}, {Src: 4, Dst: 5}})
	if err != nil {
		t.Fatal(err)
	}
	labels := SequentialCC(g)
	want := []float64{0, 0, 2, 2, 4, 4}
	for v := range want {
		if labels[v] != want[v] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
}

func TestSequentialCCIgnoresDirection(t *testing.T) {
	// (1→0) and (0→2): all connected regardless of direction.
	g, err := graph.New(3, []graph.Edge{{Src: 1, Dst: 0}, {Src: 0, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	labels := SequentialCC(g)
	for v, l := range labels {
		if l != 0 {
			t.Fatalf("vertex %d label %g", v, l)
		}
	}
}

func TestSequentialSSSPLine(t *testing.T) {
	g := lineGraph(t, 5)
	dist := SequentialSSSP(g, 0)
	for v := 0; v < 5; v++ {
		if dist[v] != float64(v) {
			t.Fatalf("dist = %v", dist)
		}
	}
	// Directed: nothing reaches vertex 0 from 4.
	rev := SequentialSSSP(g, 4)
	if !math.IsInf(rev[0], 1) {
		t.Fatalf("dist(4→0) = %g, want +Inf", rev[0])
	}
	if rev[4] != 0 {
		t.Fatalf("dist(4→4) = %g", rev[4])
	}
}

func TestSequentialSSSPOutOfRangeSource(t *testing.T) {
	g := lineGraph(t, 3)
	dist := SequentialSSSP(g, 99)
	for _, d := range dist {
		if !math.IsInf(d, 1) {
			t.Fatal("out-of-range source must reach nothing")
		}
	}
}

func TestSequentialPageRankConservation(t *testing.T) {
	// On a graph with no dangling vertices, total rank mass is conserved.
	g, err := graph.NewUndirected(50, func() []graph.Edge {
		edges := make([]graph.Edge, 0, 49)
		for i := 0; i < 49; i++ {
			edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)})
		}
		return edges
	}())
	if err != nil {
		t.Fatal(err)
	}
	rank := SequentialPageRank(g, 20, 0.85)
	var sum float64
	for _, r := range rank {
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("rank mass %g, want 1", sum)
	}
}

func TestSequentialPageRankUniformOnRegular(t *testing.T) {
	// On a directed cycle every vertex has identical rank.
	n := 10
	edges := make([]graph.Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID((i + 1) % n)}
	}
	g, err := graph.New(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	rank := SequentialPageRank(g, 30, 0.85)
	for v := 1; v < n; v++ {
		if math.Abs(rank[v]-rank[0]) > 1e-12 {
			t.Fatalf("rank not uniform on cycle: %v", rank)
		}
	}
}

func TestSequentialPageRankEmpty(t *testing.T) {
	g, err := graph.New(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rank := SequentialPageRank(g, 5, 0); rank != nil {
		t.Fatalf("rank of empty graph = %v", rank)
	}
}

func TestSequentialAggregateFixedPoint(t *testing.T) {
	// With a constant feature, mean aggregation is a fixed point (checked
	// across every column of a width-3 run).
	g := lineGraph(t, 8)
	h := SequentialAggregate(g, 3, 3, func(_ graph.VertexID, feat []float64) {
		for j := range feat {
			feat[j] = 5
		}
	})
	for i, x := range h.Data {
		if math.Abs(x-5) > 1e-12 {
			t.Fatalf("h.Data[%d] = %g, want 5", i, x)
		}
	}
}

func TestSequentialAggregateWidthOneMatchesScalarDefault(t *testing.T) {
	// The default feature's column 0 is the historical scalar f(v) = v%7,
	// so a width-1 run reproduces the scalar-era oracle exactly.
	g := lineGraph(t, 16)
	h := SequentialAggregate(g, 2, 1, nil)
	manual := SequentialAggregate(g, 2, 1, func(v graph.VertexID, feat []float64) {
		feat[0] = float64(v % 7)
	})
	if !h.EqualValues(manual) {
		t.Fatal("default width-1 feature differs from the scalar-era default")
	}
}

func TestSequentialAggregateSmoothing(t *testing.T) {
	// Aggregation contracts toward neighborhood means: the spread after a
	// layer must not exceed the input spread.
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: 500, NumEdges: 3000, Eta: 2.3, Directed: true, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	spread := func(h []float64) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range h {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return hi - lo
	}
	h1 := SequentialAggregate(g, 1, 1, nil)
	input := make([]float64, g.NumVertices())
	for v := range input {
		input[v] = float64(v % 7)
	}
	if spread(h1.Data) > spread(input)+1e-12 {
		t.Fatalf("spread grew: %g > %g", spread(h1.Data), spread(input))
	}
}

func TestDSUProperties(t *testing.T) {
	err := quick.Check(func(pairs []uint8) bool {
		const n = 64
		d := newDSU(n)
		naive := make([]int, n)
		for i := range naive {
			naive[i] = i
		}
		naiveFind := func(x int) int {
			for naive[x] != x {
				x = naive[x]
			}
			return x
		}
		for i := 0; i+1 < len(pairs); i += 2 {
			a, b := int(pairs[i])%n, int(pairs[i+1])%n
			d.union(int32(a), int32(b))
			naive[naiveFind(a)] = naiveFind(b)
		}
		// Same connectivity relation.
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if (d.find(int32(a)) == d.find(int32(b))) != (naiveFind(a) == naiveFind(b)) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

// TestByName: one registry for every by-name surface — names resolve
// case-insensitively, an SSSP/WSSSP source that is no vertex id is an
// error instead of a silent wrap to another vertex, and so is a damping
// outside [0, 1] or a negative iteration or layer count.
func TestByName(t *testing.T) {
	for _, tc := range []struct {
		name    string
		p       Params
		want    string // Program.Name(), "" = error
		wantErr string
	}{
		{"cc", Params{}, "CC", ""},
		{"PageRank", Params{Iterations: 3}, "PR", ""},
		{"agg", Params{}, "Aggregate", ""},
		{"sssp", Params{Source: 7}, "SSSP", ""},
		{"WSSSP", Params{Source: math.MaxUint32}, "WSSSP", ""},
		{"CC", Params{Source: -1}, "CC", ""}, // not a source-taking app
		{"nope", Params{}, "", `unknown app "nope"`},
		{"SSSP", Params{Source: -1}, "", "source -1 out of range"},
		{"SSSP", Params{Source: math.MaxUint32 + 1}, "", "source 4294967296 out of range"},
		{"wsssp", Params{Source: -1}, "", "source -1 out of range"},
		{"wsssp", Params{Source: math.MaxUint32 + 1}, "", "source 4294967296 out of range"},
		{"PR", Params{Damping: 1}, "PR", ""},
		{"PR", Params{Damping: 5}, "", "damping 5 out of range"},
		{"PR", Params{Damping: -2}, "", "damping -2 out of range"},
		{"PR", Params{Damping: math.NaN()}, "", "damping NaN out of range"},
		{"PR", Params{Iterations: -3}, "", "iterations -3 out of range"},
		{"agg", Params{Layers: -1}, "", "layers -1 out of range"},
		{"CC", Params{Damping: 5, Iterations: -3, Layers: -1}, "CC", ""}, // parameters of other apps
	} {
		prog, err := ByName(tc.name, tc.p)
		switch {
		case tc.want == "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ByName(%q, %+v): err = %v, want %q", tc.name, tc.p, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("ByName(%q, %+v): %v", tc.name, tc.p, err)
		case prog.Name() != tc.want:
			t.Errorf("ByName(%q).Name() = %q, want %q", tc.name, prog.Name(), tc.want)
		}
	}
	if prog, _ := ByName("sssp", Params{Source: 7}); prog.(*SSSP).Source != 7 || prog.(*SSSP).Weighted {
		t.Errorf("ByName(sssp) = %+v, want unit-weight SSSP from 7", prog)
	}
	if prog, _ := ByName("wsssp", Params{Source: 7}); !prog.(*SSSP).Weighted {
		t.Errorf("ByName(wsssp) = %+v, want weighted SSSP", prog)
	}
}
