package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"ebv/internal/gen"
	"ebv/internal/graph"
	"ebv/internal/partition"
)

func powerLawGraph(t *testing.T, eta float64, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: 3000, NumEdges: 24000, Eta: eta, Directed: true, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEBVBasics(t *testing.T) {
	g := powerLawGraph(t, 2.2, 1)
	e := New()
	for _, k := range []int{1, 2, 4, 12} {
		a, err := e.Partition(t.Context(), g, k)
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
		if k > 1 {
			// The paper's Table III: EBV imbalances ≈ 1.00.
			if m.EdgeImbalance > 1.05 {
				t.Errorf("k=%d edge imbalance %.3f, want ≈1", k, m.EdgeImbalance)
			}
			if m.VertexImbalance > 1.10 {
				t.Errorf("k=%d vertex imbalance %.3f, want ≈1", k, m.VertexImbalance)
			}
		}
	}
}

func TestEBVRejectsBadInput(t *testing.T) {
	g := powerLawGraph(t, 2.2, 1)
	if _, err := New().Partition(t.Context(), g, 0); !errors.Is(err, partition.ErrBadPartCount) {
		t.Fatalf("err = %v, want ErrBadPartCount", err)
	}
	if _, err := New(WithAlpha(-1)).Partition(t.Context(), g, 2); err == nil {
		t.Fatal("negative alpha accepted")
	}
}

func TestEBVDeterministic(t *testing.T) {
	g := powerLawGraph(t, 2.0, 2)
	a1, err := New().Partition(t.Context(), g, 8)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := New().Partition(t.Context(), g, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.Parts {
		if a1.Parts[i] != a2.Parts[i] {
			t.Fatalf("edge %d assigned differently across runs", i)
		}
	}
}

// TestFigure1Example reproduces the paper's Figure 1: a 6-vertex undirected
// graph where sorting preprocessing yields a balanced 3/3 edge split while
// alphabetical (input) order, forced to keep balance, must cut extra
// vertices. We verify the qualitative claim: EBV-sort's replication factor
// is no worse than EBV-unsort's on the alphabetically-ordered edge list,
// and both splits are edge-balanced.
func TestFigure1Example(t *testing.T) {
	// Vertices A..F = 0..5. Edges of the raw graph in alphabetical order:
	// (A,B),(A,C),(A,D),(A,E),(A,F),(B,C). A is the high-degree hub.
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 0, Dst: 4}, {Src: 0, Dst: 5}, {Src: 1, Dst: 2}}
	g, err := graph.New(6, edges)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := New(WithOrder(OrderSorted)).Partition(t.Context(), g, 2)
	if err != nil {
		t.Fatal(err)
	}
	unsorted, err := New(WithOrder(OrderInput)).Partition(t.Context(), g, 2)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := partition.ComputeMetrics(g, sorted)
	if err != nil {
		t.Fatal(err)
	}
	mu, err := partition.ComputeMetrics(g, unsorted)
	if err != nil {
		t.Fatal(err)
	}
	if ms.EdgesPerPart[0] != 3 || ms.EdgesPerPart[1] != 3 {
		t.Errorf("EBV-sort edge split %v, want [3 3]", ms.EdgesPerPart)
	}
	if ms.ReplicationFactor > mu.ReplicationFactor {
		t.Errorf("sorted RF %.3f > unsorted RF %.3f; Figure 1 effect inverted",
			ms.ReplicationFactor, mu.ReplicationFactor)
	}
	// The low-degree edge (B,C) must be processed first under sorting.
	order := g.SortedBySumDegree()
	if first := order[0].Edge; first != (graph.Edge{Src: 1, Dst: 2}) {
		t.Errorf("first sorted edge %v, want (B,C)=(1,2)", first)
	}
}

func TestEBVSortBeatsUnsortOnPowerLaw(t *testing.T) {
	// §V-D: sorting preprocessing reduces the final replication factor on
	// power-law graphs, with the margin growing in the subgraph count.
	g := powerLawGraph(t, 2.0, 3)
	for _, k := range []int{8, 16} {
		sorted, err := New(WithOrder(OrderSorted)).Partition(t.Context(), g, k)
		if err != nil {
			t.Fatal(err)
		}
		unsorted, err := New(WithOrder(OrderInput)).Partition(t.Context(), g, k)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := partition.ComputeMetrics(g, sorted)
		if err != nil {
			t.Fatal(err)
		}
		mu, err := partition.ComputeMetrics(g, unsorted)
		if err != nil {
			t.Fatal(err)
		}
		if ms.ReplicationFactor >= mu.ReplicationFactor {
			t.Errorf("k=%d: sort RF %.4f >= unsort RF %.4f",
				k, ms.ReplicationFactor, mu.ReplicationFactor)
		}
	}
}

func TestTheoremBoundsHold(t *testing.T) {
	// Theorems 1 and 2: the imbalance factors never exceed the proven
	// worst-case bounds, for any graph and any positive α, β.
	configs := []struct {
		alpha, beta float64
	}{
		{1, 1}, {0.5, 2}, {2, 0.5}, {5, 5}, {0.1, 0.1},
	}
	g := powerLawGraph(t, 2.3, 4)
	for _, cfg := range configs {
		for _, k := range []int{2, 4, 8} {
			e := New(WithAlpha(cfg.alpha), WithBeta(cfg.beta))
			a, err := e.Partition(t.Context(), g, k)
			if err != nil {
				t.Fatal(err)
			}
			m, err := partition.ComputeMetrics(g, a)
			if err != nil {
				t.Fatal(err)
			}
			totalReplicas := 0
			for _, v := range m.VerticesPerPart {
				totalReplicas += v
			}
			eBound := e.EdgeImbalanceBound(g.NumEdges(), k)
			vBound := e.VertexImbalanceBound(g.NumVertices(), totalReplicas, k)
			if m.EdgeImbalance > eBound {
				t.Errorf("α=%g β=%g k=%d: edge imbalance %.4f exceeds Theorem 1 bound %.4f",
					cfg.alpha, cfg.beta, k, m.EdgeImbalance, eBound)
			}
			if m.VertexImbalance > vBound {
				t.Errorf("α=%g β=%g k=%d: vertex imbalance %.4f exceeds Theorem 2 bound %.4f",
					cfg.alpha, cfg.beta, k, m.VertexImbalance, vBound)
			}
		}
	}
}

func TestTheoremBoundsQuick(t *testing.T) {
	// Property test over random graphs: bounds hold for arbitrary seeds.
	check := func(seed uint64) bool {
		g, err := gen.ErdosRenyi(gen.ErdosRenyiConfig{
			NumVertices: 300, NumEdges: 1500, Directed: true, Seed: seed,
		})
		if err != nil {
			return false
		}
		e := New()
		a, err := e.Partition(t.Context(), g, 4)
		if err != nil {
			return false
		}
		m, err := partition.ComputeMetrics(g, a)
		if err != nil {
			return false
		}
		return m.EdgeImbalance <= e.EdgeImbalanceBound(g.NumEdges(), 4)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGrowthTracking(t *testing.T) {
	g := powerLawGraph(t, 2.2, 5)
	var samples []float64
	var positions []int
	e := New(WithGrowthTracking(1000, func(processed int, rf float64) {
		positions = append(positions, processed)
		samples = append(samples, rf)
	}))
	if _, err := e.Partition(t.Context(), g, 8); err != nil {
		t.Fatal(err)
	}
	if len(samples) < 10 {
		t.Fatalf("only %d growth samples", len(samples))
	}
	// RF is monotonically non-decreasing along the stream.
	for i := 1; i < len(samples); i++ {
		if samples[i] < samples[i-1] {
			t.Fatalf("RF decreased at sample %d: %g -> %g", i, samples[i-1], samples[i])
		}
	}
	// Final sample covers the full edge count.
	if positions[len(positions)-1] != g.NumEdges() {
		t.Fatalf("last sample at %d, want %d", positions[len(positions)-1], g.NumEdges())
	}
}

func TestEBVNames(t *testing.T) {
	if got := New().Name(); got != "EBV" {
		t.Errorf("Name = %q", got)
	}
	if got := New(WithOrder(OrderInput)).Name(); got != "EBV-unsort" {
		t.Errorf("Name = %q", got)
	}
	if got := New(WithOrder(OrderSortedDesc)).Name(); got != "EBV-sort-desc" {
		t.Errorf("Name = %q", got)
	}
}

func TestEBVEmptyGraph(t *testing.T) {
	g, err := graph.New(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New().Partition(t.Context(), g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Parts) != 0 {
		t.Fatal("non-empty assignment for empty graph")
	}
}

func TestAlphaBetaAccessors(t *testing.T) {
	e := New(WithAlpha(2.5), WithBeta(0.25))
	if e.Alpha() != 2.5 || e.Beta() != 0.25 {
		t.Fatalf("accessors returned %g/%g", e.Alpha(), e.Beta())
	}
}

// referenceAssign is Algorithm 1 as Partition ran it before the
// membership rows, the cached balance term and the block gather: one bitset
// per part, every score evaluated from the counters. It is the oracle
// TestEBVMatchesReferenceLoop holds the production loop to.
func referenceAssign(g *graph.Graph, k int, alpha, beta float64, order []graph.IndexedEdge) []int32 {
	numE, numV := g.NumEdges(), g.NumVertices()
	parts := make([]int32, numE)
	keep := make([]partition.Bitset, k)
	for i := range keep {
		keep[i] = partition.NewBitset(numV)
	}
	ecount := make([]int, k)
	vcount := make([]int, k)
	eNorm := alpha / (float64(numE) / float64(k))
	vNorm := beta / (float64(numV) / float64(k))
	for _, r := range order {
		ed := g.Edge(int(r.ID))
		u, v := int(ed.Src), int(ed.Dst)
		best := 0
		bestScore := math.Inf(1)
		for i := 0; i < k; i++ {
			// Products rounded before the sum, as fixedNorm.balance does.
			score := float64(float64(ecount[i])*eNorm) + float64(float64(vcount[i])*vNorm)
			if !keep[i].Get(u) {
				score++
			}
			if !keep[i].Get(v) {
				score++
			}
			if score < bestScore {
				bestScore = score
				best = i
			}
		}
		parts[r.ID] = int32(best)
		ecount[best]++
		if !keep[best].Get(u) {
			keep[best].Set(u)
			vcount[best]++
		}
		if !keep[best].Get(v) {
			keep[best].Set(v)
			vcount[best]++
		}
	}
	return parts
}

// TestEBVMatchesReferenceLoop compares the production loop with
// referenceAssign edge for edge on random multigraphs with self-loops and
// duplicate edges, across part counts on both sides of the 64-bit membership
// word and weights that include the degenerate ones (0 ties every score,
// +Inf and NaN make scores NaN).
func TestEBVMatchesReferenceLoop(t *testing.T) {
	weights := [][2]float64{{1, 1}, {0, 0}, {0.3, 7}, {math.Inf(1), 1}, {1, math.NaN()}}
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		numV := 1 + r.Intn(200)
		edges := make([]graph.Edge, 1+r.Intn(3000))
		for i := range edges {
			// Squaring skews endpoints toward low ids: a few hubs.
			u, v := r.Intn(numV), r.Intn(numV)
			edges[i] = graph.Edge{Src: graph.VertexID(u * u / numV), Dst: graph.VertexID(v)}
		}
		g, err := graph.New(numV, edges)
		if err != nil {
			t.Fatal(err)
		}
		k := []int{1, 3, 8, 64, 65, 130}[seed%6]
		ab := weights[seed%5]
		for _, order := range []Order{OrderSorted, OrderInput, OrderSortedDesc} {
			e := New(WithOrder(order), WithAlpha(ab[0]), WithBeta(ab[1]))
			a, err := e.Partition(t.Context(), g, k)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceAssign(g, k, ab[0], ab[1], edgeOrder(g, order))
			for i := range want {
				if a.Parts[i] != want[i] {
					t.Fatalf("seed %d k=%d %s α=%g β=%g: edge %d %v assigned to %d, reference %d",
						seed, k, order, ab[0], ab[1], i, g.Edge(i), a.Parts[i], want[i])
				}
			}
		}
	}
}

// pinnedGraphs are the two fixed inputs of the golden-assignment table and
// the §V-D ordering claim: a skewed power-law graph and a near-uniform road
// lattice (mirrored pairs, the opposite degree regime).
func pinnedGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	pl, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: 3000, NumEdges: 24000, Eta: 2.0, Directed: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	road, err := gen.Road(gen.RoadConfig{Width: 40, Height: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"powerlaw": pl, "road": road}
}

func partsSHA256(a *partition.Assignment) string {
	buf := make([]byte, 0, 4*len(a.Parts))
	for _, p := range a.Parts {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestGoldenAssignments pins Algorithm 1's output bit for bit: the hashes
// below are SHA-256 over Assignment.Parts (little-endian int32) as produced
// by commit a612f56 (PR 12), before the §IV-C sort became a counting sort
// and the assignment loop was restructured. k=70 needs two membership words
// per vertex; (α, β) = (0, 0) makes every score a tie between equal
// indicator sums, so it pins the tie-break alone.
func TestGoldenAssignments(t *testing.T) {
	graphs := pinnedGraphs(t)
	seen := 0
	for _, name := range []string{"powerlaw", "road"} {
		for _, k := range []int{1, 2, 8, 64, 70} {
			for _, order := range []Order{OrderSorted, OrderInput, OrderSortedDesc} {
				for _, ab := range [][2]float64{{1, 1}, {0, 0}, {0.5, 2}} {
					key := fmt.Sprintf("%s/k=%d/%s/a=%g,b=%g", name, k, order, ab[0], ab[1])
					a, err := New(WithOrder(order), WithAlpha(ab[0]), WithBeta(ab[1])).Partition(t.Context(), graphs[name], k)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					seen++
					if got := partsSHA256(a); got != goldenAssignments[key] {
						t.Errorf("%q: %q, golden %q", key, got, goldenAssignments[key])
					}
				}
			}
		}
	}
	if seen != len(goldenAssignments) {
		t.Errorf("checked %d cells, table has %d", seen, len(goldenAssignments))
	}
}

// TestGoldenGrowthSamples pins the exact WithGrowthTracking sequence for one
// cell (powerlaw, k=8, sort, α=β=1), recorded at the same commit as
// goldenAssignments.
func TestGoldenGrowthSamples(t *testing.T) {
	g := pinnedGraphs(t)["powerlaw"]
	var got []growthSample
	e := New(WithGrowthTracking(2000, func(processed int, rf float64) {
		got = append(got, growthSample{processed, rf})
	}))
	if _, err := e.Partition(t.Context(), g, 8); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(goldenGrowth) {
		t.Fatalf("%d samples, golden has %d: %v", len(got), len(goldenGrowth), got)
	}
	for i := range got {
		if got[i] != goldenGrowth[i] {
			t.Errorf("sample %d = %v, golden %v", i, got[i], goldenGrowth[i])
		}
	}
}

// TestFanOutDeterminism runs the §IV-C sort, EBV in all three orders and
// ParallelEBV at GOMAXPROCS 1 and 4 and asserts identical output. The sort
// and the part scatter split |E| GOMAXPROCS ways once every piece gets
// 64 Ki edges, so besides the pinned graphs it runs a graph big enough to
// split 4 ways, whose bucket arrays also leave room for 4 pieces.
func TestFanOutDeterminism(t *testing.T) {
	graphs := pinnedGraphs(t)
	wide, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: 20000, NumEdges: 4 << 16, Eta: 2.2, Directed: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := wide.NumEdges(); n < 4*max(wide.NumVertices(), 2*wide.MaxDegree()+1) {
		t.Fatalf("wide graph's bucket arrays leave room for %d pieces, want 4", n/max(wide.NumVertices(), 2*wide.MaxDegree()+1))
	}
	graphs["wide"] = wide

	run := func(procs int) map[string]string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		out := make(map[string]string)
		for name, g := range graphs {
			recs := g.SortedBySumDegree()
			ids := make([]int32, len(recs))
			for i, r := range recs {
				ids[i] = r.ID
			}
			out[name+"/sort"] = partsSHA256(&partition.Assignment{Parts: ids})
			partitioners := []partition.Partitioner{
				New(WithOrder(OrderSorted)), New(WithOrder(OrderInput)), New(WithOrder(OrderSortedDesc)), &ParallelEBV{},
			}
			for _, p := range partitioners {
				a, err := p.Partition(t.Context(), g, 8)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, p.Name(), err)
				}
				out[name+"/"+p.Name()] = partsSHA256(a)
			}
		}
		return out
	}
	one, four := run(1), run(4)
	if len(one) != 3*5 {
		t.Fatalf("%d cells, want 15", len(one))
	}
	for key, h := range one {
		if four[key] != h {
			t.Errorf("%s: GOMAXPROCS 4 gives %s, GOMAXPROCS 1 %s", key, four[key], h)
		}
	}
}

// TestSortOrderClaim is §V-D as an assertion: on the pinned power-law graph
// at k=8 the final replication factor orders sort < unsort < sort-desc.
// The three values are the ones quoted in EXPERIMENTS.md.
func TestSortOrderClaim(t *testing.T) {
	g := pinnedGraphs(t)["powerlaw"]
	var rf [3]float64
	for i, order := range []Order{OrderSorted, OrderInput, OrderSortedDesc} {
		a, err := New(WithOrder(order)).Partition(t.Context(), g, 8)
		if err != nil {
			t.Fatal(err)
		}
		m, err := partition.ComputeMetrics(g, a)
		if err != nil {
			t.Fatal(err)
		}
		rf[i] = m.ReplicationFactor
		t.Logf("EBV-%s RF = %.4f", order, rf[i])
	}
	if !(rf[0] < rf[1] && rf[1] < rf[2]) {
		t.Errorf("RF sort=%.4f unsort=%.4f sort-desc=%.4f, want strictly increasing", rf[0], rf[1], rf[2])
	}
}

type growthSample struct {
	processed int
	rf        float64
}

var goldenGrowth = []growthSample{
	{2000, 0.839},
	{4000, 1.2483333333333333},
	{6000, 1.442},
	{8000, 1.5296666666666667},
	{10000, 1.5726666666666667},
	{12000, 1.603},
	{14000, 1.621},
	{16000, 1.631},
	{18000, 1.6486666666666667},
	{20000, 1.6673333333333333},
	{22000, 1.6673333333333333},
	{24000, 1.6673333333333333},
	{24000, 1.6673333333333333},
}

var goldenAssignments = map[string]string{
	"powerlaw/k=1/sort/a=1,b=1":         "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=1/sort/a=0,b=0":         "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=1/sort/a=0.5,b=2":       "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=1/unsort/a=1,b=1":       "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=1/unsort/a=0,b=0":       "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=1/unsort/a=0.5,b=2":     "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=1/sort-desc/a=1,b=1":    "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=1/sort-desc/a=0,b=0":    "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=1/sort-desc/a=0.5,b=2":  "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=2/sort/a=1,b=1":         "848f94712e9a4c095f36275369b5c13ef82f792fe47a5897b9344578e2e71f61",
	"powerlaw/k=2/sort/a=0,b=0":         "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=2/sort/a=0.5,b=2":       "ef678807e2c85e36e6a3b9d6609955124d2004eb47bdd7c7fc22361f538be292",
	"powerlaw/k=2/unsort/a=1,b=1":       "92114fb087dd5b26cee71c17831bdf9a07dd31b53215d906be99ff17d623461d",
	"powerlaw/k=2/unsort/a=0,b=0":       "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=2/unsort/a=0.5,b=2":     "bd42c22ece0fb1eca6a35f9e602b01b32bc8dfe1390e414ee9cd43e375bcd66e",
	"powerlaw/k=2/sort-desc/a=1,b=1":    "2036c67c9ba29244976c01b65718a9d0503a7d2b99fb779742b65b28dfcf1426",
	"powerlaw/k=2/sort-desc/a=0,b=0":    "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=2/sort-desc/a=0.5,b=2":  "8297a380d117c67e8e8679fef50f4b3dea531b010295105a68d3567285990c12",
	"powerlaw/k=8/sort/a=1,b=1":         "8333d17d88bcf5c4290fa2af064eded81f4983e031b9dbe139a36add9452fd04",
	"powerlaw/k=8/sort/a=0,b=0":         "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=8/sort/a=0.5,b=2":       "f775c3b31e811a363e234152bc2e0b517c74505d5042061211f097f02aa1be44",
	"powerlaw/k=8/unsort/a=1,b=1":       "80aa5578a29fbe55140e017b11c86c3835c5074d3e61aca5859a93a3236ced48",
	"powerlaw/k=8/unsort/a=0,b=0":       "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=8/unsort/a=0.5,b=2":     "e5648f52f3bd3d6e8cfcfbcf2871aadee823a400d13a88f8aed3eae44a7d86d6",
	"powerlaw/k=8/sort-desc/a=1,b=1":    "75d475965a20f77677e35032e203a574348824cdf32a079d87fb9c87d8b368ff",
	"powerlaw/k=8/sort-desc/a=0,b=0":    "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=8/sort-desc/a=0.5,b=2":  "67de09e7c78cdaec2b77c3552b4c50f226142aacaaafc09f5259da9afac5d598",
	"powerlaw/k=64/sort/a=1,b=1":        "aa41a910d082180aa377655058ab6af6ebf8ff01c8db622532d52fdfa01f23ab",
	"powerlaw/k=64/sort/a=0,b=0":        "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=64/sort/a=0.5,b=2":      "4355f04b23561e96135beb70f05d803114dce792345fcf65a713cf16399df97e",
	"powerlaw/k=64/unsort/a=1,b=1":      "6933d3d550b3ddfdda6d4a4dc6f4c32766979e060337083b0c5d4091ce888835",
	"powerlaw/k=64/unsort/a=0,b=0":      "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=64/unsort/a=0.5,b=2":    "84ec5eec4fc081fd3f70d6b407ed0cd55b2a9a769f128378c914a55c9bef22b9",
	"powerlaw/k=64/sort-desc/a=1,b=1":   "3401b8e1fd84209d41cca9cb11f3c63567c16db01582a64b88eb8f5eba95e422",
	"powerlaw/k=64/sort-desc/a=0,b=0":   "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=64/sort-desc/a=0.5,b=2": "bce518ce7f1e53ec94e8ab020698284e486ad43513ae7f8e5fb6f50bd207df46",
	"powerlaw/k=70/sort/a=1,b=1":        "20bf3ea89d21a65d81371da9b6e5c50d8fb95fe8980d20d6e30a2a26d616e861",
	"powerlaw/k=70/sort/a=0,b=0":        "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=70/sort/a=0.5,b=2":      "5fa3c7b501435c6d612d4d568dfb73ce99f246e20bae5bb9727b66f35d1af05a",
	"powerlaw/k=70/unsort/a=1,b=1":      "fe6ce63afb02ca900dcf40618239b6459cc618d6905b4d2a7757fc4d6d1cf6ec",
	"powerlaw/k=70/unsort/a=0,b=0":      "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=70/unsort/a=0.5,b=2":    "1fee6e4443fb525785d0220481a164241bc8727ceb726cf111332d66e489c45a",
	"powerlaw/k=70/sort-desc/a=1,b=1":   "b09f2ee9a5fb13e063815b74ad94b7736cb4a64fd99e3d424ab5f74ea7df8df3",
	"powerlaw/k=70/sort-desc/a=0,b=0":   "55873fecc61a79e87ca550c7072e38ccdd7ecb600ace286fe4717952a97c42b0",
	"powerlaw/k=70/sort-desc/a=0.5,b=2": "2442c917ceea1386bcb0da26eb0b40c66c07a11229e498a9530379c827c83272",
	"road/k=1/sort/a=1,b=1":             "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=1/sort/a=0,b=0":             "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=1/sort/a=0.5,b=2":           "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=1/unsort/a=1,b=1":           "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=1/unsort/a=0,b=0":           "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=1/unsort/a=0.5,b=2":         "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=1/sort-desc/a=1,b=1":        "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=1/sort-desc/a=0,b=0":        "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=1/sort-desc/a=0.5,b=2":      "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=2/sort/a=1,b=1":             "b5a4196faf19297874aa5da235ad8ba601dce102b4d38bc2f7508c825c43c81a",
	"road/k=2/sort/a=0,b=0":             "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=2/sort/a=0.5,b=2":           "465967af0b6013fb544c5a9e375f357b96f8ce5768995247d2b538a7a5ac91ae",
	"road/k=2/unsort/a=1,b=1":           "155b6e45ec2ca01ed337be44fb01eaa12d29f7a0bb0e75b7a27feb690e8d62f4",
	"road/k=2/unsort/a=0,b=0":           "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=2/unsort/a=0.5,b=2":         "1b9e7c92f896cb8b11d1436de8672f366aa28fbf85b4b96008ece3fab443e4e1",
	"road/k=2/sort-desc/a=1,b=1":        "383ffcf2acdf66c612680df3b04cd3f02f0e5e92a84fa8b0bb39c44ed435f848",
	"road/k=2/sort-desc/a=0,b=0":        "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=2/sort-desc/a=0.5,b=2":      "de5a7991886701676bf06af1a5d123a9c3ecf1bc061b30e724e1ac112540b854",
	"road/k=8/sort/a=1,b=1":             "02c8a3a5a57e4891183b17d374461d2e1cff6dcdb3e62686fe61c02d06812f8a",
	"road/k=8/sort/a=0,b=0":             "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=8/sort/a=0.5,b=2":           "83f644d8c466150459ad8a1e527a91209729eb5ac6deb985b51eecf16a06d8ff",
	"road/k=8/unsort/a=1,b=1":           "51842b84b9fc72ddc948244c635e0fadc8c9848c2009ed2228d0778851b37bd8",
	"road/k=8/unsort/a=0,b=0":           "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=8/unsort/a=0.5,b=2":         "13c43382a210c7e50ac507552cbb06a7459e79c0047686b1d4b2465639cefc0e",
	"road/k=8/sort-desc/a=1,b=1":        "b09afb4f8bc19dbfc20552ae040da64fbe837dbe621dc9c93c7ef8b746b5f562",
	"road/k=8/sort-desc/a=0,b=0":        "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=8/sort-desc/a=0.5,b=2":      "df5f3bd62d4cfee76cf94a1ec19fc638525f2cd6915ead6900d1eb9536567650",
	"road/k=64/sort/a=1,b=1":            "5e3e40318bf90fb73d31d667a6c0fa43f58a13342816dba9d0cf6161c7e587c1",
	"road/k=64/sort/a=0,b=0":            "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=64/sort/a=0.5,b=2":          "994ca75d8ca63580bd11d01aeb9b519a8068625803fa1ea172073da65b86dc65",
	"road/k=64/unsort/a=1,b=1":          "5ceb60ededdbccfebe9112b4a8ffc582dff28ab132aa7e22ab0a3b0de41b05ef",
	"road/k=64/unsort/a=0,b=0":          "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=64/unsort/a=0.5,b=2":        "2012f8b7ecbb9db4f6fdaa66e9378ff2bfc8ce57d7fe4e62f5bfb6404ecf912f",
	"road/k=64/sort-desc/a=1,b=1":       "015e905dbdc5d81ffdb026f66cae254895ca91712446bd59fe8c2d53460ca757",
	"road/k=64/sort-desc/a=0,b=0":       "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=64/sort-desc/a=0.5,b=2":     "f1a64a78f40ae9fd92e0e471c0b0a20f9c2e717ec658a1befa07419a50417f87",
	"road/k=70/sort/a=1,b=1":            "51c256f88c9a50a535e406d2cf72989b1d58e3a84724023e445844a13e6baeb1",
	"road/k=70/sort/a=0,b=0":            "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=70/sort/a=0.5,b=2":          "48f10d6737cae19e77092ee054a7ac1ad9d1bf4501d9582a8220fe19ce986799",
	"road/k=70/unsort/a=1,b=1":          "48ea4d5cbc42220b1b6ff27d538fd71efec82f9f420f0d48822e4c7d455bf51a",
	"road/k=70/unsort/a=0,b=0":          "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=70/unsort/a=0.5,b=2":        "03fb014b8e8eff0c0f90c2769689aa7073c781357ec96d64a744b1577ecbb5a5",
	"road/k=70/sort-desc/a=1,b=1":       "323d81e0690796bd39d3d4bd165d06c2c2eea4ea23b8a7f38a7477a72fa3a206",
	"road/k=70/sort-desc/a=0,b=0":       "a286facff3b69cd0eec6c0a60ffdaede38b7a16bbd7ba6c989c2ed58db6dcbd8",
	"road/k=70/sort-desc/a=0.5,b=2":     "b0b1e22045e219334dc904f45218f1c3f6a33327f88fbf02fbe129160905ea47",
}
