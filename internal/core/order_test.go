package core

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"ebv/internal/gen"
	"ebv/internal/graph"
	"ebv/internal/ne"
	"ebv/internal/partition"
	"ebv/internal/rng"
)

// referenceLocalOrder is OrderLocal written out the slow way: sorted
// adjacency lists, a queue BFS, and a stable comparison sort of the edge
// indices by (lower rank, higher rank, Src, Dst).
func referenceLocalOrder(g *graph.Graph) []int32 {
	adj := make([][]graph.VertexID, g.NumVertices())
	for _, e := range g.Edges() {
		adj[e.Src] = append(adj[e.Src], e.Dst)
		adj[e.Dst] = append(adj[e.Dst], e.Src)
	}
	rank := make([]int, g.NumVertices())
	for v := range rank {
		rank[v] = -1
	}
	next := 0
	for root := range adj {
		if rank[root] >= 0 {
			continue
		}
		rank[root], next = next, next+1
		queue := []graph.VertexID{graph.VertexID(root)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			slices.Sort(adj[v])
			for _, u := range adj[v] {
				if rank[u] < 0 {
					rank[u], next = next, next+1
					queue = append(queue, u)
				}
			}
		}
	}
	ids := make([]int32, g.NumEdges())
	for i := range ids {
		ids[i] = int32(i)
	}
	key := func(e graph.Edge) [4]int {
		a, b := rank[e.Src], rank[e.Dst]
		return [4]int{min(a, b), max(a, b), int(e.Src), int(e.Dst)}
	}
	slices.SortStableFunc(ids, func(x, y int32) int {
		kx, ky := key(g.Edge(int(x))), key(g.Edge(int(y)))
		return slices.Compare(kx[:], ky[:])
	})
	return ids
}

// assertLocalOrder checks the local order against the reference, record
// by record, and that it holds every edge index exactly once.
func assertLocalOrder(t *testing.T, g *graph.Graph) []graph.IndexedEdge {
	t.Helper()
	recs := edgeOrder(g, OrderLocal)
	want := referenceLocalOrder(g)
	if len(recs) != len(want) {
		t.Fatalf("%d records for %d edges", len(recs), len(want))
	}
	seen := make([]bool, len(recs))
	for i, r := range recs {
		if r.ID < 0 || int(r.ID) >= len(seen) || seen[r.ID] {
			t.Fatalf("record %d: edge %d out of range or repeated", i, r.ID)
		}
		seen[r.ID] = true
		if r.ID != want[i] || r.Edge != g.Edge(int(r.ID)) {
			t.Fatalf("record %d = %+v, reference edge %d %+v", i, r, want[i], g.Edge(int(want[i])))
		}
	}
	return recs
}

// shuffled returns g's edges in the order of a seeded permutation.
func shuffled(t testing.TB, g *graph.Graph, seed uint64) *graph.Graph {
	t.Helper()
	edges := slices.Clone(g.Edges())
	rng.New(seed).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	out, err := graph.New(g.NumVertices(), edges)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func roadGraph(t testing.TB, side int) *graph.Graph {
	t.Helper()
	g, err := gen.Road(gen.RoadConfig{Width: side, Height: side, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLocalOrderMatchesReference(t *testing.T) {
	for name, g := range pinnedGraphs(t) {
		t.Run(name, func(t *testing.T) { assertLocalOrder(t, g) })
	}
	multi, err := graph.New(6, []graph.Edge{{Src: 3, Dst: 1}, {Src: 1, Dst: 3}, {Src: 3, Dst: 1}, {Src: 2, Dst: 2}, {Src: 0, Dst: 2}, {Src: 2, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("multigraph", func(t *testing.T) { assertLocalOrder(t, multi) })
}

// TestEBVAutoOnShuffledRoad holds OrderAuto to the neighbour-expansion
// baseline on the road-tcp lattice (300 × 300, k = 8) fed in a shuffled
// edge order, and checks that the shuffle does not change what lands
// where.
func TestEBVAutoOnShuffledRoad(t *testing.T) {
	road := roadGraph(t, 300)
	if s := degreeSkew(road); s > autoMaxSkew {
		t.Fatalf("road skew %.3f above the auto threshold", s)
	}
	const k = 8
	placements := func(g *graph.Graph) (partition.Metrics, []placedEdge) {
		a, err := New(WithOrder(OrderAuto)).Partition(t.Context(), g, k)
		if err != nil {
			t.Fatal(err)
		}
		m, err := partition.ComputeMetrics(g, a)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]placedEdge, g.NumEdges())
		for i, e := range g.Edges() {
			out[i] = placedEdge{e, a.Parts[i]}
		}
		slices.SortFunc(out, placedEdge.compare)
		return m, out
	}
	g1, g2 := shuffled(t, road, 7), shuffled(t, road, 8)
	auto, p1 := placements(g1)
	_, p2 := placements(g2)
	if !slices.Equal(p1, p2) {
		t.Error("two shuffles of one graph place different (Src, Dst, part) multisets")
	}

	a, err := (&ne.NE{}).Partition(t.Context(), g1, k)
	if err != nil {
		t.Fatal(err)
	}
	neM, err := partition.ComputeMetrics(g1, a)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("EBV-auto RF %.4f EIF %.4f VIF %.4f; NE RF %.4f", auto.ReplicationFactor, auto.EdgeImbalance, auto.VertexImbalance, neM.ReplicationFactor)
	if auto.ReplicationFactor > 1.02*neM.ReplicationFactor {
		t.Errorf("EBV-auto RF %.4f above 1.02 × NE's %.4f", auto.ReplicationFactor, neM.ReplicationFactor)
	}
	if auto.EdgeImbalance > 1.06 || auto.VertexImbalance > 1.06 {
		t.Errorf("EBV-auto EIF %.4f VIF %.4f, want both ≤ 1.06", auto.EdgeImbalance, auto.VertexImbalance)
	}
}

type placedEdge struct {
	graph.Edge
	part int32
}

func (p placedEdge) compare(q placedEdge) int {
	return cmp.Or(cmp.Compare(p.Src, q.Src), cmp.Compare(p.Dst, q.Dst), cmp.Compare(p.part, q.part))
}

// TestEBVAutoKeepsPaperOrderOnPowerLaw: on every power-law analogue the
// skew test selects the paper's sort with the configured weights, so
// OrderAuto's assignment is New()'s byte for byte.
func TestEBVAutoKeepsPaperOrderOnPowerLaw(t *testing.T) {
	for _, an := range []gen.Analogue{gen.LiveJournal, gen.Twitter, gen.Friendster} {
		g, err := gen.TableIGraph(an, 0.1, 2021)
		if err != nil {
			t.Fatal(err)
		}
		if s := degreeSkew(g); s <= autoMaxSkew {
			t.Errorf("%s: skew %.2f at or below the auto threshold", an, s)
		}
		for _, k := range []int{4, 32} {
			want, err := New().Partition(t.Context(), g, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := New(WithOrder(OrderAuto)).Partition(t.Context(), g, k)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Parts, want.Parts) {
				t.Errorf("%s k=%d: OrderAuto differs from New()", an, k)
			}
		}
	}
}

// TestAutoNeverWorseThanEBV holds the default to the paper's algorithm:
// on low-skew graphs with locality (road lattices, in generator order and
// shuffled, and the USARoad analogue at k = 8) and without it
// (Erdős–Rényi at mean degree 3, 8 and 16), on the power-law analogues
// and on an R-MAT graph, EBV-auto's RF is at most New()'s at k = 8 and
// 32. Where the paper's sort runs, the assignment is New()'s byte for
// byte and within Theorems 1 and 2.
func TestAutoNeverWorseThanEBV(t *testing.T) {
	road := roadGraph(t, 150)
	type family struct {
		name string
		g    *graph.Graph
		// EBV-auto must take the ranges at every k up to rangesUpTo and
		// the sort above it.
		rangesUpTo int
	}
	families := []family{{"road 150", road, 32}, {"road 150 shuffled", shuffled(t, road, 7), 32}}
	for _, d := range []int{3, 8, 16} {
		g, err := gen.ErdosRenyi(gen.ErdosRenyiConfig{NumVertices: 20_000, NumEdges: 10_000 * d, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		families = append(families, family{fmt.Sprintf("ER d = %d", d), g, 0})
	}
	for _, an := range gen.Analogues() {
		g, err := gen.TableIGraph(an, 0.1, 2021)
		if err != nil {
			t.Fatal(err)
		}
		f := family{an.String() + " 0.1", g, 0}
		if an == gen.USARoad {
			f.rangesUpTo = 8 // a 44 × 44 lattice: 31 cuts of a level replicate too much
		}
		families = append(families, f)
	}
	rmat, err := gen.RMAT(gen.RMATConfig{ScaleLog2: 14, NumEdges: 100_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	families = append(families, family{"R-MAT 2^14", rmat, 0})

	for _, f := range families {
		for _, k := range []int{8, 32} {
			cell := fmt.Sprintf("%s k=%d", f.name, k)
			paper := New()
			want, err := paper.Partition(t.Context(), f.g, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := New(WithOrder(OrderAuto)).Partition(t.Context(), f.g, k)
			if err != nil {
				t.Fatal(err)
			}
			wantM, err := partition.ComputeMetrics(f.g, want)
			if err != nil {
				t.Fatal(err)
			}
			gotM, err := partition.ComputeMetrics(f.g, got)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: EBV-auto RF %.4f, EBV %.4f", cell, gotM.ReplicationFactor, wantM.ReplicationFactor)
			if gotM.ReplicationFactor > wantM.ReplicationFactor {
				t.Errorf("%s: EBV-auto RF %.4f above EBV's %.4f", cell, gotM.ReplicationFactor, wantM.ReplicationFactor)
			}
			ranges := k <= f.rangesUpTo
			if took := autoRanges(f.g, k) != nil; took != ranges {
				t.Errorf("%s: ranges taken %v, want %v", cell, took, ranges)
			}
			if !ranges {
				if !slices.Equal(got.Parts, want.Parts) {
					t.Errorf("%s: EBV-auto took the sort but differs from New()", cell)
				}
				assertWithinTheorems(t, paper, f.g, got, cell)
			}
		}
	}
}

// TestLocalOrderWithinTheoremBounds: Algorithm 1 over the local order
// (the EBV-local ablation row) at α = β = 4 keeps the measured imbalance
// factors within Theorems 1 and 2.
func TestLocalOrderWithinTheoremBounds(t *testing.T) {
	e := New(WithOrder(OrderLocal), WithAlpha(4), WithBeta(4))
	for name, g := range map[string]*graph.Graph{"road": shuffled(t, roadGraph(t, 120), 7), "powerlaw": pinnedGraphs(t)["powerlaw"]} {
		for _, k := range []int{2, 8, 32} {
			a, err := e.Partition(t.Context(), g, k)
			if err != nil {
				t.Fatal(err)
			}
			assertWithinTheorems(t, e, g, a, fmt.Sprintf("%s k=%d", name, k))
		}
	}
}

// assertWithinTheorems checks a's imbalance factors against e's Theorem 1
// and 2 bounds.
func assertWithinTheorems(t *testing.T, e *EBV, g *graph.Graph, a *partition.Assignment, cell string) {
	t.Helper()
	m, err := partition.ComputeMetrics(g, a)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range m.VerticesPerPart {
		total += n
	}
	if eb := e.EdgeImbalanceBound(g.NumEdges(), a.K); m.EdgeImbalance > eb {
		t.Errorf("%s: EIF %.4f above Theorem 1's %.4f", cell, m.EdgeImbalance, eb)
	}
	if vb := e.VertexImbalanceBound(g.NumVertices(), total, a.K); m.VertexImbalance > vb {
		t.Errorf("%s: VIF %.4f above Theorem 2's %.4f", cell, m.VertexImbalance, vb)
	}
}

// FuzzOrderLocal checks localOrder against the reference on arbitrary
// small multigraphs — every byte pair is one edge over numV%32+1 vertices,
// so self-loops, duplicates and isolated vertices are common — and that
// the input's edge order does not reach the (Src, Dst) sequence. It also
// runs OrderAuto at k = k8%9+1: every part is in [0, k), and where the
// ranges were taken each part holds ⌊|E|/k⌋ or ⌈|E|/k⌉ edges and the
// parts never fall along the local order.
func FuzzOrderLocal(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{0, 0, 0, 0}, uint8(0), uint8(2))
	f.Add([]byte{3, 1, 1, 3, 3, 1, 2, 2, 0, 2, 2, 2}, uint8(5), uint8(3))
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 0, 5, 4}, uint8(9), uint8(7))
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11}, uint8(11), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, numV, k8 uint8) {
		n := int(numV)%32 + 1
		edges := make([]graph.Edge, len(data)/2)
		for i := range edges {
			edges[i] = graph.Edge{Src: graph.VertexID(int(data[2*i]) % n), Dst: graph.VertexID(int(data[2*i+1]) % n)}
		}
		g, err := graph.New(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		fwd := assertLocalOrder(t, g)

		k := int(k8)%9 + 1
		a, err := New(WithOrder(OrderAuto)).Partition(t.Context(), g, k)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		if autoRanges(g, k) != nil {
			sizes := make([]int, k)
			for j, r := range fwd {
				sizes[a.Parts[r.ID]]++
				if j > 0 && a.Parts[r.ID] < a.Parts[fwd[j-1].ID] {
					t.Fatalf("record %d in part %d after part %d", j, a.Parts[r.ID], a.Parts[fwd[j-1].ID])
				}
			}
			for i, size := range sizes {
				if size != len(fwd)/k && size != (len(fwd)+k-1)/k {
					t.Fatalf("part %d holds %d of %d edges at k = %d", i, size, len(fwd), k)
				}
			}
		}

		slices.Reverse(edges)
		rev, err := graph.New(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		back := edgeOrder(rev, OrderLocal)
		for i := range fwd {
			if fwd[i].Edge != back[i].Edge {
				t.Fatalf("record %d: %+v forwards, %+v on the reversed input", i, fwd[i].Edge, back[i].Edge)
			}
		}
	})
}

// BenchmarkEdgeOrder builds the paper's degree-sum order and the local
// order on the road-tcp lattice (300 × 300), with its edges in generator
// order and shuffled (rng.New(7)).
func BenchmarkEdgeOrder(b *testing.B) {
	road := roadGraph(b, 300)
	for name, g := range map[string]*graph.Graph{"": road, "/shuffled": shuffled(b, road, 7)} {
		for _, o := range []Order{OrderSorted, OrderLocal} {
			b.Run(o.String()+name, func(b *testing.B) {
				for b.Loop() {
					edgeOrder(g, o)
				}
			})
		}
	}
}

// BenchmarkPartitionRoad is Partition on the same lattice at k = 8, where
// EBV-auto cuts the local order into ranges.
func BenchmarkPartitionRoad(b *testing.B) {
	g := roadGraph(b, 300)
	for _, e := range []*EBV{New(), New(WithOrder(OrderAuto))} {
		b.Run(e.Name(), func(b *testing.B) {
			for b.Loop() {
				if _, err := e.Partition(b.Context(), g, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
