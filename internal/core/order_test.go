package core

import (
	"cmp"
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

// localRecs is the local order once the builder is done.
func localRecs(g *graph.Graph) []graph.IndexedEdge {
	recs, wait := edgeOrder(g, OrderLocal)
	wait(len(recs))
	return recs
}

// assertLocalOrder checks the local order against the reference, record
// by record, and that it holds every edge index exactly once; the
// builder's ready calls must rise to |E|.
func assertLocalOrder(t *testing.T, g *graph.Graph) []graph.IndexedEdge {
	t.Helper()
	recs := make([]graph.IndexedEdge, g.NumEdges())
	last := -1
	localOrder(g, recs, func(n int) {
		if n < last {
			t.Errorf("ready(%d) after ready(%d)", n, last)
		}
		last = n
	})
	if last != len(recs) {
		t.Fatalf("last ready(%d), want %d", last, len(recs))
	}
	if !slices.Equal(recs, localRecs(g)) {
		t.Fatal("edgeOrder's streamed local order differs")
	}
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

// TestLocalOrderWithinTheoremBounds: at OrderAuto's α = β = 4 the measured
// imbalance factors of the local order stay within Theorems 1 and 2.
func TestLocalOrderWithinTheoremBounds(t *testing.T) {
	e := New(WithOrder(OrderLocal), WithAlpha(autoWeight), WithBeta(autoWeight))
	for name, g := range map[string]*graph.Graph{"road": shuffled(t, roadGraph(t, 120), 7), "powerlaw": pinnedGraphs(t)["powerlaw"]} {
		for _, k := range []int{2, 8, 32} {
			a, err := e.Partition(t.Context(), g, k)
			if err != nil {
				t.Fatal(err)
			}
			m, err := partition.ComputeMetrics(g, a)
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, n := range m.VerticesPerPart {
				total += n
			}
			if eb := e.EdgeImbalanceBound(g.NumEdges(), k); m.EdgeImbalance > eb {
				t.Errorf("%s k=%d: EIF %.4f above Theorem 1's %.4f", name, k, m.EdgeImbalance, eb)
			}
			if vb := e.VertexImbalanceBound(g.NumVertices(), total, k); m.VertexImbalance > vb {
				t.Errorf("%s k=%d: VIF %.4f above Theorem 2's %.4f", name, k, m.VertexImbalance, vb)
			}
		}
	}
}

// FuzzOrderLocal checks localOrder against the reference on arbitrary
// small multigraphs — every byte pair is one edge over numV%32+1 vertices,
// so self-loops, duplicates and isolated vertices are common — and that
// the input's edge order does not reach the (Src, Dst) sequence.
func FuzzOrderLocal(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 0, 0, 0}, uint8(0))
	f.Add([]byte{3, 1, 1, 3, 3, 1, 2, 2, 0, 2, 2, 2}, uint8(5))
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 0, 5, 4}, uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, numV uint8) {
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
		slices.Reverse(edges)
		rev, err := graph.New(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		back := localRecs(rev)
		for i := range fwd {
			if fwd[i].Edge != back[i].Edge {
				t.Fatalf("record %d: %+v forwards, %+v on the reversed input", i, fwd[i].Edge, back[i].Edge)
			}
		}
	})
}

// BenchmarkEdgeOrder builds the paper's degree-sum order and the local
// order on the road-tcp lattice (300 × 300).
func BenchmarkEdgeOrder(b *testing.B) {
	g := roadGraph(b, 300)
	for _, o := range []Order{OrderSorted, OrderLocal} {
		b.Run(o.String(), func(b *testing.B) {
			for b.Loop() {
				recs, wait := edgeOrder(g, o)
				wait(len(recs))
			}
		})
	}
}

// BenchmarkPartitionRoad is Partition on the same lattice at k = 8, where
// the local order is built while Algorithm 1 consumes it.
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
