package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"ebv/internal/frame"
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
	keys := make([][4]int, len(ids))
	for i, e := range g.Edges() {
		a, b := rank[e.Src], rank[e.Dst]
		keys[i] = [4]int{min(a, b), max(a, b), int(e.Src), int(e.Dst)}
	}
	slices.SortStableFunc(ids, func(x, y int32) int {
		return slices.Compare(keys[x][:], keys[y][:])
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

// assertRangesMatchReference checks that wherever EBV-auto takes the
// ranges at k, edge j of the reference order is in part ⌊j·k/|E|⌋, and
// reports whether it took them. ref is g's referenceLocalOrder, or nil to
// compute it here.
func assertRangesMatchReference(t *testing.T, g *graph.Graph, k int, ref []int32) bool {
	t.Helper()
	if rank, _ := autoRanks(g, k); rank == nil {
		return false
	}
	a, err := New(WithOrder(OrderAuto)).Partition(t.Context(), g, k)
	if err != nil {
		t.Fatal(err)
	}
	if ref == nil {
		ref = referenceLocalOrder(g)
	}
	for j, id := range ref {
		if want := int32(int64(j) * int64(k) / int64(g.NumEdges())); a.Parts[id] != want {
			t.Fatalf("k = %d: edge %d, position %d of the reference order, in part %d, want %d", k, id, j, a.Parts[id], want)
		}
	}
	return true
}

// duplicatePath is the path 0 – 1 – … – n-1 whose first edge is repeated
// dup more times. Its degree skew stays under autoMaxSkew, so EBV-auto
// takes the ranges, and the group of edges at rank 0 spans several cuts
// once dup+1 > 2·|E|/k.
func duplicatePath(t *testing.T, n, dup int) *graph.Graph {
	t.Helper()
	var edges []graph.Edge
	for range dup {
		edges = append(edges, graph.Edge{Src: 0, Dst: 1})
	}
	for v := range n - 1 {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(v + 1)})
	}
	g, err := graph.New(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRangesMatchReference holds EBV-auto's ranges, read off the vertex
// ranks, to the reference order cut into k equal ranges: on the pinned
// graphs, road lattices in generator order and shuffled, a multigraph
// with self-loops and duplicates, an Erdős–Rényi graph and a path whose
// first group straddles several cuts, each also mirrored with
// graph.NewUndirected (whose search indexes out-edges only), at k = 1,
// 2, 3, 8 and 32.
func TestRangesMatchReference(t *testing.T) {
	road := roadGraph(t, 300)
	graphs := pinnedGraphs(t)
	graphs["road 300"] = road
	graphs["road 300 shuffled"] = shuffled(t, road, 7)
	graphs["road 150"] = roadGraph(t, 150)
	multi, err := graph.New(6, []graph.Edge{{Src: 3, Dst: 1}, {Src: 1, Dst: 3}, {Src: 3, Dst: 1}, {Src: 2, Dst: 2}, {Src: 0, Dst: 2}, {Src: 2, Dst: 2}, {Src: 4, Dst: 5}, {Src: 5, Dst: 5}})
	if err != nil {
		t.Fatal(err)
	}
	graphs["multigraph"] = multi
	graphs["ER d = 3"] = erGraph(t, 20_000, 3)
	path := duplicatePath(t, 96, 7)
	graphs["duplicate path"] = path
	for name, g := range graphs {
		mirrored, err := graph.NewUndirected(g.NumVertices(), g.Edges())
		if err != nil {
			t.Fatal(err)
		}
		for variant, g := range map[string]*graph.Graph{"": g, " mirrored": mirrored} {
			took, ref := 0, referenceLocalOrder(g)
			for _, k := range []int{1, 2, 3, 8, 32} {
				if assertRangesMatchReference(t, g, k, ref) {
					took++
				}
			}
			t.Logf("%s%s: ranges taken at %d of 5 k", name, variant, took)
			if strings.HasPrefix(name, "road 300") && took != 5 {
				t.Errorf("%s%s: ranges taken at %d of 5 k, want all", name, variant, took)
			}
		}
	}

	// The path's first group, its 8 copies of (0, 1), reaches parts 0, 1
	// and 2 at k = 32.
	a, err := New(WithOrder(OrderAuto)).Partition(t.Context(), path, 32)
	if err != nil {
		t.Fatal(err)
	}
	parts := map[int32]bool{}
	for i, e := range path.Edges() {
		if e == (graph.Edge{Src: 0, Dst: 1}) {
			parts[a.Parts[i]] = true
		}
	}
	if len(parts) < 3 {
		t.Errorf("the duplicated edge lands in %d parts at k = 32, want a group over several cuts", len(parts))
	}
}

// TestEBVAutoOnLyingUndirectedFlag: a binary graph whose mirrored flag
// is set over edges that are not mirrored (one direction of a road
// lattice) is searched over its out-edges only. The ranks then differ
// from the reference's, but every vertex gets one and every edge is
// counted, so EBV-auto still gives each of the k parts ⌊|E|/k⌋ or
// ⌈|E|/k⌉ edges.
func TestEBVAutoOnLyingUndirectedFlag(t *testing.T) {
	var half []graph.Edge
	for _, e := range roadGraph(t, 60).Edges() {
		if e.Src < e.Dst {
			half = append(half, e)
		}
	}
	g, err := graph.New(60*60, half)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	// Set the flags word (after the magic and the version) and re-seal.
	data := buf.Bytes()
	binary.LittleEndian.PutUint32(data[8:], 1)
	binary.LittleEndian.PutUint32(data[len(data)-4:], frame.Checksum(0, data[:len(data)-4]))
	lying, err := graph.ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !lying.Undirected() {
		t.Fatal("the re-sealed file does not carry the mirrored flag")
	}
	for _, k := range []int{2, 8} {
		if rank, _ := autoRanks(lying, k); rank == nil {
			t.Fatalf("k = %d: EBV-auto took the sort", k)
		}
		a, err := New(WithOrder(OrderAuto)).Partition(t.Context(), lying, k)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		sizes := make([]int, k)
		for _, p := range a.Parts {
			sizes[p]++
		}
		for i, n := range sizes {
			if n != len(half)/k && n != (len(half)+k-1)/k {
				t.Errorf("k = %d: part %d holds %d of %d edges", k, i, n, len(half))
			}
		}
	}
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
			if rank, _ := autoRanks(f.g, k); (rank != nil) != ranges {
				t.Errorf("%s: ranges taken %v, want %v", cell, !ranges, ranges)
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

// FuzzOrderLocal checks the local order against the reference on
// arbitrary small multigraphs — every byte pair is one edge over
// numV%32+1 vertices, so self-loops, duplicates and isolated vertices are
// common — both as given and mirrored by graph.NewUndirected, and that
// the input's edge order does not reach the (Src, Dst) sequence. It also
// runs OrderAuto at k = k8%9+1 on both: every part is in [0, k), and
// where the ranges were taken edge j of the reference order is in part
// ⌊j·k/|E|⌋.
func FuzzOrderLocal(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{0, 0, 0, 0}, uint8(0), uint8(2))
	f.Add([]byte{3, 1, 1, 3, 3, 1, 2, 2, 0, 2, 2, 2}, uint8(5), uint8(3))
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 0, 5, 4}, uint8(9), uint8(7))
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11}, uint8(11), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, numV, k8 uint8) {
		n, k := int(numV)%32+1, int(k8)%9+1
		edges := make([]graph.Edge, len(data)/2)
		for i := range edges {
			edges[i] = graph.Edge{Src: graph.VertexID(int(data[2*i]) % n), Dst: graph.VertexID(int(data[2*i+1]) % n)}
		}
		reversed := slices.Clone(edges)
		slices.Reverse(reversed)
		for _, build := range []func(int, []graph.Edge) (*graph.Graph, error){graph.New, graph.NewUndirected} {
			g, err := build(n, edges)
			if err != nil {
				t.Fatal(err)
			}
			fwd := assertLocalOrder(t, g)
			a, err := New(WithOrder(OrderAuto)).Partition(t.Context(), g, k)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Validate(); err != nil {
				t.Fatal(err)
			}
			assertRangesMatchReference(t, g, k, nil)

			rev, err := build(n, reversed)
			if err != nil {
				t.Fatal(err)
			}
			back := edgeOrder(rev, OrderLocal)
			for i := range fwd {
				if fwd[i].Edge != back[i].Edge {
					t.Fatalf("record %d: %+v forwards, %+v on the reversed input", i, fwd[i].Edge, back[i].Edge)
				}
			}
		}
	})
}

// BenchmarkEdgeOrder builds the paper's degree-sum order and the local
// order on the road-tcp lattice (300 × 300), with its edges in generator
// order and shuffled (rng.New(7)), and times OrderAuto's search where it
// stops early: on an Erdős–Rényi graph (mean degree 8, 100 000 vertices)
// at k = 8 a breadth-first level outgrows |V|/(3·7) after about a
// thousand vertices.
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
	er := erGraph(b, 100_000, 8)
	b.Run("stopped/er8", func(b *testing.B) {
		for b.Loop() {
			if rank, _ := autoRanks(er, 8); rank != nil {
				b.Fatal("the search did not stop")
			}
		}
	})
}

// BenchmarkPartitionRoad is Partition on the same lattice at k = 8, in
// generator order and shuffled, where EBV-auto cuts the local order into
// ranges, and on the Erdős–Rényi graph of BenchmarkEdgeOrder, where it
// stops the search and runs the paper's sort.
func BenchmarkPartitionRoad(b *testing.B) {
	road := roadGraph(b, 300)
	for name, g := range map[string]*graph.Graph{"": road, "shuffled/": shuffled(b, road, 7), "er8/": erGraph(b, 100_000, 8)} {
		for _, e := range []*EBV{New(), New(WithOrder(OrderAuto))} {
			b.Run(name+e.Name(), func(b *testing.B) {
				for b.Loop() {
					if _, err := e.Partition(b.Context(), g, 8); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// erGraph is an undirected Erdős–Rényi graph over n vertices with mean
// degree d.
func erGraph(t testing.TB, n, d int) *graph.Graph {
	t.Helper()
	g, err := gen.ErdosRenyi(gen.ErdosRenyiConfig{NumVertices: n, NumEdges: n * d / 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return g
}
