package bsp_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/graph"
	"ebv/internal/partition"
)

// naiveColumn collects, in ascending local id, the vertices keep admits.
func naiveColumn(sub *bsp.Subgraph, keep func(l int32) bool) bsp.Column {
	var col bsp.Column
	for l := range sub.GlobalIDs {
		if keep(int32(l)) {
			col.Locals = append(col.Locals, int32(l))
			col.IDs = append(col.IDs, sub.GlobalIDs[l])
		}
	}
	return col
}

func columnsEqual(a, b bsp.Column) bool {
	return slices.Equal(a.Locals, b.Locals) && slices.Equal(a.IDs, b.IDs)
}

// checkPlan asserts every table of sub's routing plan against the per-vertex
// derivation from PeersOf / Master / GlobalIDs it replaces and the
// component table against a naive label-propagation over the local edges.
// It returns the number of replicated vertices.
func checkPlan(t *testing.T, sub *bsp.Subgraph) int {
	t.Helper()
	plan := sub.Routing()
	self := int32(sub.Part)
	var owned, replicated []int32
	mirrors := 0
	for l := range sub.GlobalIDs {
		local := int32(l)
		peers := sub.PeersOf(local)
		if sub.Master(local) == self {
			owned = append(owned, local)
		} else {
			mirrors++
		}
		if len(peers) > 0 {
			replicated = append(replicated, local)
		}
		if got := plan.Mask[l>>6]>>(l&63)&1 == 1; got != (len(peers) > 0) {
			t.Fatalf("part %d: mask bit %d = %t with peers %v", sub.Part, l, got, peers)
		}
	}
	// Equality with the ascending scans above also proves the lists ascending.
	if !slices.Equal(plan.Owned, owned) || !slices.Equal(plan.Replicated, replicated) {
		t.Fatalf("part %d: owned/replicated differ from the per-vertex derivation", sub.Part)
	}
	// Owned plus the mirrors (each in exactly one ToMaster column, checked
	// column by column below) are every local vertex.
	toMaster := 0
	for _, col := range plan.ToMaster {
		toMaster += len(col.Locals)
	}
	if toMaster != mirrors || len(plan.Owned)+mirrors != sub.NumLocalVertices() {
		t.Fatalf("part %d: %d owned + %d mirrors (%d in ToMaster) for %d locals", sub.Part,
			len(plan.Owned), mirrors, toMaster, sub.NumLocalVertices())
	}
	if len(plan.Mask) != (sub.NumLocalVertices()+63)/64 {
		t.Fatalf("part %d: mask has %d words for %d locals", sub.Part, len(plan.Mask), sub.NumLocalVertices())
	}
	for q := int32(0); int(q) < sub.NumWorkers; q++ {
		onQ := func(l int32) bool { return slices.Contains(sub.PeersOf(l), q) }
		for _, c := range []struct {
			name string
			got  bsp.Column
			want bsp.Column
		}{
			{"ToMaster", plan.ToMaster[q], naiveColumn(sub, func(l int32) bool {
				return q != self && sub.Master(l) == q
			})},
			{"ToMirrors", plan.ToMirrors[q], naiveColumn(sub, func(l int32) bool {
				return sub.Master(l) == self && onQ(l)
			})},
		} {
			if !columnsEqual(c.got, c.want) {
				t.Fatalf("part %d: %s[%d] = %v, want %v", sub.Part, c.name, q, c.got, c.want)
			}
			if !slices.IsSorted(c.got.Locals) || !slices.IsSorted(c.got.IDs) {
				t.Fatalf("part %d: %s[%d] not ascending", sub.Part, c.name, q)
			}
		}
	}

	// Components: propagate the minimum local id over the undirected local
	// edges to a fixed point.
	want := make([]int32, sub.NumLocalVertices())
	for l := range want {
		want[l] = int32(l)
	}
	for changed := true; changed; {
		changed = false
		for _, e := range sub.Edges {
			if m := min(want[e.Src], want[e.Dst]); want[e.Src] != m || want[e.Dst] != m {
				want[e.Src], want[e.Dst] = m, m
				changed = true
			}
		}
	}
	if got := sub.ComponentRoots(); !slices.Equal(got, want) {
		t.Fatalf("part %d: component roots %v, want %v", sub.Part, got, want)
	}
	return len(replicated)
}

// TestPlanTablesMatchNaiveDerivation is the property test of plan.go: random
// small multigraphs (parallel edges, self-loops, isolated vertices) under
// random edge assignments, across worker counts on both sides of 64, plus
// the EBV-partitioned power-law fixture, whose boundary must be non-empty;
// each set of parts also pairs its send columns (checkColumnPairs).
func TestPlanTablesMatchNaiveDerivation(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, k := range []int{1, 3, 8, 64, 70} {
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(150)
			edges := make([]graph.Edge, rng.Intn(4*n))
			parts := make([]int32, len(edges))
			for i := range edges {
				// Endpoints drawn from the lower 3/4 of the id space leave
				// isolated vertices; Src == Dst is a self-loop.
				edges[i] = graph.Edge{Src: graph.VertexID(rng.Intn(n*3/4 + 1)), Dst: graph.VertexID(rng.Intn(n*3/4 + 1))}
				parts[i] = int32(rng.Intn(k))
			}
			g, err := graph.New(n, edges)
			if err != nil {
				t.Fatal(err)
			}
			subs, err := bsp.BuildSubgraphs(g, &partition.Assignment{K: k, Parts: parts})
			if err != nil {
				t.Fatal(err)
			}
			for _, sub := range subs {
				checkPlan(t, sub)
			}
			checkColumnPairs(t, subs)
		}
	}
	replicated := 0
	subs := buildSubs(t, testGraphs(t)["powerlaw"], core.New(), 4)
	for _, sub := range subs {
		replicated += checkPlan(t, sub)
	}
	if replicated == 0 {
		t.Fatal("test graph produced no replicated vertices; pick a denser graph")
	}
	checkColumnPairs(t, subs)
}

// checkColumnPairs: for every pair of parts (p, q), ToMaster[q] at p and
// ToMirrors[p] at q carry the same ids in the same order — the pairing
// AssembleValues' replica check and ReceiveRows rely on.
func checkColumnPairs(t *testing.T, subs []*bsp.Subgraph) {
	t.Helper()
	for p, sub := range subs {
		for q, col := range sub.Routing().ToMaster {
			if ids := subs[q].Routing().ToMirrors[p].IDs; !slices.Equal(col.IDs, ids) {
				t.Fatalf("part %d: ToMaster[%d] holds %v, part %d's ToMirrors[%d] %v", p, q, col.IDs, q, p, ids)
			}
		}
	}
}

// TestPlanBuiltOnceUnderConcurrentJobs starts two jobs at once on a cold
// deployment: both must see the single build of each table (same pointers
// afterwards, no race under -race) and produce byte-identical results.
func TestPlanBuiltOnceUnderConcurrentJobs(t *testing.T) {
	subs := buildSubs(t, testGraphs(t)["powerlaw"], core.New(), 4)
	d, err := bsp.NewDeployment(subs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	results := make([]*bsp.Result, 2)
	errs := make(chan error, len(results))
	start := make(chan struct{})
	for i := range results {
		go func() {
			<-start
			var err error
			results[i], err = d.Run(t.Context(), &apps.CC{}, bsp.Config{})
			errs <- err
		}()
	}
	close(start)
	for range results {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if !results[0].Values.EqualValues(results[1].Values) {
		t.Fatal("concurrent cold jobs disagree")
	}
	for _, sub := range subs {
		if sub.Routing() != sub.Routing() {
			t.Fatalf("part %d: routing plan rebuilt per call", sub.Part)
		}
		if a, b := sub.ComponentRoots(), sub.ComponentRoots(); len(a) > 0 && &a[0] != &b[0] {
			t.Fatalf("part %d: component table rebuilt per call", sub.Part)
		}
	}
	// The cached tables must equal a fresh derivation on an identical build.
	for p, fresh := range buildSubs(t, testGraphs(t)["powerlaw"], core.New(), 4) {
		if !reflect.DeepEqual(fresh.Routing(), subs[p].Routing()) {
			t.Fatalf("part %d: cached plan differs from a fresh build's", p)
		}
	}
}

// checkLinks asserts an epoch's link table against its definition: part
// p's link vertices are the lowest global id in A ∩ B of each (p, A, q, B),
// and nothing else. As both sides derive from the same shared vertices,
// each of those is a link vertex on q too. Each part lists its link
// vertices strictly ascending, among its replicated ones, and every
// component with a replicated vertex has a link vertex: CC's union reaches
// every replicated component through those. It returns the number of
// (vertex, part) link entries.
func checkLinks(t *testing.T, subs []*bsp.Subgraph) int {
	t.Helper()
	type pair struct{ p, a, q, b int32 }
	type link struct {
		gid graph.VertexID
		p   int32
	}
	want, got := map[pair]graph.VertexID{}, map[link]bool{}
	for p, sub := range subs {
		root := sub.ComponentRoots()
		for l, gid := range sub.GlobalIDs {
			for _, q := range sub.PeersOf(int32(l)) {
				lq, _ := subs[q].LocalOf(gid)
				key := pair{int32(p), root[l], q, subs[q].ComponentRoots()[lq]}
				if _, ok := want[key]; !ok {
					want[key] = gid // ascending local ids: the first is the lowest
				}
			}
		}
	}
	for p, part := range bsp.ComponentLinks(subs) {
		sub := subs[p]
		root, replicated := sub.ComponentRoots(), sub.Routing().Replicated
		linked := map[int32]bool{}
		for i, l := range part.Locals {
			if i > 0 && part.Locals[i-1] >= l || !slices.Contains(replicated, l) {
				t.Fatalf("part %d: link vertex %d at %d (strictly ascending, replicated)", p, l, i)
			}
			got[link{sub.GlobalIDs[l], int32(p)}] = true
			linked[root[l]] = true
		}
		for _, l := range replicated {
			if !linked[root[l]] {
				t.Fatalf("part %d: replicated vertex %d's component (root %d) has no link vertex", p, l, root[l])
			}
		}
	}
	links := map[link]bool{}
	for key, gid := range want {
		links[link{gid, key.p}] = true
		if !got[link{gid, key.p}] {
			t.Fatalf("part %d: component %d meets part %d's component %d first at vertex %d, which is no link", key.p, key.a, key.q, key.b, gid)
		}
		if !got[link{gid, key.q}] {
			t.Fatalf("vertex %d links part %d toward %d but not back", gid, key.p, key.q)
		}
	}
	if len(got) != len(links) {
		t.Fatalf("%d link vertices, %d lowest shared ids", len(got), len(links))
	}
	return len(got)
}

// TestComponentLinks checks link tables over random multigraphs under random
// assignments and the EBV-partitioned fixtures, and a part that shares no
// vertex: its links are empty while its neighbours' are not.
func TestComponentLinks(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, k := range []int{1, 3, 8} {
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(150)
			edges := make([]graph.Edge, rng.Intn(2*n))
			parts := make([]int32, len(edges))
			for i := range edges {
				edges[i] = graph.Edge{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n))}
				parts[i] = int32(rng.Intn(k))
			}
			g, err := graph.New(n, edges)
			if err != nil {
				t.Fatal(err)
			}
			subs, err := bsp.BuildSubgraphs(g, &partition.Assignment{K: k, Parts: parts})
			if err != nil {
				t.Fatal(err)
			}
			checkLinks(t, subs)
		}
	}
	for name, g := range testGraphs(t) {
		if checkLinks(t, buildSubs(t, g, core.New(), 8)) == 0 {
			t.Fatalf("%s: no links", name)
		}
	}
	g, err := graph.New(5, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 3, Dst: 4}})
	if err != nil {
		t.Fatal(err)
	}
	subs, err := bsp.BuildSubgraphs(g, &partition.Assignment{K: 3, Parts: []int32{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	checkLinks(t, subs)
	if links := bsp.ComponentLinks(subs); len(links[0].Locals) != 1 || len(links[1].Locals) != 1 || len(links[2].Locals) != 0 {
		t.Fatalf("links %d, %d, %d; want 1, 1 and none on the part sharing no vertex",
			len(links[0].Locals), len(links[1].Locals), len(links[2].Locals))
	}
}
