// Equivalence and atomicity tests for the live mutation layer: every
// incremental patch cross-checked against a full rebuild (the VerifyPatches
// harness), atomic rejection, determinism across replays, and the RF-drift
// repartition guard.
package live

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/gen"
	"ebv/internal/graph"
)

// liveGraph is the shared deterministic test graph.
func liveGraph(t testing.TB, vertices, edges int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: vertices, NumEdges: edges, Eta: 2.2, Directed: true, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// buildLive partitions g, builds its subgraphs and attaches a State plus a
// counting stand-in for Deployment.Swap.
func buildLive(t testing.TB, g *graph.Graph, k int, cfg Config) (*State, func([]*bsp.Subgraph) (uint64, error)) {
	t.Helper()
	a, err := core.New().Partition(t.Context(), g, k)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := bsp.BuildSubgraphs(g, a)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewState(g, a, subs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var epoch uint64
	return st, func([]*bsp.Subgraph) (uint64, error) { epoch++; return epoch, nil }
}

// splitmix64 is the tests' tiny deterministic RNG.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// randomStream builds batches of mixed inserts and deletes against the
// state's evolving edge list; deletes always name edges present before
// their batch (each pre-batch index claimed at most once).
func randomStream(st *State, rng *splitmix64, batches, perBatch int) [][]Mutation {
	g, _, _ := st.Snapshot()
	edges := append([]graph.Edge(nil), g.Edges()...)
	n := g.NumVertices()
	out := make([][]Mutation, 0, batches)
	for b := 0; b < batches; b++ {
		muts := make([]Mutation, 0, perBatch)
		used := make(map[int]bool)
		var inserted []graph.Edge
		for i := 0; i < perBatch; i++ {
			if j := int(rng.next() % uint64(len(edges))); rng.next()%4 == 0 && !used[j] {
				used[j] = true
				muts = append(muts, Mutation{Op: OpDelete, Src: edges[j].Src, Dst: edges[j].Dst})
				continue
			}
			e := graph.Edge{
				Src: graph.VertexID(rng.next() % uint64(n)),
				Dst: graph.VertexID(rng.next() % uint64(n)),
			}
			muts = append(muts, Mutation{Op: OpInsert, Src: e.Src, Dst: e.Dst})
			inserted = append(inserted, e)
		}
		next := edges[:0:0]
		for j, e := range edges {
			if !used[j] {
				next = append(next, e)
			}
		}
		edges = append(next, inserted...)
		out = append(out, muts)
	}
	return out
}

// TestApplyPatchVerifiedAcrossPolicies checks NewState's coverage against
// the builder's, then streams random mixed batches with VerifyPatches on
// under each streaming policy: any divergence between the incremental
// patch and a full rebuild fails the Apply.
func TestApplyPatchVerifiedAcrossPolicies(t *testing.T) {
	for _, name := range []string{"ebv", "hdrf", "fennel"} {
		t.Run(name, func(t *testing.T) {
			policy, err := PolicyByName(name)
			if err != nil {
				t.Fatal(err)
			}
			g := liveGraph(t, 500, 3000, 7)
			st, swap := buildLive(t, g, 6, Config{Policy: policy, VerifyPatches: true})
			// NewState reads the coverage off the subgraphs' GlobalIDs;
			// it must be what the builder computes from the edge buckets.
			for p, bucket := range bsp.BucketByPart(st.parts, st.k) {
				if want := bsp.Coverage(g, bucket); !slices.Equal(st.sets[p], want) {
					t.Fatalf("part %d: NewState's coverage differs from bsp.Coverage of its bucket", p)
				}
			}
			rng := splitmix64(99)
			for i, batch := range randomStream(st, &rng, 8, 40) {
				res, err := st.Apply(context.Background(), batch, swap)
				if err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
				if res.Epoch != uint64(i+1) {
					t.Fatalf("batch %d: epoch %d, want %d", i, res.Epoch, i+1)
				}
				if got := res.PartsRebuilt + res.PartsPatched + res.PartsReused; got != 6 {
					t.Fatalf("batch %d: parts accounting sums to %d, want 6", i, got)
				}
			}
			stats := st.Stats()
			if stats.Batches != 8 || stats.FullRebuilds != 0 {
				t.Fatalf("stats: %d batches (%d full rebuilds), want 8 patched", stats.Batches, stats.FullRebuilds)
			}
		})
	}
}

// TestApplyForceRebuildMatchesPatch replays the same stream through a
// patching state and a ForceRebuild state: the resulting subgraphs must be
// identical (the two paths are interchangeable by construction).
func TestApplyForceRebuildMatchesPatch(t *testing.T) {
	g := liveGraph(t, 400, 2500, 13)
	patchSt, patchSwap := buildLive(t, g, 5, Config{})
	rebuildSt, rebuildSwap := buildLive(t, g, 5, Config{ForceRebuild: true})
	rng := splitmix64(5)
	stream := randomStream(patchSt, &rng, 5, 30)
	for i, batch := range stream {
		if _, err := patchSt.Apply(context.Background(), batch, patchSwap); err != nil {
			t.Fatalf("patch batch %d: %v", i, err)
		}
		res, err := rebuildSt.Apply(context.Background(), batch, rebuildSwap)
		if err != nil {
			t.Fatalf("rebuild batch %d: %v", i, err)
		}
		if !res.FullRebuild {
			t.Fatalf("rebuild batch %d: FullRebuild not set", i)
		}
	}
	for p := range patchSt.subs {
		if !sameShard(patchSt.subs[p], rebuildSt.subs[p]) {
			t.Fatalf("part %d differs between patch and forced-rebuild paths", p)
		}
	}
}

// TestPatchStartsWithEmptyRoutingPlan: a row-patched part rewrites peer
// rows on a copy of the old subgraph, so the copy must derive its routing
// plan and boundary depth afresh (equal to a full rebuild's) while sharing
// the out-adjacency and component tables (edges unchanged), and its peer
// rows and shard bytes must equal the full rebuild's; parts carried over by
// pointer keep every cached table, every pair of parts (p, q) still has
// ToMaster[q] at p and ToMirrors[p] at q carry the same ids in the same
// order, and CC over the patched parts still reaches the sequential
// labels.
func TestPatchStartsWithEmptyRoutingPlan(t *testing.T) {
	g := liveGraph(t, 400, 2500, 13)
	patchSt, patchSwap := buildLive(t, g, 8, Config{})
	rebuildSt, rebuildSwap := buildLive(t, g, 8, Config{ForceRebuild: true})
	old := slices.Clone(patchSt.subs)
	oldPlans := make([]*bsp.Routing, len(old))
	for p, sub := range old {
		oldPlans[p] = sub.Routing()
		sub.Out()
		sub.ComponentRoots()
		sub.BoundaryDepth()
	}
	// One new edge between two degree-1 vertices: its part rebuilds, the
	// other parts covering an endpoint are row-patched (degrees and maybe
	// peers moved), the rest are untouched.
	var leaves []graph.VertexID
	for v := 0; v < g.NumVertices() && len(leaves) < 2; v++ {
		if g.OutDegree(graph.VertexID(v))+g.InDegree(graph.VertexID(v)) == 1 {
			leaves = append(leaves, graph.VertexID(v))
		}
	}
	batch := []Mutation{{Op: OpInsert, Src: leaves[0], Dst: leaves[1]}}
	res, err := patchSt.Apply(context.Background(), batch, patchSwap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rebuildSt.Apply(context.Background(), batch, rebuildSwap); err != nil {
		t.Fatal(err)
	}
	if res.PartsPatched == 0 || res.PartsReused == 0 {
		t.Fatalf("batch took no patch (%d) or no reuse (%d) path; pick another edge", res.PartsPatched, res.PartsReused)
	}
	patched := 0
	for p, sub := range patchSt.subs {
		if !reflect.DeepEqual(sub.Routing(), rebuildSt.subs[p].Routing()) {
			t.Fatalf("part %d: routing plan differs from the full rebuild's", p)
		}
		if got, want := sub.BoundaryDepth(), rebuildSt.subs[p].BoundaryDepth(); got != want {
			t.Fatalf("part %d: boundary depth %+v, full rebuild's %+v", p, got, want)
		}
		switch {
		case sub == old[p]: // reused
			if sub.Routing() != oldPlans[p] {
				t.Fatalf("part %d: untouched part lost its cached plan", p)
			}
		case len(sub.Edges) > 0 && &sub.Edges[0] == &old[p].Edges[0]: // patched copy
			patched++
			if sub.Routing() == oldPlans[p] {
				t.Fatalf("part %d: patched copy kept the old routing plan", p)
			}
			if &sub.ComponentRoots()[0] != &old[p].ComponentRoots()[0] {
				t.Fatalf("part %d: patched copy rebuilt the component table", p)
			}
			if sub.Out() != old[p].Out() {
				t.Fatalf("part %d: patched copy rebuilt the out-adjacency", p)
			}
			full := rebuildSt.subs[p]
			for l := range int32(sub.NumLocalVertices()) {
				if got, want := sub.PeersOf(l), full.PeersOf(l); !slices.Equal(got, want) {
					t.Fatalf("part %d: patched PeersOf(%d) = %v, full rebuild's %v", p, l, got, want)
				}
			}
			if !sameShard(sub, full) {
				t.Fatalf("part %d: patched copy's shard bytes differ from the full rebuild's", p)
			}
		}
	}
	if patched != res.PartsPatched {
		t.Fatalf("recognised %d patched parts, Apply reported %d", patched, res.PartsPatched)
	}
	for p, sub := range patchSt.subs {
		for q, col := range sub.Routing().ToMaster {
			if ids := patchSt.subs[q].Routing().ToMirrors[p].IDs; !slices.Equal(col.IDs, ids) {
				t.Fatalf("part %d: ToMaster[%d] holds %v, part %d's ToMirrors[%d] %v", p, q, col.IDs, q, p, ids)
			}
		}
	}
	cc, err := bsp.Run(t.Context(), patchSt.subs, &apps.CC{}, bsp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := apps.SequentialCC(patchSt.g)
	for v, label := range want {
		if got, ok := cc.Value(graph.VertexID(v)); ok && got != label {
			t.Fatalf("CC after the patch labels vertex %d %g, SequentialCC %g", v, got, label)
		}
	}
}

// TestApplyJoinChangesComponentLinks inserts one edge between two local
// components of one part that both hold replicated vertices. On the
// deployment the batch is applied to, the new epoch's component links differ
// from the old one's, CC sends exactly one row per new link (the lattice is
// connected), and CC cold and warm from the labels before the batch both
// match SequentialCC.
func TestApplyJoinChangesComponentLinks(t *testing.T) {
	road, err := gen.Road(gen.RoadConfig{Width: 20, Height: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.New(road.NumVertices(), road.Edges())
	if err != nil {
		t.Fatal(err)
	}
	st, _ := buildLive(t, g, 4, Config{})
	dep, err := bsp.NewDeployment(st.subs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	cfg := bsp.Config{}
	prev, err := dep.Run(t.Context(), &apps.CC{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Part 0's first replicated vertex and the next one in another component.
	sub := st.subs[0]
	root, replicated := sub.ComponentRoots(), sub.Routing().Replicated
	u := replicated[0]
	i := slices.IndexFunc(replicated, func(l int32) bool { return root[l] != root[u] })
	if i < 0 {
		t.Fatal("part 0 has one replicated component; pick another graph")
	}
	src, dst := sub.GlobalIDs[u], sub.GlobalIDs[replicated[i]]
	old, before := slices.Clone(st.subs), bsp.ComponentLinks(st.subs)
	if _, err := st.Apply(t.Context(), []Mutation{{Op: OpInsert, Src: src, Dst: dst}}, dep.Swap); err != nil {
		t.Fatal(err)
	}
	together := func(sub *bsp.Subgraph) bool {
		a, aok := sub.LocalOf(src)
		b, bok := sub.LocalOf(dst)
		return aok && bok && sub.ComponentRoots()[a] == sub.ComponentRoots()[b]
	}
	if together(old[0]) || !together(st.subs[0]) {
		t.Fatalf("edge %d-%d did not join two components of part 0", src, dst)
	}
	after := bsp.ComponentLinks(st.subs)
	if reflect.DeepEqual(before, after) {
		t.Fatal("the join left the component links as they were")
	}
	links := 0
	for _, part := range after {
		links += len(part.Peers)
	}
	want := apps.SequentialCC(st.g)
	for _, prog := range []*apps.CC{{}, {Warm: prev.Values, WarmCovered: prev.Covered}} {
		res, err := dep.Run(t.Context(), prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for v, label := range want {
			if got, ok := res.Value(graph.VertexID(v)); ok && got != label {
				t.Fatalf("warm %t: CC after the join labels vertex %d %g, SequentialCC %g", prog.Warm != nil, v, got, label)
			}
		}
		if prog.Warm == nil && res.TotalMessages() != int64(links) {
			t.Fatalf("CC after the join sent %d rows, the epoch has %d links", res.TotalMessages(), links)
		}
	}
}

// TestApplyDeterministic replays one stream into two states built from the
// same preparation: the final graphs, assignments and subgraphs must match
// exactly (online assignment is deterministic, lowest-index tie-break).
func TestApplyDeterministic(t *testing.T) {
	g := liveGraph(t, 400, 2500, 21)
	a, swapA := buildLive(t, g, 4, Config{})
	b, swapB := buildLive(t, g, 4, Config{})
	rng := splitmix64(17)
	for i, batch := range randomStream(a, &rng, 6, 25) {
		if _, err := a.Apply(context.Background(), batch, swapA); err != nil {
			t.Fatalf("a batch %d: %v", i, err)
		}
		if _, err := b.Apply(context.Background(), batch, swapB); err != nil {
			t.Fatalf("b batch %d: %v", i, err)
		}
	}
	ga, aa, _ := a.Snapshot()
	gb, ab, _ := b.Snapshot()
	if ga.NumEdges() != gb.NumEdges() {
		t.Fatalf("edge counts diverge: %d vs %d", ga.NumEdges(), gb.NumEdges())
	}
	for i := range aa.Parts {
		if aa.Parts[i] != ab.Parts[i] {
			t.Fatalf("assignment diverges at edge %d: %d vs %d", i, aa.Parts[i], ab.Parts[i])
		}
	}
	for p := range a.subs {
		if !sameShard(a.subs[p], b.subs[p]) {
			t.Fatalf("part %d diverges between identical replays", p)
		}
	}
}

// TestApplyRejectsAtomically checks that a batch failing validation — an
// absent-edge delete or an out-of-range endpoint — leaves the state
// untouched even when earlier mutations in the batch were valid.
func TestApplyRejectsAtomically(t *testing.T) {
	g := liveGraph(t, 300, 1500, 3)
	st, swap := buildLive(t, g, 4, Config{})
	before, beforeAssign, _ := st.Snapshot()

	// (n-1, n-1) self-loop is almost surely absent from a power-law draw;
	// make sure, then delete it.
	absent := graph.Edge{Src: graph.VertexID(g.NumVertices() - 1), Dst: graph.VertexID(g.NumVertices() - 1)}
	for _, e := range g.Edges() {
		if e == absent {
			t.Skip("unlucky draw: probe edge exists")
		}
	}
	batches := [][]Mutation{
		{{Op: OpInsert, Src: 0, Dst: 1}, {Op: OpDelete, Src: absent.Src, Dst: absent.Dst}},
		{{Op: OpInsert, Src: 0, Dst: graph.VertexID(g.NumVertices())}},
		{{Op: 9, Src: 0, Dst: 1}},
	}
	for i, batch := range batches {
		if _, err := st.Apply(context.Background(), batch, swap); !errors.Is(err, ErrRejected) {
			t.Fatalf("batch %d: err = %v, want ErrRejected", i, err)
		}
	}
	after, afterAssign, epoch := st.Snapshot()
	if after != before || epoch != 0 {
		t.Fatalf("rejected batches changed the graph (epoch %d)", epoch)
	}
	for i := range beforeAssign.Parts {
		if beforeAssign.Parts[i] != afterAssign.Parts[i] {
			t.Fatalf("rejected batches changed the assignment at edge %d", i)
		}
	}
	if stats := st.Stats(); stats.Batches != 0 || stats.Inserts != 0 || stats.Deletes != 0 {
		t.Fatalf("rejected batches counted in stats: %+v", stats)
	}
}

// TestApplyFailedSwapLeavesStateUnchanged: a batch whose swap fails (the
// deployment closed under it) must leave the snapshot and the counters as
// they were, so the same batch applied next lands exactly as it would on
// a state that never saw the failure.
func TestApplyFailedSwapLeavesStateUnchanged(t *testing.T) {
	g := liveGraph(t, 300, 1500, 3)
	st, swap := buildLive(t, g, 4, Config{})
	fresh, freshSwap := buildLive(t, g, 4, Config{})
	rng := splitmix64(5)
	batch := randomStream(st, &rng, 1, 40)[0]
	before, beforeAssign, _ := st.Snapshot()
	beforeStats := st.Stats()

	refused := errors.New("swap refused")
	failing := func([]*bsp.Subgraph) (uint64, error) { return 0, refused }
	if _, err := st.Apply(context.Background(), batch, failing); !errors.Is(err, refused) {
		t.Fatalf("Apply with a failing swap: err = %v, want %v", err, refused)
	}
	after, afterAssign, epoch := st.Snapshot()
	if after != before || epoch != 0 || !slices.Equal(afterAssign.Parts, beforeAssign.Parts) {
		t.Fatalf("failed swap moved the snapshot to a %d-edge graph at epoch %d", after.NumEdges(), epoch)
	}
	if got := st.Stats(); got != beforeStats {
		t.Fatalf("failed swap changed the stats: %+v, want %+v", got, beforeStats)
	}

	for _, s := range []struct {
		st   *State
		swap func([]*bsp.Subgraph) (uint64, error)
	}{{st, swap}, {fresh, freshSwap}} {
		if _, err := s.st.Apply(context.Background(), batch, s.swap); err != nil {
			t.Fatal(err)
		}
	}
	gs, as, _ := st.Snapshot()
	gf, af, _ := fresh.Snapshot()
	if !slices.Equal(gs.Edges(), gf.Edges()) || !slices.Equal(as.Parts, af.Parts) {
		t.Fatal("batch after a failed swap diverges from the same batch on a fresh state")
	}
	if st.Stats() != fresh.Stats() {
		t.Fatalf("stats after retry = %+v, fresh state %+v", st.Stats(), fresh.Stats())
	}
	for p := range st.subs {
		if !sameShard(st.subs[p], fresh.subs[p]) {
			t.Fatalf("part %d diverges from the fresh state's", p)
		}
	}
}

// TestApplyEmptyBatch is a committed no-op: no epoch bump, all parts
// reused.
func TestApplyEmptyBatch(t *testing.T) {
	g := liveGraph(t, 200, 800, 5)
	st, swap := buildLive(t, g, 4, Config{})
	res, err := st.Apply(context.Background(), nil, swap)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 0 || res.PartsReused != 4 {
		t.Fatalf("empty batch: %+v", res)
	}
}

// TestNewStateRejectsWeighted: a mutation carries no weight,
// so weighted builds must refuse the layer outright.
func TestNewStateRejectsWeighted(t *testing.T) {
	g := liveGraph(t, 200, 800, 5)
	a, err := core.New().Partition(t.Context(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := bsp.BuildSubgraphsWeightedParallel(g, a, graph.UniformWeights(g), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewState(g, a, subs, Config{}); err == nil {
		t.Fatal("NewState accepted a weighted build")
	}
}

// TestDriftFlagAtConstantThreshold pins the RF-drift flag at its constant
// 0.2 threshold: a small batch stays under it and is not flagged, a
// replica-heavy one crosses it and is, and in both cases the flag is
// advisory — the baseline stays put and the batch's own assignment is
// what commits.
func TestDriftFlagAtConstantThreshold(t *testing.T) {
	g := liveGraph(t, 300, 600, 9)
	st, swap := buildLive(t, g, 4, Config{})
	baseline := st.Stats().BaselineRF

	// Uniformly random inserts land on vertices the skewed build left in
	// few parts, so each one tends to add a replica.
	rng := splitmix64(9)
	random := func(n int) []Mutation {
		muts := make([]Mutation, n)
		for i := range muts {
			muts[i] = Mutation{Op: OpInsert, Src: graph.VertexID(rng.next() % 300), Dst: graph.VertexID(rng.next() % 300)}
		}
		return muts
	}
	small, err := st.Apply(context.Background(), random(3), swap)
	if err != nil {
		t.Fatal(err)
	}
	if small.Drift > driftThreshold || small.NeedsRepartition {
		t.Fatalf("small batch: drift %g, flagged %v; want under %g and unflagged", small.Drift, small.NeedsRepartition, driftThreshold)
	}
	large, err := st.Apply(context.Background(), random(600), swap)
	if err != nil {
		t.Fatal(err)
	}
	if large.Drift <= driftThreshold || !large.NeedsRepartition {
		t.Fatalf("large batch: drift %g, flagged %v; want over %g and flagged", large.Drift, large.NeedsRepartition, driftThreshold)
	}
	t.Logf("drift %.3f after 3 inserts, %.3f after 600 more", small.Drift, large.Drift)
	stats := st.Stats()
	if !stats.NeedsRepartition || stats.Drift != large.Drift || stats.BaselineRF != baseline || stats.Epoch != 2 {
		t.Fatalf("stats after the flagged batch: %+v (baseline %g)", stats, baseline)
	}
}
