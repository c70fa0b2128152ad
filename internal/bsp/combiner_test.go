// Combiner tests: sender-side message combining must be semantically
// transparent — every app produces a byte-identical ValueMatrix with
// combining on or off, on the in-memory router and the TCP mesh, at scalar
// and vector widths — while strictly reducing wire rows where a batch
// carries duplicates (per-edge-messaging programs). The receiver never
// folds: every wire row is delivered, on a high-fan-in star graph too.
package bsp_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/graph"
	"ebv/internal/partition"
	"ebv/internal/transport"
)

// combinerApps returns one instance of each evaluation app (all five
// declare a natural combiner), plus the converging PageRank, whose halt is
// the engine's vote.
func combinerApps() []bsp.Program {
	return []bsp.Program{
		&apps.CC{},
		&apps.PageRank{Iterations: 6},
		&apps.SSSP{Source: 0},
		&apps.SSSP{Source: 0, Weighted: true},
		&apps.Aggregate{Layers: 2},
		&apps.PageRank{Tol: 1e-6, Iterations: 500},
	}
}

// appName labels a combinerApps entry in subtest names.
func appName(prog bsp.Program) string {
	if pr, ok := prog.(*apps.PageRank); ok && pr.Tol > 0 {
		return "PR-tol"
	}
	return prog.Name()
}

// buildWeightedSubs builds subgraphs carrying hash weights (weighted SSSP
// exercises them; every other app ignores them).
func buildWeightedSubs(t *testing.T, g *graph.Graph, a *partition.Assignment) []*bsp.Subgraph {
	t.Helper()
	subs, err := bsp.BuildSubgraphsWeightedParallel(g, a, graph.HashWeights(g, 7, 1, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	return subs
}

// TestCombinerEquivalenceAllApps is the acceptance matrix: every app ×
// {combiner on, off} × {Mem, TCP} × widths {1, 8} produces a byte-identical
// ValueMatrix, with wire rows never above emitted ones and every wire row
// delivered.
func TestCombinerEquivalenceAllApps(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	const k = 3
	a, err := core.New().Partition(t.Context(), g, k)
	if err != nil {
		t.Fatal(err)
	}
	subs := buildWeightedSubs(t, g, a)
	for _, prog := range combinerApps() {
		for _, width := range []int{1, 8} {
			for _, trName := range []string{"mem", "tcp"} {
				t.Run(fmt.Sprintf("%s/w%d/%s", appName(prog), width, trName), func(t *testing.T) {
					cfg := bsp.Config{ValueWidth: width, VerifyReplicaAgreement: true}
					off, err := runOnMesh(t.Context(), subs, meshByName(t, trName, k), prog, cfg)
					if err != nil {
						t.Fatalf("combiner off: %v", err)
					}
					cfg.AutoCombine = true
					on, err := runOnMesh(t.Context(), subs, meshByName(t, trName, k), prog, cfg)
					if err != nil {
						t.Fatalf("combiner on: %v", err)
					}
					if !on.Values.EqualValues(off.Values) {
						t.Fatal("combined values differ from uncombined (byte-identity violated)")
					}
					if on.Steps != off.Steps {
						t.Fatalf("combined run took %d steps, uncombined %d", on.Steps, off.Steps)
					}
					oc, fc := on.MessageCounts(), off.MessageCounts()
					if fc.Emitted != fc.Wire || fc.Wire != fc.Delivered {
						t.Fatalf("uncombined counts disagree: %+v", fc)
					}
					if oc.Emitted != fc.Emitted {
						t.Fatalf("combined run emitted %d rows, uncombined %d", oc.Emitted, fc.Emitted)
					}
					if oc.Wire > oc.Emitted || oc.Delivered != oc.Wire {
						t.Fatalf("want delivered == wire <= emitted under combining, got %+v", oc)
					}
					if on.TotalMessages() != oc.Wire {
						t.Fatalf("TotalMessages = %d, want the wire count %d", on.TotalMessages(), oc.Wire)
					}
				})
			}
		}
	}
}

// starGraph builds a high-fan-in star (every leaf points at the hub,
// vertex 0) with a round-robin edge assignment, so the hub is replicated
// in every part and each part's hub rows arrive from every peer.
func starGraph(t *testing.T, leaves, k int) (*graph.Graph, []*bsp.Subgraph) {
	t.Helper()
	edges := make([]graph.Edge, leaves)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i + 1), Dst: 0}
	}
	g, err := graph.New(leaves+1, edges)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]int32, len(edges))
	for i := range parts {
		parts[i] = int32(i % k)
	}
	subs, err := bsp.BuildSubgraphs(g, &partition.Assignment{K: k, Parts: parts})
	if err != nil {
		t.Fatal(err)
	}
	return g, subs
}

// TestCombinerStarGraphFanInDelivered crafts the high-fan-in case: the
// hub's rows arrive at every worker from every peer. The receiver delivers
// each of them — the program's own accumulator is the one fold — so
// combining changes no count (the replica-sync apps emit unique-ID batches,
// leaving the sender nothing to coalesce) and no value bit.
func TestCombinerStarGraphFanInDelivered(t *testing.T) {
	_, subs := starGraph(t, 200, 4)
	for _, prog := range []bsp.Program{&apps.CC{}, &apps.PageRank{Iterations: 4}} {
		t.Run(prog.Name(), func(t *testing.T) {
			off, err := bsp.Run(t.Context(), subs, prog, bsp.Config{VerifyReplicaAgreement: true})
			if err != nil {
				t.Fatal(err)
			}
			on, err := bsp.Run(t.Context(), subs, prog, bsp.Config{VerifyReplicaAgreement: true, AutoCombine: true})
			if err != nil {
				t.Fatal(err)
			}
			if !on.Values.EqualValues(off.Values) {
				t.Fatal("combined values differ from uncombined on the star graph")
			}
			oc, fc := on.MessageCounts(), off.MessageCounts()
			if oc != fc {
				t.Fatalf("counts changed: combined %+v, uncombined %+v", oc, fc)
			}
			if oc.Delivered != oc.Wire {
				t.Fatalf("delivered %d rows of %d on the wire", oc.Delivered, oc.Wire)
			}
		})
	}
}

// fanInDegree is a crafted per-edge-messaging program (the vertex-centric
// fan-in pattern the subgraph-centric apps avoid): step 0 sends one row
// per local edge to the destination's master, step 1 masters sum the rows
// into the global in-degree and scatter it to the mirrors, step 2 mirrors
// install it. Its outgoing batches are full of duplicate IDs, so
// sender-side combining must strictly shrink the wire volume.
type fanInDegree struct{}

func (*fanInDegree) Name() string { return "fan-in-degree" }

func (*fanInDegree) MessageCombiner() transport.Combiner { return transport.SumCombiner{} }

func (*fanInDegree) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	return &fanInWorker{sub: sub, env: env, acc: make([]float64, sub.NumLocalVertices())}
}

type fanInWorker struct {
	sub *bsp.Subgraph
	env bsp.Env
	acc []float64
}

func (w *fanInWorker) outTo(out []*transport.MessageBatch, dst int32) *transport.MessageBatch {
	if out[dst] == nil {
		out[dst] = w.env.NewBatch()
	}
	return out[dst]
}

func (w *fanInWorker) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	self := int32(w.sub.Part)
	switch step {
	case 0:
		out := make([]*transport.MessageBatch, w.sub.NumWorkers)
		for _, e := range w.sub.Edges {
			w.outTo(out, w.sub.Master(int32(e.Dst))).AppendScalar(w.sub.GlobalIDs[e.Dst], 1)
		}
		return out, false
	case 1:
		for i, gid := range in.IDs {
			if local, ok := w.sub.LocalOf(gid); ok && w.sub.Master(local) == self {
				w.acc[local] += in.Scalar(i)
			}
		}
		out := make([]*transport.MessageBatch, w.sub.NumWorkers)
		for _, local := range w.sub.Routing().Replicated {
			if w.sub.Master(local) != self {
				continue
			}
			gid := w.sub.GlobalIDs[local]
			for _, peer := range w.sub.PeersOf(local) {
				w.outTo(out, peer).AppendScalar(gid, w.acc[local])
			}
		}
		return out, false
	default:
		for i, gid := range in.IDs {
			if local, ok := w.sub.LocalOf(gid); ok {
				w.acc[local] = in.Scalar(i)
			}
		}
		return nil, false
	}
}

func (w *fanInWorker) Values() *graph.ValueMatrix {
	vals := w.env.NewValues(w.sub.NumLocalVertices())
	for l, v := range w.acc {
		vals.SetScalar(l, v)
	}
	return vals
}

// TestCombinerSenderSideStrictReduction runs the per-edge fan-in program on
// the star graph and the power-law graph: coalescing duplicate-ID rows at
// the sender must strictly shrink the wire count, leave the computed
// in-degrees exact, and stay byte-identical to the uncombined run — on Mem
// and on TCP.
func TestCombinerSenderSideStrictReduction(t *testing.T) {
	star, starSubs := starGraph(t, 200, 4)
	pl := testGraphs(t)["powerlaw"]
	const k = 4
	a, err := core.New().Partition(t.Context(), pl, k)
	if err != nil {
		t.Fatal(err)
	}
	plSubs, err := bsp.BuildSubgraphs(pl, a)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *graph.Graph
		subs []*bsp.Subgraph
	}{{"star", star, starSubs}, {"powerlaw", pl, plSubs}}
	for _, tc := range cases {
		for _, trName := range []string{"mem", "tcp"} {
			t.Run(tc.name+"/"+trName, func(t *testing.T) {
				cfg := bsp.Config{VerifyReplicaAgreement: true}
				off, err := runOnMesh(t.Context(), tc.subs, meshByName(t, trName, k), &fanInDegree{}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.AutoCombine = true
				on, err := runOnMesh(t.Context(), tc.subs, meshByName(t, trName, k), &fanInDegree{}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !on.Values.EqualValues(off.Values) {
					t.Fatal("combined fan-in values differ from uncombined")
				}
				for v := 0; v < tc.g.NumVertices(); v++ {
					got, ok := on.Value(graph.VertexID(v))
					if !ok {
						continue
					}
					if want := float64(tc.g.InDegree(graph.VertexID(v))); got != want {
						t.Fatalf("in-degree(%d) = %g, want %g", v, got, want)
					}
				}
				oc, fc := on.MessageCounts(), off.MessageCounts()
				if oc.Emitted != fc.Emitted {
					t.Fatalf("emitted rows differ: %d vs %d", oc.Emitted, fc.Emitted)
				}
				if oc.Wire >= fc.Wire {
					t.Fatalf("sender-side combining sent %d rows, want strictly fewer than %d",
						oc.Wire, fc.Wire)
				}
			})
		}
	}
}

// TestCombinerExplicitOverridesAuto: a program without a declared
// combiner runs uncombined under AutoCombine — AutoCombine is the only way
// a run picks up a combiner, and it never invents one. (The name predates
// the removal of the explicit Config.Combiner override.)
func TestCombinerExplicitOverridesAuto(t *testing.T) {
	_, subs := starGraph(t, 100, 3)
	// A program that declares no combiner must run uncombined under
	// AutoCombine: all three counts stay equal even on the star graph.
	plain, err := bsp.Run(t.Context(), subs, noCombiner{&apps.CC{}}, bsp.Config{AutoCombine: true})
	if err != nil {
		t.Fatal(err)
	}
	if c := plain.MessageCounts(); c.Emitted != c.Wire || c.Wire != c.Delivered {
		t.Fatalf("AutoCombine combined a program with no declared combiner: %+v", c)
	}
}

// noCombiner hides a program's CombinerProvider implementation (plain
// struct fields do not promote methods through the interface check).
type noCombiner struct{ inner bsp.Program }

func (p noCombiner) Name() string { return p.inner.Name() }

func (p noCombiner) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	return p.inner.NewWorker(sub, env)
}

// sparseThenFanIn emits a single-row batch in its first two message
// steps (a frontier warming up from one source) and only then bursts
// duplicate-heavy per-edge batches — the adaptive sender-side probe must
// not mistake the sub-2-row steps for duplicate-free evidence and
// disable coalescing before the burst.
type sparseThenFanIn struct{}

func (*sparseThenFanIn) Name() string { return "sparse-then-fan-in" }

func (*sparseThenFanIn) MessageCombiner() transport.Combiner { return transport.SumCombiner{} }

func (*sparseThenFanIn) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	return &sparseThenFanInWorker{sub: sub, env: env}
}

type sparseThenFanInWorker struct {
	sub *bsp.Subgraph
	env bsp.Env
}

func (w *sparseThenFanInWorker) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	out := make([]*transport.MessageBatch, w.sub.NumWorkers)
	switch {
	case step < 2: // sparse frontier: one row to the next worker
		b := w.env.NewBatch()
		b.AppendScalar(w.sub.GlobalIDs[0], 1)
		out[(w.sub.Part+1)%w.sub.NumWorkers] = b
		return out, false
	case step == 2: // the burst: per-edge duplicate rows to each dst's master
		for _, e := range w.sub.Edges {
			master := w.sub.Master(int32(e.Dst))
			if out[master] == nil {
				out[master] = w.env.NewBatch()
			}
			out[master].AppendScalar(w.sub.GlobalIDs[e.Dst], 1)
		}
		return out, false
	default:
		return nil, false
	}
}

func (w *sparseThenFanInWorker) Values() *graph.ValueMatrix {
	return w.env.NewValues(w.sub.NumLocalVertices())
}

// TestCombinerAdaptiveProbeIgnoresTinyBatches: sub-2-row steps carry no
// duplicate information, so the burst after a sparse start must still be
// coalesced (wire strictly below emitted).
func TestCombinerAdaptiveProbeIgnoresTinyBatches(t *testing.T) {
	_, subs := starGraph(t, 200, 4)
	res, err := bsp.Run(t.Context(), subs, &sparseThenFanIn{}, bsp.Config{AutoCombine: true})
	if err != nil {
		t.Fatal(err)
	}
	c := res.MessageCounts()
	if c.Wire >= c.Emitted {
		t.Fatalf("burst after a sparse start crossed the wire uncombined: %+v", c)
	}
}

// mixedBatches sends, per worker and step, one batch to each of its two
// successors, scripted so that strictly ascending batches (which the engine
// books as a duplicate scan that removed nothing, without scanning) must
// drive the adaptive probe exactly as scanned ones do:
//
//	step 0, 2: ascending + duplicate-bearing (combined: 20 rows emitted, 15 sent)
//	step 1:    ascending + descending        (a real scan that removes nothing)
//	step 3, 4: ascending + ascending         (two duplicate-free steps: the probe gives up)
//	step 5:    ascending + duplicate-bearing (no longer combined: 20 sent)
//
// Receivers sum what they cover, so the values are combining-invariant.
type mixedBatches struct{}

func (*mixedBatches) Name() string { return "mixed-batches" }

func (*mixedBatches) MessageCombiner() transport.Combiner { return transport.SumCombiner{} }

func (*mixedBatches) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	return &mixedBatchesWorker{sub: sub, env: env, acc: make([]float64, sub.NumLocalVertices())}
}

type mixedBatchesWorker struct {
	sub *bsp.Subgraph
	env bsp.Env
	acc []float64
}

func (w *mixedBatchesWorker) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	for i, gid := range in.IDs {
		if local, ok := w.sub.LocalOf(gid); ok {
			w.acc[local] += in.Scalar(i)
		}
	}
	if step > 5 {
		return nil, false
	}
	const rows = 10
	batch := func(pick func(i int) int) *transport.MessageBatch {
		b := w.env.NewBatch()
		for i := 0; i < rows; i++ {
			b.AppendScalar(w.sub.GlobalIDs[pick(i)], float64(step+1))
		}
		return b
	}
	ascending := func(i int) int { return i }
	second := ascending
	switch step {
	case 0, 2, 5:
		second = func(i int) int { return i % (rows / 2) }
	case 1:
		second = func(i int) int { return rows - 1 - i }
	}
	out := make([]*transport.MessageBatch, w.sub.NumWorkers)
	out[(w.sub.Part+1)%w.sub.NumWorkers] = batch(ascending)
	out[(w.sub.Part+2)%w.sub.NumWorkers] = batch(second)
	return out, false
}

func (w *mixedBatchesWorker) Values() *graph.ValueMatrix {
	vals := w.env.NewValues(len(w.acc))
	for l, v := range w.acc {
		vals.SetScalar(l, v)
	}
	return vals
}

// TestCombinerAscendingBatchesCountAsScans pins the per-step wire counts
// of the script above — including the step at which the adaptive probe
// stops combining — and the combining-invariance of the values.
func TestCombinerAscendingBatchesCountAsScans(t *testing.T) {
	subs := buildSubs(t, testGraphs(t)["powerlaw"], core.New(), 3)
	on, err := bsp.Run(t.Context(), subs, &mixedBatches{}, bsp.Config{AutoCombine: true})
	if err != nil {
		t.Fatal(err)
	}
	off, err := bsp.Run(t.Context(), subs, &mixedBatches{}, bsp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !on.Values.EqualValues(off.Values) {
		t.Fatal("combined values differ from uncombined")
	}
	wantSent := []int64{15, 20, 15, 20, 20, 20, 0}
	for w, stats := range on.Workers {
		if !slices.Equal(stats.Sent, wantSent) {
			t.Errorf("worker %d: Sent per step %v, want %v", w, stats.Sent, wantSent)
		}
		if !slices.Equal(stats.Emitted, off.Workers[w].Emitted) || !slices.Equal(off.Workers[w].Sent, stats.Emitted) {
			t.Errorf("worker %d: Emitted %v, uncombined run emitted %v and sent %v",
				w, stats.Emitted, off.Workers[w].Emitted, off.Workers[w].Sent)
		}
	}
}

// TestBuiltInAppsAllocateNoCombineIndex: the five apps send by routing-plan
// column or ascending sweep, so every batch they emit is strictly ascending
// and a combining run must never pay for the coalescing index. The graph's
// id space is padded with isolated vertices to just inside the dense gate,
// which makes the k indexes (8·|V| bytes each) larger than everything else
// a job allocates; the heap bytes of a warm job with combining on must stay
// within half of them of the same job with combining off (the slack absorbs
// batch-pool misses, which the race detector provokes at random).
func TestBuiltInAppsAllocateNoCombineIndex(t *testing.T) {
	pl, _ := pinnedGraphs(t)
	const k, paddedIDs = 8, 9000
	g, err := graph.New(paddedIDs, pl.Edges())
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.New().Partition(t.Context(), g, k)
	if err != nil {
		t.Fatal(err)
	}
	subs := buildWeightedSubs(t, g, a)
	for _, sub := range subs {
		if paddedIDs > 16*sub.NumLocalVertices() {
			t.Fatalf("part %d covers %d of %d ids: outside the dense gate, the test would be vacuous",
				sub.Part, sub.NumLocalVertices(), paddedIDs)
		}
	}
	d, err := bsp.NewDeployment(subs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const slack = k / 2 * 8 * paddedIDs
	for _, prog := range combinerApps() {
		jobBytes := func(combine bool) uint64 {
			least := ^uint64(0)
			var before, after runtime.MemStats
			for i := 0; i < 6; i++ { // the first run warms the pools and tables
				runtime.ReadMemStats(&before)
				if _, err := d.Run(t.Context(), prog, bsp.Config{AutoCombine: combine}); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				if i > 0 {
					least = min(least, after.TotalAlloc-before.TotalAlloc)
				}
			}
			return least
		}
		if off, on := jobBytes(false), jobBytes(true); on >= off+slack {
			t.Errorf("%s: %d B per job with combining on, %d B off: %d dense combine indexes cost %d B",
				appName(prog), on, off, k, 2*slack)
		}
	}
}
