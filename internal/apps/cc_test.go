// Pivot-flood tests for CC: flooding the smallest replicated label first
// and Hash-Min after must reach SequentialCC's labels bit for bit on every
// partition shape, resume from any checkpoint epoch of every phase (sent and
// the parked set are rebuilt from the labels, the step and the checkpointed
// vote), and send one broadcast on the two emission graphs, in pinned steps.
package apps

import (
	"sync"
	"testing"

	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/gen"
	"ebv/internal/graph"
	"ebv/internal/metis"
	"ebv/internal/ne"
	"ebv/internal/partition"
	"ebv/internal/rng"
	"ebv/internal/transport"
)

// emissionGraphs are the two graphs the bsp emission goldens run (there at
// EBV, k = 8): a skewed power-law graph and a road lattice numbered row by
// row.
func emissionGraphs(tb testing.TB) (powerlaw, road *graph.Graph) {
	tb.Helper()
	powerlaw, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: 3000, NumEdges: 24000, Eta: 2.0, Directed: true, Seed: 7,
	})
	if err != nil {
		tb.Fatal(err)
	}
	road, err = gen.Road(gen.RoadConfig{Width: 40, Height: 40, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	return powerlaw, road
}

// ccGraph lays two to four randomMultigraph draws side by side, so a graph
// has several components, and half the time shuffles the vertex ids, so the
// smallest id of a component need not sit near its other small ids.
func ccGraph(r *rng.Source, directed bool) *graph.Graph {
	var edges []graph.Edge
	n := 0
	for range 2 + r.Intn(3) {
		g, _ := randomMultigraph(r, directed)
		for _, e := range g.Edges() {
			edges = append(edges, graph.Edge{Src: e.Src + graph.VertexID(n), Dst: e.Dst + graph.VertexID(n)})
		}
		n += g.NumVertices()
	}
	if r.Intn(2) == 0 {
		perm := make([]graph.VertexID, n)
		for v := range perm {
			perm[v] = graph.VertexID(v)
		}
		r.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i, e := range edges {
			edges[i] = graph.Edge{Src: perm[e.Src], Dst: perm[e.Dst]}
		}
	}
	g, err := graph.New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// ccPhase names the phase an epoch resumes into, read off its step and vote
// as the workers read them: step 1 follows the quiet step 0 (nothing sent
// yet), a busy vote is a flood step, an idle one the switch step, none at
// all send-on-change Hash-Min.
func ccPhase(cps []*bsp.Checkpoint) string {
	switch v := cps[0].Vote; {
	case cps[0].Step == 1 && v.Voted:
		return "quiet"
	case v.Flag:
		return "flood"
	case v.Voted:
		return "switch"
	}
	return "hash-min"
}

// TestCCPivotFlood is the pivot flood's property table.
func TestCCPivotFlood(t *testing.T) {
	partitioners := []partition.Partitioner{core.New(), &ne.NE{}, &metis.Metis{}, &partition.DBH{}, &partition.Random{}}

	// Exactness and resume: every epoch of a CheckpointEvery: 1 run resumes
	// to the uninterrupted run's values and step count, and the table covers
	// epochs of all four phases.
	t.Run("exact-and-resumable", func(t *testing.T) {
		r := rng.New(2030)
		phases := map[string]int{}
		for draw := range 4 {
			for _, directed := range []bool{true, false} {
				g := ccGraph(r, directed)
				for _, p := range partitioners {
					for _, k := range []int{1, 3, 8} {
						subs := buildSSSPSubs(t, g, p, k)
						store := &epochStore{k: k, epochs: make(map[int][]*bsp.Checkpoint)}
						full, err := bsp.Run(t.Context(), subs, &CC{}, bsp.Config{
							CheckpointEvery: 1, CheckpointSink: store.sink,
						})
						if err != nil {
							t.Fatalf("draw %d directed=%t %s k=%d: %v", draw, directed, p.Name(), k, err)
						}
						checkOracle(t, SequentialCC(g), full)
						for step, cps := range store.epochs {
							phases[ccPhase(cps)]++
							res, err := bsp.Run(t.Context(), subs, &CC{}, bsp.Config{
								Resume: cps,
							})
							if err != nil {
								t.Fatalf("draw %d %s k=%d: resume from %d: %v", draw, p.Name(), k, step, err)
							}
							if res.Steps != full.Steps || !res.Values.EqualValues(full.Values) {
								t.Fatalf("draw %d directed=%t %s k=%d: resume from %d (%s): %d steps, want %d (values equal: %t)",
									draw, directed, p.Name(), k, step, ccPhase(cps), res.Steps, full.Steps,
									res.Values.EqualValues(full.Values))
							}
						}
					}
				}
			}
		}
		for _, phase := range []string{"quiet", "flood", "switch", "hash-min"} {
			if phases[phase] == 0 {
				t.Errorf("no epoch resumed into the %s phase (%v)", phase, phases)
			}
		}
		t.Logf("epochs resumed per phase: %v", phases)
	})

	// Warm start across a merge: the previous labels seed a graph in which
	// one inserted edge joins a second lattice (labels from 400) to the
	// pivot's (label 0), so the flood has to carry the pivot into it.
	t.Run("warm-merge", func(t *testing.T) {
		lattice, err := gen.Road(gen.RoadConfig{Width: 20, Height: 20, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		n := lattice.NumVertices()
		var edges []graph.Edge
		for _, off := range []graph.VertexID{0, graph.VertexID(n)} {
			for _, e := range lattice.Edges() {
				edges = append(edges, graph.Edge{Src: e.Src + off, Dst: e.Dst + off})
			}
		}
		g0, err := graph.New(2*n, edges)
		if err != nil {
			t.Fatal(err)
		}
		g1, err := graph.New(2*n, append(edges[:len(edges):len(edges)], graph.Edge{Src: graph.VertexID(2*n - 1), Dst: 5}))
		if err != nil {
			t.Fatal(err)
		}
		prev, err := bsp.Run(t.Context(), buildSSSPSubs(t, g0, core.New(), 4), &CC{}, bsp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := prev.Value(graph.VertexID(2*n - 1)); v != float64(n) {
			t.Fatalf("before the merge vertex %d is labelled %g, want %d", 2*n-1, v, n)
		}
		subs := buildSSSPSubs(t, g1, core.New(), 4)
		cold, err := bsp.Run(t.Context(), subs, &CC{}, bsp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := bsp.Run(t.Context(), subs, &CC{Warm: prev.Values, WarmCovered: prev.Covered},
			bsp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		checkOracle(t, SequentialCC(g1), warm)
		if v, _ := warm.Value(graph.VertexID(2*n - 1)); v != 0 {
			t.Fatalf("after the merge vertex %d is labelled %g, want 0", 2*n-1, v)
		}
		if warm.Steps > cold.Steps {
			t.Fatalf("warm CC took %d supersteps, cold %d", warm.Steps, cold.Steps)
		}
	})

	// Rows and steps on the emission graphs (EBV, k = 8), pinned. Both are
	// connected, so the rows are exactly one broadcast of the pivot along
	// every component link: on a Deployment, and as k RunWorker calls over
	// one Mem job, each worker handed its part of the epoch's links.
	t.Run("pinned", func(t *testing.T) {
		const k = 8
		powerlaw, road := emissionGraphs(t)
		for _, tc := range []struct {
			name        string
			g           *graph.Graph
			rows, steps int
		}{
			{"powerlaw", powerlaw, 86, 5},
			{"road", road, 616, 11},
		} {
			subs := buildSSSPSubs(t, tc.g, core.New(), k)
			res, err := bsp.Run(t.Context(), subs, &CC{}, bsp.Config{})
			if err != nil {
				t.Fatal(err)
			}
			checkOracle(t, SequentialCC(tc.g), res)
			if rows := res.TotalMessages(); rows != int64(tc.rows) || res.Steps != tc.steps {
				t.Errorf("%s: %d rows in %d steps, pinned %d in %d", tc.name, rows, res.Steps, tc.rows, tc.steps)
			}
			links := 0
			for _, part := range bsp.ComponentLinks(subs) {
				links += len(part.Peers)
			}
			if rows := res.TotalMessages(); rows != int64(links) {
				t.Errorf("%s: %d rows, the epoch has %d links", tc.name, rows, links)
			}

			results := runEachWorker(t, subs, bsp.ComponentLinks(subs), &CC{})
			vals, rows := make([]*graph.ValueMatrix, k), int64(0)
			for w, r := range results {
				if r.Steps != tc.steps {
					t.Errorf("%s: RunWorker %d took %d steps, pinned %d", tc.name, w, r.Steps, tc.steps)
				}
				vals[w], rows = r.Values, rows+r.Stats.TotalSent()
			}
			labels, covered, err := bsp.AssembleValues(subs, vals, 1)
			if err != nil {
				t.Fatal(err)
			}
			for v, label := range SequentialCC(tc.g) {
				if covered[v] && labels.Scalar(v) != label {
					t.Fatalf("%s: RunWorker labels vertex %d %g, SequentialCC %g", tc.name, v, labels.Scalar(v), label)
				}
			}
			if rows != int64(tc.rows) {
				t.Errorf("%s: RunWorker sent %d rows, pinned %d, the epoch has %d links", tc.name, rows, tc.rows, links)
			}
		}
	})
}

// runEachWorker runs prog over subs as one bsp.RunWorker call per part, each
// handed its part of links, all over one job of an in-memory mesh, and
// returns the workers' results.
func runEachWorker(t *testing.T, subs []*bsp.Subgraph, links []*bsp.Links, prog bsp.Program) []*bsp.WorkerResult {
	t.Helper()
	mesh, err := transport.NewMemDeployment(len(subs))
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	trs, err := mesh.OpenJob(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	results, errs := make([]*bsp.WorkerResult, len(subs)), make([]error, len(subs))
	var wg sync.WaitGroup
	for w, sub := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w], errs[w] = bsp.RunWorker(t.Context(), sub, links[w], prog, trs[w], bsp.Config{})
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("RunWorker %d: %v", w, err)
		}
	}
	return results
}

// FuzzCCMatchesSequential: bytes become a small multigraph, a part count,
// a direction, a hash salt and an epoch; CC over a seeded hash partition and
// over EBV must reach the oracle's labels bit for bit, checkpointing every
// step, and so must a resume from the chosen epoch.
func FuzzCCMatchesSequential(f *testing.F) {
	f.Add([]byte{12, 3, 0, 7, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 0, 8, 8, 9, 9, 10, 10, 11})
	f.Add([]byte{9, 8, 1, 1, 8, 7, 7, 6, 6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1, 0})
	f.Add([]byte{30, 4, 0, 5, 29, 28, 28, 27, 3, 3, 10, 11, 11, 10, 20, 21, 21, 22, 22, 20, 29, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n, k := 1+int(data[0])%48, 1+int(data[1])%8
		directed, salt := data[2]%2 == 0, uint64(data[3])
		epoch := 1 + int(data[2]/2)%8
		var edges []graph.Edge
		for i := 4; i+1 < len(data); i += 2 {
			edges = append(edges, graph.Edge{Src: graph.VertexID(int(data[i]) % n), Dst: graph.VertexID(int(data[i+1]) % n)})
		}
		build := graph.NewUndirected
		if directed {
			build = graph.New
		}
		g, err := build(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []partition.Partitioner{&partition.Random{Salt: salt}, core.New()} {
			subs := buildSSSPSubs(t, g, p, k)
			store := &epochStore{k: k, epochs: make(map[int][]*bsp.Checkpoint)}
			res, err := bsp.Run(t.Context(), subs, &CC{}, bsp.Config{
				CheckpointEvery: 1, CheckpointSink: store.sink,
			})
			if err != nil {
				t.Fatalf("%s k=%d: %v", p.Name(), k, err)
			}
			checkOracle(t, SequentialCC(g), res)
			cps := store.epochs[min(epoch, len(store.epochs))]
			if cps == nil {
				continue
			}
			resumed, err := bsp.Run(t.Context(), subs, &CC{}, bsp.Config{Resume: cps})
			if err != nil {
				t.Fatalf("%s k=%d: resume from %d: %v", p.Name(), k, cps[0].Step, err)
			}
			if resumed.Steps != res.Steps || !resumed.Values.EqualValues(res.Values) {
				t.Fatalf("%s k=%d: resume from %d (%s): %d steps, want %d", p.Name(), k,
					cps[0].Step, ccPhase(cps), resumed.Steps, res.Steps)
			}
		}
	})
}
