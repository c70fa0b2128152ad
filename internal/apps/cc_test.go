// Link-union tests for CC: the union of the component links at worker 0
// must reach SequentialCC's labels bit for bit on every partition shape, in
// the rows and steps the protocol fixes, resume from any checkpoint epoch,
// and take pinned rows and steps on the two emission graphs.
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

// ccShape returns what the link union must take on subs over g: the rows,
// Σ over p ≠ 0 of p's link vertices plus k − 1 per relabelled label, and
// the steps, 3 when some label changes, 2 when links exist but none
// changes, 1 when no vertex is replicated. A label is the smallest global
// id of a linked local component; it is relabelled when SequentialCC puts a
// smaller id in its component.
func ccShape(g *graph.Graph, subs []*bsp.Subgraph) (rows, steps int) {
	want, relabelled, links := SequentialCC(g), map[graph.VertexID]bool{}, 0
	for p, part := range bsp.ComponentLinks(subs) {
		root := subs[p].ComponentRoots()
		for _, l := range part.Locals {
			if label := subs[p].GlobalIDs[root[l]]; want[label] < float64(label) {
				relabelled[label] = true
			}
		}
		if p != 0 {
			rows += len(part.Locals)
		}
		links += len(part.Locals)
	}
	switch {
	case len(relabelled) > 0:
		steps = 3
	case links > 0:
		steps = 2
	default:
		steps = 1
	}
	return rows + (len(subs)-1)*len(relabelled), steps
}

// TestCCLinkUnion is the link union's property table.
func TestCCLinkUnion(t *testing.T) {
	partitioners := []partition.Partitioner{core.New(), &ne.NE{}, &metis.Metis{}, &partition.DBH{}, &partition.Random{}}

	// Exactness and resume: every run takes the rows and steps ccShape
	// gives, and every epoch of a CheckpointEvery: 1 run resumes to the
	// uninterrupted run's values and step count. The table covers epochs
	// before steps 1 and 2.
	t.Run("exact-and-resumable", func(t *testing.T) {
		r := rng.New(2030)
		epochs := map[int]int{}
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
						if rows, steps := ccShape(g, subs); full.TotalMessages() != int64(rows) || full.Steps != steps {
							t.Fatalf("draw %d directed=%t %s k=%d: %d rows in %d steps, want %d in %d",
								draw, directed, p.Name(), k, full.TotalMessages(), full.Steps, rows, steps)
						}
						for step, cps := range store.epochs {
							epochs[step]++
							res, err := bsp.Run(t.Context(), subs, &CC{}, bsp.Config{
								Resume: cps,
							})
							if err != nil {
								t.Fatalf("draw %d %s k=%d: resume from %d: %v", draw, p.Name(), k, step, err)
							}
							if res.Steps != full.Steps || !res.Values.EqualValues(full.Values) {
								t.Fatalf("draw %d directed=%t %s k=%d: resume from %d: %d steps, want %d (values equal: %t)",
									draw, directed, p.Name(), k, step, res.Steps, full.Steps,
									res.Values.EqualValues(full.Values))
							}
						}
					}
				}
			}
		}
		for _, step := range []int{1, 2} {
			if epochs[step] == 0 {
				t.Errorf("no epoch resumed at step %d (%v)", step, epochs)
			}
		}
		t.Logf("epochs resumed per step: %v", epochs)
	})

	// Rows and steps pinned on the emission graphs (EBV, k = 8), both
	// connected, and on a star around vertex 0, whose every local component
	// already holds the smallest id, and on a single part. Each runs on a
	// Deployment, and as k RunWorker calls over one Mem job, each worker
	// handed its part of the epoch's links.
	t.Run("pinned", func(t *testing.T) {
		powerlaw, road := emissionGraphs(t)
		var spokes []graph.Edge
		for v := range graph.VertexID(40) {
			spokes = append(spokes, graph.Edge{Src: 0, Dst: v + 1})
		}
		star, err := graph.New(41, spokes)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name           string
			g              *graph.Graph
			k, rows, steps int
		}{
			{"powerlaw", powerlaw, 8, 126, 3},
			{"road", road, 8, 1273, 3},
			{"star", star, 3, 2, 2},
			{"one-part", road, 1, 0, 1},
		} {
			subs := buildSSSPSubs(t, tc.g, core.New(), tc.k)
			res, err := bsp.Run(t.Context(), subs, &CC{}, bsp.Config{})
			if err != nil {
				t.Fatal(err)
			}
			checkOracle(t, SequentialCC(tc.g), res)
			rows, steps := ccShape(tc.g, subs)
			if res.TotalMessages() != int64(tc.rows) || res.Steps != tc.steps || rows != tc.rows || steps != tc.steps {
				t.Errorf("%s: %d rows in %d steps (formula %d in %d), pinned %d in %d",
					tc.name, res.TotalMessages(), res.Steps, rows, steps, tc.rows, tc.steps)
			}

			results := runEachWorker(t, subs, bsp.ComponentLinks(subs), &CC{})
			vals, sent := make([]*graph.ValueMatrix, tc.k), int64(0)
			for w, r := range results {
				if r.Steps != tc.steps {
					t.Errorf("%s: RunWorker %d took %d steps, pinned %d", tc.name, w, r.Steps, tc.steps)
				}
				vals[w], sent = r.Values, sent+r.Stats.TotalSent()
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
			if sent != int64(tc.rows) {
				t.Errorf("%s: RunWorker sent %d rows, pinned %d", tc.name, sent, tc.rows)
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
				t.Fatalf("%s k=%d: resume from %d: %d steps, want %d", p.Name(), k,
					cps[0].Step, resumed.Steps, res.Steps)
			}
		}
	})
}
