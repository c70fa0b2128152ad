// Horizon tests for unit-weight SSSP: the bounded relax must reach
// SequentialSSSP's distances bit for bit on every partition shape, resume
// from any checkpoint epoch (the parked set is rebuilt from the distances
// alone), and never stall a long path behind its horizon.
package apps

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/graph"
	"ebv/internal/metis"
	"ebv/internal/ne"
	"ebv/internal/partition"
	"ebv/internal/rng"
)

// randomMultigraph draws a small multigraph of disconnected pieces: a
// random block with self-loops and duplicate edges, a chain (deep
// distances) that half the draws attach to the block by one edge, and a
// few isolated vertices. It returns the graph and a source in the block.
func randomMultigraph(r *rng.Source, directed bool) (*graph.Graph, graph.VertexID) {
	block, chain, isolated := 8+r.Intn(40), 5+r.Intn(30), r.Intn(4)
	var edges []graph.Edge
	for range block + r.Intn(2*block) {
		u := graph.VertexID(r.Intn(block))
		v := graph.VertexID(r.Intn(block))
		edges = append(edges, graph.Edge{Src: u, Dst: v})
		if r.Intn(6) == 0 { // a duplicate
			edges = append(edges, graph.Edge{Src: u, Dst: v})
		}
		if r.Intn(8) == 0 { // a self-loop
			edges = append(edges, graph.Edge{Src: u, Dst: u})
		}
	}
	for i := block; i < block+chain-1; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)})
	}
	if r.Intn(2) == 0 {
		edges = append(edges, graph.Edge{Src: graph.VertexID(r.Intn(block)), Dst: graph.VertexID(block)})
	}
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	n := block + chain + isolated
	var g *graph.Graph
	var err error
	if directed {
		g, err = graph.New(n, edges)
	} else {
		g, err = graph.NewUndirected(n, edges)
	}
	if err != nil {
		panic(err)
	}
	return g, graph.VertexID(r.Intn(block))
}

func buildSSSPSubs(tb testing.TB, g *graph.Graph, p partition.Partitioner, k int) []*bsp.Subgraph {
	tb.Helper()
	a, err := p.Partition(context.Background(), g, k)
	if err != nil {
		tb.Fatalf("%s k=%d: %v", p.Name(), k, err)
	}
	subs, err := bsp.BuildSubgraphs(g, a)
	if err != nil {
		tb.Fatal(err)
	}
	return subs
}

// checkOracle fails unless every covered vertex holds its oracle value
// (a Sequential* result), bit for bit.
func checkOracle(tb testing.TB, want []float64, res *bsp.Result) {
	tb.Helper()
	for v, d := range want {
		if got, ok := res.Value(graph.VertexID(v)); ok && math.Float64bits(got) != math.Float64bits(d) {
			tb.Fatalf("vertex %d: value %g, oracle %g", v, got, d)
		}
	}
}

// epochStore keeps every worker's checkpoint per epoch.
type epochStore struct {
	mu     sync.Mutex
	k      int
	epochs map[int][]*bsp.Checkpoint
}

func (s *epochStore) sink(worker int, cp *bsp.Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.epochs[cp.Step] == nil {
		s.epochs[cp.Step] = make([]*bsp.Checkpoint, s.k)
	}
	s.epochs[cp.Step][worker] = &bsp.Checkpoint{Step: cp.Step, State: cp.State,
		InboxIDs: slices.Clone(cp.InboxIDs), InboxVals: slices.Clone(cp.InboxVals), Vote: cp.Vote}
	return nil
}

// parkedAt reports whether an epoch's snapshots hold a parked vertex:
// one beyond the previous superstep's horizon, step·Δ.
func parkedAt(subs []*bsp.Subgraph, cps []*bsp.Checkpoint) bool {
	for w, cp := range cps {
		horizon := float64(cp.Step) * horizonStep(subs[w])
		for l := range subs[w].NumLocalVertices() {
			if d := cp.State.Scalar(l); d > horizon && !math.IsInf(d, 1) {
				return true
			}
		}
	}
	return false
}

// TestSSSPHorizon is the horizon's property table.
func TestSSSPHorizon(t *testing.T) {
	partitioners := []partition.Partitioner{core.New(), &ne.NE{}, &metis.Metis{}, &partition.DBH{}}

	// Exactness and resume: every epoch of a CheckpointEvery: 1 run resumes
	// to the uninterrupted run's values and step count.
	t.Run("exact-and-resumable", func(t *testing.T) {
		r := rng.New(2027)
		restored, parkedEpochs := 0, 0
		for draw := range 4 {
			for _, directed := range []bool{true, false} {
				g, src := randomMultigraph(r, directed)
				for _, p := range partitioners {
					for _, k := range []int{1, 3, 8} {
						subs := buildSSSPSubs(t, g, p, k)
						store := &epochStore{k: k, epochs: make(map[int][]*bsp.Checkpoint)}
						full, err := bsp.Run(t.Context(), subs, &SSSP{Source: src}, bsp.Config{
							CheckpointEvery: 1, CheckpointSink: store.sink,
						})
						if err != nil {
							t.Fatalf("draw %d directed=%t %s k=%d: %v", draw, directed, p.Name(), k, err)
						}
						checkOracle(t, SequentialSSSP(g, src), full)
						for step, cps := range store.epochs {
							restored++
							if parkedAt(subs, cps) {
								parkedEpochs++
							}
							res, err := bsp.Run(t.Context(), subs, &SSSP{Source: src}, bsp.Config{Resume: cps})
							if err != nil {
								t.Fatalf("draw %d %s k=%d: resume from %d: %v", draw, p.Name(), k, step, err)
							}
							if res.Steps != full.Steps || !res.Values.EqualValues(full.Values) {
								t.Fatalf("draw %d directed=%t %s k=%d: resume from %d: %d steps, want %d (values equal: %t)",
									draw, directed, p.Name(), k, step, res.Steps, full.Steps, res.Values.EqualValues(full.Values))
							}
						}
					}
				}
			}
		}
		if parkedEpochs == 0 {
			t.Fatal("no epoch held a parked vertex: the resume rows do not cover the rebuilt parked set")
		}
		t.Logf("%d epochs resumed, %d of them with parked vertices", restored, parkedEpochs)
	})

	// No stall: on a directed path the superstep count must not grow with
	// its length (each part's Δ grows with its stretch of the path): the
	// counts pinned at 10³ and 10⁵ vertices differ by at most one, and each
	// stays within 1.5× the unbounded relax, which SSSP{Weighted: true} runs
	// on unweighted subgraphs.
	t.Run("path-no-stall", func(t *testing.T) {
		lengths := [2]int{1_000, 100_000}
		for _, tc := range []struct {
			p    partition.Partitioner
			k    int
			want [2]int // supersteps at lengths[0], lengths[1]
		}{
			{core.New(), 2, [2]int{5, 5}},
			{core.New(), 8, [2]int{22, 23}},
			{&ne.NE{}, 2, [2]int{2, 2}},
			{&ne.NE{}, 8, [2]int{11, 11}},
		} {
			if d := tc.want[1] - tc.want[0]; d < -1 || d > 1 {
				t.Fatalf("%s k=%d: pinned counts %v grow with the path", tc.p.Name(), tc.k, tc.want)
			}
			for i, n := range lengths {
				g := lineGraph(t, n)
				subs := buildSSSPSubs(t, g, tc.p, tc.k)
				bounded, err := bsp.Run(t.Context(), subs, &SSSP{}, bsp.Config{})
				if err != nil {
					t.Fatal(err)
				}
				checkOracle(t, SequentialSSSP(g, 0), bounded)
				unbounded, err := bsp.Run(t.Context(), subs, &SSSP{Weighted: true}, bsp.Config{})
				if err != nil {
					t.Fatal(err)
				}
				if bounded.Steps != tc.want[i] || 2*bounded.Steps > 3*unbounded.Steps {
					t.Errorf("%s k=%d path %d: %d supersteps (unbounded %d), want %d and <= 1.5× unbounded",
						tc.p.Name(), tc.k, n, bounded.Steps, unbounded.Steps, tc.want[i])
				}
			}
		}
	})

	// Δ is a structural statistic of the partition: pin it per part on the
	// two graphs the bsp emission goldens run (EBV, k = 8), so a change to
	// the depth BFS or the rule cannot move those digests silently.
	t.Run("delta-pinned", func(t *testing.T) {
		powerlaw, road := emissionGraphs(t)
		for _, tc := range []struct {
			name string
			g    *graph.Graph
			want []float64
		}{
			{"powerlaw", powerlaw, []float64{3.020186335403727, 3.171385991058122, 2.988691437802908, 2.955665024630542,
				2.9408866995073892, 2.965686274509804, 3.031847133757962, 2.9491803278688526}},
			{"road", road, []float64{3.956081081081081, 3.8203389830508474, 3.366336633663366, 3.043046357615894,
				3.217821782178218, 3.5555555555555554, 3.01980198019802, 3.263157894736842}},
		} {
			subs := buildSSSPSubs(t, tc.g, core.New(), 8)
			got := make([]float64, len(subs))
			for p, sub := range subs {
				got[p] = horizonStep(sub)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("%s: Δ per part %v, pinned %v", tc.name, got, tc.want)
			}
		}
	})
}

// FuzzSSSPMatchesSequential: bytes become a small directed multigraph, a
// part count and a source; unit SSSP over a seeded hash partition and over
// EBV must reach the oracle's distances bit for bit.
func FuzzSSSPMatchesSequential(f *testing.F) {
	f.Add([]byte{12, 3, 0, 7, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 0, 8, 8, 9, 9, 10, 10, 11})
	f.Add([]byte{5, 8, 2, 1, 0, 0, 0, 1, 0, 1, 1, 0, 2, 3, 3, 4})
	f.Add([]byte{30, 2, 29, 0, 29, 28, 28, 27, 27, 26, 5, 5, 26, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n, k := 1+int(data[0])%48, 1+int(data[1])%8
		src, salt := graph.VertexID(int(data[2])%n), uint64(data[3])
		var edges []graph.Edge
		for i := 4; i+1 < len(data); i += 2 {
			edges = append(edges, graph.Edge{Src: graph.VertexID(int(data[i]) % n), Dst: graph.VertexID(int(data[i+1]) % n)})
		}
		g, err := graph.New(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []partition.Partitioner{&partition.Random{Salt: salt}, core.New()} {
			res, err := bsp.Run(t.Context(), buildSSSPSubs(t, g, p, k), &SSSP{Source: src},
				bsp.Config{})
			if err != nil {
				t.Fatalf("%s k=%d: %v", p.Name(), k, err)
			}
			checkOracle(t, SequentialSSSP(g, src), res)
		}
	})
}
