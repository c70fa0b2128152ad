// Tests for live sessions: streaming mutation batches into an open
// Session must leave it computing byte-identical results to a session
// freshly built from the final graph — on Mem and TCP transports, at
// value widths 1 and 8 — plus atomic rejection at the Session surface
// and the bounded job-stats ring that rides along.
package ebv_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"ebv"
)

// liveBaseAndStream derives a base graph and a mutation stream from one
// power-law draw: the held-out tail edges become inserts and a strided
// sample of base edges becomes deletes.
func liveBaseAndStream(t testing.TB, vertices, baseEdges, inserts, deletes, perBatch int) (*ebv.Graph, [][]ebv.Mutation) {
	t.Helper()
	g, err := ebv.PowerLaw(ebv.PowerLawConfig{
		NumVertices: vertices, NumEdges: baseEdges + inserts, Eta: 2.2, Directed: true, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := g.Edges()
	e0 := len(all) - inserts
	base, err := ebv.NewGraph(vertices, all[:e0])
	if err != nil {
		t.Fatal(err)
	}

	var muts []ebv.Mutation
	for _, e := range all[e0:] {
		muts = append(muts, ebv.Mutation{Op: ebv.OpInsert, Src: e.Src, Dst: e.Dst})
	}
	stride := e0 / deletes
	for i := 0; i < deletes; i++ {
		e := all[i*stride]
		muts = append(muts, ebv.Mutation{Op: ebv.OpDelete, Src: e.Src, Dst: e.Dst})
	}
	var batches [][]ebv.Mutation
	for len(muts) > 0 {
		n := min(perBatch, len(muts))
		batches = append(batches, muts[:n])
		muts = muts[n:]
	}
	return base, batches
}

// TestSessionApplyMatchesFreshBuild streams mutation batches (patch
// verification on) interleaved with jobs, then checks the streamed
// session computes byte-identical values to a session freshly built from
// its final graph and assignment — CC and PageRank at width 1,
// Aggregate at width 8, on Mem and TCP. The SmallDelta case replays the
// same stream in batches of 5, the regime where a batch touches few parts
// and the rest must be carried over by pointer, not rebuilt.
func TestSessionApplyMatchesFreshBuild(t *testing.T) {
	for _, tc := range []struct {
		name        string
		tcp         bool
		k, perBatch int
		wantReuse   bool
	}{
		{name: "Mem", k: 4, perBatch: 250},
		{name: "TCP", tcp: true, k: 4, perBatch: 250},
		{name: "SmallDelta", k: 16, perBatch: 5, wantReuse: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, batches := liveBaseAndStream(t, 1200, 7000, 1000, 250, tc.perBatch)
			opts := []ebv.PipelineOption{
				ebv.FromGraph(base),
				ebv.UsePartitioner(ebv.NewEBV()),
				ebv.Subgraphs(tc.k),
				ebv.VerifyMutations(),
			}
			if tc.tcp {
				opts = append(opts, ebv.UseTCPLoopback())
			}
			s, err := ebv.NewPipeline(opts...).Open(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			for i, batch := range batches {
				res, err := s.Apply(context.Background(), batch)
				if err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
				if res.Epoch != uint64(i+1) || s.Epoch() != res.Epoch {
					t.Fatalf("batch %d: epoch %d (session %d), want %d", i, res.Epoch, s.Epoch(), i+1)
				}
				// Interleave jobs so patched deployments actually serve.
				if i%2 == 0 {
					if _, err := s.Run(context.Background(), &ebv.CC{}); err != nil {
						t.Fatalf("CC after batch %d: %v", i, err)
					}
				}
			}
			st := s.LiveStats()
			if st.FullRebuilds != 0 || st.Batches != int64(len(batches)) {
				t.Fatalf("live stats = %+v, want %d purely patched batches", st, len(batches))
			}
			if tc.wantReuse && st.PartsReused == 0 {
				t.Fatalf("live stats = %+v: no part carried over across %d batches of %d", st, len(batches), tc.perBatch)
			}

			finalG, assignment, epoch := s.LiveSnapshot()
			if epoch != uint64(len(batches)) {
				t.Fatalf("snapshot epoch %d, want %d", epoch, len(batches))
			}
			freshOpts := []ebv.PipelineOption{ebv.FromGraph(finalG), ebv.UseAssignment(assignment)}
			if tc.tcp {
				freshOpts = append(freshOpts, ebv.UseTCPLoopback())
			}
			fresh, err := ebv.NewPipeline(freshOpts...).Open(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()

			type job struct {
				prog ebv.Program
				opts []ebv.RunOption
			}
			for _, j := range []job{
				{prog: &ebv.CC{}},
				{prog: &ebv.PageRank{Iterations: 8}},
				{prog: &ebv.Aggregate{Layers: 2}, opts: []ebv.RunOption{ebv.WithValueWidth(8)}},
			} {
				streamed, err := s.Run(context.Background(), j.prog, j.opts...)
				if err != nil {
					t.Fatalf("%s on streamed session: %v", j.prog.Name(), err)
				}
				want, err := fresh.Run(context.Background(), j.prog, j.opts...)
				if err != nil {
					t.Fatalf("%s on fresh session: %v", j.prog.Name(), err)
				}
				if streamed.Steps != want.Steps {
					t.Fatalf("%s: streamed %d steps, fresh %d", j.prog.Name(), streamed.Steps, want.Steps)
				}
				if !streamed.BSP.Values.EqualValues(want.BSP.Values) {
					t.Fatalf("%s: streamed session values differ from fresh build", j.prog.Name())
				}
			}
		})
	}
}

// TestSessionWarmStart runs the warm start on a session that
// Session.Apply actually patched: after an insert phase and a delete phase
// PageRank{Tol} seeded with the pre-delete ranks reaches the cold run's
// fixed point. Step counts are deterministic and on this input the warm
// run is strictly shorter — a seed that is dropped on the way equals cold
// and fails.
func TestSessionWarmStart(t *testing.T) {
	const inserts, perBatch = 1000, 250
	base, batches := liveBaseAndStream(t, 1200, 7000, inserts, 250, perBatch)
	ctx := context.Background()
	s, err := ebv.NewPipeline(
		ebv.FromGraph(base), ebv.UsePartitioner(ebv.NewEBV()), ebv.Subgraphs(4),
	).Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	run := func(what string, prog ebv.Program) *ebv.JobResult {
		t.Helper()
		res, err := s.Run(ctx, prog)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return res
	}
	apply := func(phase [][]ebv.Mutation) {
		t.Helper()
		for _, batch := range phase {
			if _, err := s.Apply(ctx, batch); err != nil {
				t.Fatal(err)
			}
		}
	}

	apply(batches[:inserts/perBatch])
	// The rank seed is a starting point, not a bound, so deletes leave it
	// usable.
	prPrev := run("pre-delete delta-PR", &ebv.PageRank{Tol: 1e-9, Iterations: 500})
	apply(batches[inserts/perBatch:])
	if st := s.LiveStats(); st.Deletes == 0 || st.FullRebuilds != 0 {
		t.Fatalf("live stats = %+v, want a patched delete phase", st)
	}
	prCold := run("cold delta-PR", &ebv.PageRank{Tol: 1e-9, Iterations: 500})
	prWarm := run("warm delta-PR", &ebv.PageRank{Tol: 1e-9, Iterations: 500, Warm: prPrev.BSP.Values, WarmCovered: prPrev.BSP.Covered})
	if prWarm.Steps >= prCold.Steps {
		t.Fatalf("warm delta-PR took %d supersteps, cold %d: the seed bought nothing", prWarm.Steps, prCold.Steps)
	}
	for v, covered := range prCold.BSP.Covered {
		if !covered {
			continue
		}
		if d := math.Abs(prWarm.BSP.Values.Scalar(v) - prCold.BSP.Values.Scalar(v)); d > 1e-6 {
			t.Fatalf("vertex %d: warm and cold delta-PR fixed points differ by %g", v, d)
		}
	}
}

// TestSessionApplyRejectsAtomically: a batch with an absent-edge delete
// fails with ErrMutationRejected and moves nothing — no epoch, no stats,
// and jobs still compute on the unchanged graph.
func TestSessionApplyRejectsAtomically(t *testing.T) {
	g := pipelineGraph(t)
	s, err := ebv.NewPipeline(
		ebv.FromGraph(g), ebv.UsePartitioner(ebv.NewEBV()), ebv.Subgraphs(4),
	).Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before, err := s.Run(context.Background(), &ebv.CC{})
	if err != nil {
		t.Fatal(err)
	}

	// Find a self-loop the generator did not draw, to delete.
	present := make(map[ebv.Edge]bool, g.NumEdges())
	for _, e := range g.Edges() {
		present[e] = true
	}
	absent := ebv.Edge{Src: 0, Dst: 0}
	for present[absent] {
		absent.Src++
		absent.Dst++
	}
	bad := []ebv.Mutation{
		{Op: ebv.OpInsert, Src: 0, Dst: 1},
		{Op: ebv.OpDelete, Src: absent.Src, Dst: absent.Dst},
	}
	if _, err := s.Apply(context.Background(), bad); !errors.Is(err, ebv.ErrMutationRejected) {
		t.Fatalf("Apply = %v, want ErrMutationRejected", err)
	}
	if s.Epoch() != 0 {
		t.Fatalf("rejected batch bumped the epoch to %d", s.Epoch())
	}
	if st := s.LiveStats(); st.Batches != 0 {
		t.Fatalf("rejected batch counted in stats: %+v", st)
	}
	after, err := s.Run(context.Background(), &ebv.CC{})
	if err != nil {
		t.Fatal(err)
	}
	if !after.BSP.Values.EqualValues(before.BSP.Values) {
		t.Fatal("rejected batch changed job results")
	}
}

// TestSessionApplyClosed: Apply on a closed session fails cleanly.
func TestSessionApplyClosed(t *testing.T) {
	s, err := sessionPipeline(t).Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(context.Background(), []ebv.Mutation{{Op: ebv.OpInsert, Src: 0, Dst: 1}}); !errors.Is(err, ebv.ErrSessionClosed) {
		t.Fatalf("Apply on closed session = %v, want ErrSessionClosed", err)
	}
}

// TestSessionJobStatsRetention bounds the per-job ring at its fixed
// capacity while the total-served counter keeps counting: capacity + 2
// jobs on a tiny graph keep exactly the newest capacity rows.
func TestSessionJobStatsRetention(t *testing.T) {
	const capacity = 1024
	g, err := ebv.NewGraph(3, []ebv.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ebv.NewPipeline(ebv.FromGraph(g), ebv.Subgraphs(2)).Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const jobs = capacity + 2
	for i := 0; i < jobs; i++ {
		if _, err := s.Run(context.Background(), &ebv.CC{}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.JobsServed != jobs || st.JobsRetained != capacity || st.JobsRetention != capacity {
		t.Fatalf("stats = served %d retained %d retention %d, want %d/%d/%d",
			st.JobsServed, st.JobsRetained, st.JobsRetention, jobs, capacity, capacity)
	}
	if len(st.Jobs) != capacity {
		t.Fatalf("len(Jobs) = %d, want %d", len(st.Jobs), capacity)
	}
	for i, j := range st.Jobs {
		if j.Job != 3+i {
			t.Fatalf("retained job %d has id %d, want %d (newest-%d window)", i, j.Job, 3+i, capacity)
		}
	}
}
