// Ledger honesty: the three §IV-B stage timers must account for a worker's
// wall time, or a layer ledger built on them has a hole nobody can attribute.
package bsp_test

import (
	"sync"
	"testing"

	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/graph"
	"ebv/internal/transport"
)

// boundaryFlood re-broadcasts every replicated vertex's minimum to all its
// peers for a fixed number of rounds: delivery-heavy (each boundary vertex's
// rows arrive from every peer, every step), compute-light, and with nothing
// to do in NewWorker or Values, so whatever a worker's wall time holds beyond
// its supersteps is the engine's.
type boundaryFlood struct{ rounds int }

func (*boundaryFlood) Name() string { return "boundary-flood" }

func (p *boundaryFlood) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	return &boundaryFloodWorker{sub: sub, env: env, rounds: p.rounds}
}

type boundaryFloodWorker struct {
	sub    *bsp.Subgraph
	env    bsp.Env
	rounds int
	min    []float64
}

func (w *boundaryFloodWorker) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	if step == 0 {
		w.min = make([]float64, w.sub.NumLocalVertices())
		for l, gid := range w.sub.GlobalIDs {
			w.min[l] = float64(gid)
		}
	}
	for i, gid := range in.IDs {
		if local, ok := w.sub.LocalOf(gid); ok && in.Scalar(i) < w.min[local] {
			w.min[local] = in.Scalar(i)
		}
	}
	if step >= w.rounds {
		return nil, false
	}
	out := make([]*transport.MessageBatch, w.sub.NumWorkers)
	for l := range w.sub.GlobalIDs {
		for _, peer := range w.sub.PeersOf(int32(l)) {
			if out[peer] == nil {
				out[peer] = w.env.NewBatch()
			}
			out[peer].AppendScalar(w.sub.GlobalIDs[l], w.min[l])
		}
	}
	return out, true
}

func (w *boundaryFloodWorker) Values() *graph.ValueMatrix {
	return w.env.NewValues(w.sub.NumLocalVertices())
}

// TestStageTimersCoverWallTime: per worker, ΣComp + ΣComm + ΣSync must be
// within 20 % of WorkerResult.WallTime on the pinned power-law graph —
// Comm runs until the next inbox is ready, so delivery is inside it. The stages are disjoint slices of the wall time, so the sum can
// only fall short. Best of 3 attempts: a scheduler hiccup between two stages
// must not flake the test.
//
// k = 3 is the smallest mesh on which a vertex's rows arrive from two peers,
// and few workers keep each near a core of its own: with many workers per
// core a worker's wall time is mostly its peers' work, booked as its Sync,
// and a hole in its own ledger shrinks below any threshold. (At the parent
// of PR 15, where a combining receiver merged the inbox outside every stage,
// this covered 56–71 %.)
func TestStageTimersCoverWallTime(t *testing.T) {
	pl, _ := pinnedGraphs(t)
	const k = 3
	subs := buildSubs(t, pl, core.New(), k)
	mesh, err := transport.NewMemDeployment(k)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	// coverage runs one job and returns the worst worker's staged share.
	coverage := func(job uint32) float64 {
		trs, err := mesh.OpenJob(job, 1)
		if err != nil {
			t.Fatal(err)
		}
		results := make([]*bsp.WorkerResult, k)
		errs := make([]error, k)
		var wg sync.WaitGroup
		for w := range subs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[w], errs[w] = bsp.RunWorker(t.Context(), subs[w], nil, &boundaryFlood{rounds: 60}, trs[w],
					bsp.Config{})
			}()
		}
		wg.Wait()
		covered := 1.0
		for w, res := range results {
			if errs[w] != nil {
				t.Fatalf("worker %d: %v", w, errs[w])
			}
			staged := res.Stats.TotalComp() + res.Stats.TotalComm() + res.Stats.TotalSync()
			if staged > res.WallTime {
				t.Fatalf("worker %d: stages sum to %v, more than its wall time %v", w, staged, res.WallTime)
			}
			covered = min(covered, float64(staged)/float64(res.WallTime))
		}
		return covered
	}
	best := 0.0
	for attempt := uint32(1); attempt <= 3 && best < 0.8; attempt++ {
		covered := coverage(attempt)
		t.Logf("attempt %d: stage timers cover %.0f%% of the worst worker's wall time", attempt, 100*covered)
		best = max(best, covered)
	}
	if best < 0.8 {
		t.Fatalf("stage timers cover %.0f%% of the worst worker's wall time, want >= 80%%", 100*best)
	}
}
