package apps

import (
	"fmt"
	"math"

	"ebv/internal/bsp"
	"ebv/internal/graph"
	"ebv/internal/transport"
)

// PageRank runs synchronous PageRank iterations:
//
//	rank_{t+1}(v) = (1−d)/N + d · Σ_{(u,v)∈E} rank_t(u) / outdeg(u)
//
// (dangling mass is dropped, matching the sequential oracle exactly).
//
// Subgraph-centric formulation with master/mirror replicas: each PageRank
// iteration takes two supersteps.
//
//	gather (even step): every worker accumulates partial sums over its
//	  LOCAL in-edges — edge partitioning guarantees each global in-edge is
//	  counted exactly once — and mirrors send their partials to the
//	  vertex's master worker.
//	apply (odd step): masters add received partials, apply the PageRank
//	  update, and scatter the new rank back to the mirrors, which install
//	  it at the start of the next gather step.
//
// Message cost per iteration is 2·Σ_v(replicas(v)−1), directly
// proportional to the replication factor — the §V-C claim this repository
// reproduces in Table IV.
//
// With Tol > 0 the run iterates to a fixed point instead, and halting is
// collective: at every apply step each worker votes (bsp.Env.Reduce)
// whether one of its master vertices' ranks moved by Tol or more, and at
// the next gather every worker reads the same OR and all halt together
// once no rank did.
type PageRank struct {
	// Iterations is the number of full PageRank iterations (default 10);
	// with Tol > 0 it caps them.
	Iterations int
	// Damping is d (default 0.85).
	Damping float64
	// Tol, when > 0, halts the run once an iteration moves no rank by Tol
	// or more.
	Tol float64

	// Warm, when non-nil, starts each covered vertex at its row of this
	// width-1 matrix (dense over the global id space) instead of 1/N — a
	// previous run's ranks, which after a small mutation batch are already
	// near the new fixed point, so a Tol run converges in fewer iterations.
	Warm *graph.ValueMatrix
	// WarmCovered restricts warm seeding to rows the producing run
	// covered (uncovered rows are zero, not ranks). nil applies every row.
	WarmCovered []bool
}

var _ bsp.Program = (*PageRank)(nil)

// Name implements bsp.Program.
func (p *PageRank) Name() string { return "PR" }

// NewWorker implements bsp.Program.
func (p *PageRank) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	iters := p.Iterations
	if iters <= 0 {
		iters = 10
	}
	damping := p.Damping
	if damping == 0 {
		damping = 0.85
	}
	n := sub.NumLocalVertices()
	w := &prWorker{
		sub:     sub,
		env:     env,
		iters:   iters,
		damping: damping,
		tol:     p.Tol,
		rank:    make([]float64, n),
		contrib: make([]float64, n),
		partial: make([]float64, n),
		inSum:   make([]float64, n),
	}
	init := 1 / float64(sub.NumGlobalVertices)
	for l, gid := range sub.GlobalIDs {
		w.rank[l] = init
		if v, ok := warmValue(p.Warm, p.WarmCovered, gid); ok {
			w.rank[l] = v
		}
	}
	return w
}

type prWorker struct {
	sub     *bsp.Subgraph
	env     bsp.Env
	iters   int
	damping float64
	tol     float64
	rank    []float64
	// contrib[l] = rank[l] / outdeg(l), refreshed by every gather step.
	contrib []float64
	partial []float64
	// inSum accumulates the apply step's incoming mirror partials. Folding
	// them into a zeroed accumulator (instead of straight into partial)
	// fixes the per-vertex sum grouping the recorded values and emission
	// digests were pinned with.
	inSum []float64
}

// Superstep implements bsp.WorkerProgram.
func (w *prWorker) Superstep(step int, in *transport.MessageBatch) (out []*transport.MessageBatch, active bool) {
	iter := step / 2
	if step%2 == 0 {
		// Gather: first install ranks scattered by masters last step.
		for i, gid := range in.IDs {
			if local, ok := w.sub.LocalOf(gid); ok {
				w.rank[local] = in.Scalar(i)
			}
		}
		// A Tol run's apply step voted; no rank moved by Tol if none flagged.
		if _, moved, voted := w.env.Reduced(); iter >= w.iters || voted && !moved {
			return nil, false // final install; run complete
		}
		// Accumulate partial sums over local edges. The division happens
		// once per source vertex; every edge source has a global out-degree
		// of at least 1, so no edge reads a contrib the loop left unset.
		for l, d := range w.sub.GlobalOutDegree {
			if d > 0 {
				w.contrib[l] = w.rank[l] / float64(d)
			}
		}
		clear(w.partial)
		for _, e := range w.sub.Edges {
			w.partial[e.Dst] += w.contrib[e.Src]
		}
		// Mirrors ship partials to masters.
		out = make([]*transport.MessageBatch, w.sub.NumWorkers)
		w.env.SendScalars(out, w.sub.Routing().ToMaster, w.partial)
		return out, true
	}

	// Apply: masters fold in mirror partials, update, scatter.
	clear(w.inSum)
	for i, gid := range in.IDs {
		if local, ok := w.sub.LocalOf(gid); ok {
			w.inSum[local] += in.Scalar(i)
		}
	}
	base := (1 - w.damping) / float64(w.sub.NumGlobalVertices)
	out = make([]*transport.MessageBatch, w.sub.NumWorkers)
	plan := w.sub.Routing()
	moved := false
	for _, l := range plan.Owned { // mirrors receive their rank next step
		next := base + w.damping*(w.partial[l]+w.inSum[l])
		if w.tol > 0 && !moved {
			moved = math.Abs(next-w.rank[l]) >= w.tol
		}
		w.rank[l] = next
	}
	w.env.SendScalars(out, plan.ToMirrors, w.rank)
	if w.tol > 0 {
		w.env.Reduce(0, moved)
	}
	// Stay active through the final scatter so mirrors install it.
	return out, true
}

// Values implements bsp.WorkerProgram.
func (w *prWorker) Values() *graph.ValueMatrix {
	return scalarValues(w.env, w.rank)
}

var _ bsp.Resumable = (*prWorker)(nil)

// SnapshotState implements bsp.Resumable: rank and partial per local
// vertex (width 2). partial matters when the boundary falls between a
// gather and its apply step; inSum is recomputed from the inbox at every
// apply step and needs no snapshot.
func (w *prWorker) SnapshotState() *graph.ValueMatrix {
	m := graph.NewValueMatrix(len(w.rank), 2)
	for l := range w.rank {
		row := m.Row(l)
		row[0] = w.rank[l]
		row[1] = w.partial[l]
	}
	return m
}

// RestoreState implements bsp.Resumable.
func (w *prWorker) RestoreState(step int, state *graph.ValueMatrix) error {
	if state.Width != 2 {
		return fmt.Errorf("apps: PR snapshot width %d, want 2", state.Width)
	}
	if err := state.CheckShape(len(w.rank)); err != nil {
		return err
	}
	for l := range w.rank {
		row := state.Row(l)
		w.rank[l] = row[0]
		w.partial[l] = row[1]
	}
	return nil
}
