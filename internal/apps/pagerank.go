package apps

import (
	"math"

	"ebv/internal/bsp"
	"ebv/internal/graph"
)

// PageRank runs synchronous PageRank iterations:
//
//	rank_{t+1}(v) = (1−d)/N + d · Σ_{(u,v)∈E} rank_t(u) / outdeg(u)
//
// (dangling mass is dropped, matching the sequential oracle exactly).
//
// Each iteration is one gather/apply round of gatherApply, the master/mirror
// protocol PageRank shares with Aggregate; its rule is prRule.
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
	g := newGatherApply(p.Name(), sub, env)
	g.rule = &prRule{g: g, iters: iters, damping: damping, tol: p.Tol,
		contrib: make([]float64, sub.NumLocalVertices())}
	init := 1 / float64(sub.NumGlobalVertices)
	for l, gid := range sub.GlobalIDs {
		g.h.SetScalar(l, init)
		if v, ok := warmValue(p.Warm, p.WarmCovered, gid); ok {
			g.h.SetScalar(l, v)
		}
	}
	return g
}

// warmValue returns vertex gid's row of a warm-start matrix, unless there
// is no matrix, it is too short, or the producing run did not cover gid.
func warmValue(warm *graph.ValueMatrix, covered []bool, gid graph.VertexID) (float64, bool) {
	v := int(gid)
	if warm == nil || v >= warm.Rows() || covered != nil && (v >= len(covered) || !covered[v]) {
		return 0, false
	}
	return warm.Scalar(v), true
}

// prRule is PageRank's gatherRule. The rank is column 0 of the run-width
// rows; the other columns stay zero.
type prRule struct {
	g       *gatherApply
	iters   int
	damping float64
	tol     float64
	// contrib[l] = rank[l] / outdeg(l), refreshed by every gather step.
	contrib []float64
}

func (r *prRule) gather(iter int) bool {
	// A Tol run's apply step voted; no rank moved by Tol if none flagged.
	if _, moved, voted := r.g.env.Reduced(); iter >= r.iters || voted && !moved {
		return false
	}
	// The division happens once per source vertex; every edge source has a
	// global out-degree of at least 1, so no edge reads a contrib the loop
	// left unset.
	w, rank, partial, contrib := r.g.h.Width, r.g.h.Data, r.g.partial.Data, r.contrib
	for l, d := range r.g.sub.GlobalOutDegree {
		if d > 0 {
			contrib[l] = rank[l*w] / float64(d)
		}
	}
	clear(partial)
	for _, e := range r.g.sub.Edges {
		partial[int(e.Dst)*w] += contrib[e.Src]
	}
	return true
}

func (r *prRule) apply() {
	w, rank, partial, acc := r.g.h.Width, r.g.h.Data, r.g.partial.Data, r.g.acc.Data
	base := (1 - r.damping) / float64(r.g.sub.NumGlobalVertices)
	moved := false
	for _, l := range r.g.sub.Routing().Owned {
		i := int(l) * w
		next := base + r.damping*(partial[i]+acc[i])
		if r.tol > 0 && !moved {
			moved = math.Abs(next-rank[i]) >= r.tol
		}
		rank[i] = next
	}
	if r.tol > 0 {
		r.g.env.Reduce(0, moved)
	}
}
