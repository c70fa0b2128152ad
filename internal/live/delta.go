package live

import (
	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/graph"
	"ebv/internal/transport"
)

// NewDeltaCC builds the incremental connected-components program: the
// previous run's labels seed the new run, so only components merged by
// edges inserted since converge further — typically one round instead of
// a full label-propagation diameter. Valid when the graph only GAINED
// edges since prev was computed (components only merge and labels are
// component minima, so old labels remain correct lower seeds; deletes can
// split components and invalidate them — check Stats.Deletes). The result
// is byte-identical to a cold CC run on the same snapshot: labels are
// exact small integers and both runs reach the same fixed point.
func NewDeltaCC(prev *bsp.Result) *apps.CC {
	if prev == nil {
		return &apps.CC{}
	}
	return &apps.CC{Warm: prev.Values, WarmCovered: prev.Covered}
}

// DeltaPageRank is PageRank iterated to a fixed point instead of a fixed
// round count, with an optional warm start from a previous job's
// ValueMatrix: after a small mutation batch the old ranks are already
// near the new fixed point, so the warm run converges in a fraction of
// the cold run's iterations.
//
// Each iteration is the same two-superstep gather/apply as apps.PageRank.
// Convergence is decided collectively: at every apply step each worker
// broadcasts a control row — carrying the max |Δrank| over its master
// vertices under the sentinel id NumGlobalVertices, which no subgraph
// covers — to every other worker; at the next gather every worker folds
// its own delta with the received ones into the identical global maximum
// and halts when it drops below Tol. Do NOT attach a message combiner to
// this program (and it deliberately declares none): summing would corrupt
// both the control rows and the scatter/partial streams.
type DeltaPageRank struct {
	// Damping is d (default 0.85).
	Damping float64
	// Tol is the convergence threshold on max |Δrank| (default 1e-9).
	Tol float64
	// MaxIters caps the iteration count (default 500).
	MaxIters int
	// Prev warm-starts ranks from a previous run's width-1 values
	// (dense over the global id space); nil starts uniform at 1/N.
	Prev *graph.ValueMatrix
	// PrevCovered restricts warm rows to vertices the previous run
	// covered (uncovered rows are zero, not ranks). nil trusts all rows.
	PrevCovered []bool
}

var _ bsp.Program = (*DeltaPageRank)(nil)

// Name implements bsp.Program.
func (p *DeltaPageRank) Name() string {
	if p.Prev != nil {
		return "PR-delta-warm"
	}
	return "PR-delta"
}

// NewWorker implements bsp.Program.
func (p *DeltaPageRank) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	damping := p.Damping
	if damping == 0 {
		damping = 0.85
	}
	tol := p.Tol
	if tol == 0 {
		tol = 1e-9
	}
	maxIters := p.MaxIters
	if maxIters <= 0 {
		maxIters = 500
	}
	n := sub.NumLocalVertices()
	w := &deltaPRWorker{
		sub:      sub,
		env:      env,
		damping:  damping,
		tol:      tol,
		maxIters: maxIters,
		rank:     make([]float64, n),
		partial:  make([]float64, n),
		inSum:    make([]float64, n),
	}
	uniform := 1 / float64(sub.NumGlobalVertices)
	for l := range w.rank {
		w.rank[l] = uniform
		if p.Prev == nil {
			continue
		}
		gid := int(sub.GlobalIDs[l])
		if gid >= p.Prev.Rows() {
			continue
		}
		if p.PrevCovered != nil && (gid >= len(p.PrevCovered) || !p.PrevCovered[gid]) {
			continue
		}
		w.rank[l] = p.Prev.Scalar(gid)
	}
	return w
}

type deltaPRWorker struct {
	sub      *bsp.Subgraph
	env      bsp.Env
	damping  float64
	tol      float64
	maxIters int
	rank     []float64
	partial  []float64
	inSum    []float64 // zeroed accumulator, same grouping rationale as apps.PageRank
	// lastDelta is the max |Δrank| over this worker's master vertices in
	// the latest apply step; broadcast as the control row.
	lastDelta float64
}

// sentinel returns the control-row vertex id: NumGlobalVertices, one past
// the densely numbered id space, so LocalOf never resolves it and message
// delivery (which validates shape, not id range) passes it through.
func (w *deltaPRWorker) sentinel() graph.VertexID {
	return graph.VertexID(w.sub.NumGlobalVertices)
}

// Superstep implements bsp.WorkerProgram.
func (w *deltaPRWorker) Superstep(step int, in *transport.MessageBatch) (out []*transport.MessageBatch, active bool) {
	iter := step / 2
	sentinel := w.sentinel()
	if step%2 == 0 {
		// Gather: install scattered ranks and fold control rows into the
		// global max delta — every worker sees its own lastDelta plus
		// all k−1 others, so the halting decision is collective and
		// identical everywhere.
		globalDelta := w.lastDelta
		for i, gid := range in.IDs {
			if gid == sentinel {
				if d := in.Scalar(i); d > globalDelta {
					globalDelta = d
				}
				continue
			}
			if local, ok := w.sub.LocalOf(gid); ok {
				w.rank[local] = in.Scalar(i)
			}
		}
		if step > 0 && (globalDelta < w.tol || iter >= w.maxIters) {
			return nil, false // converged (or capped); final ranks installed
		}
		for i := range w.partial {
			w.partial[i] = 0
		}
		for _, e := range w.sub.Edges {
			if d := w.sub.GlobalOutDegree[e.Src]; d > 0 {
				w.partial[e.Dst] += w.rank[e.Src] / float64(d)
			}
		}
		out = make([]*transport.MessageBatch, w.sub.NumWorkers)
		w.env.SendScalars(out, w.sub.Routing().ToMaster, w.partial)
		return out, true
	}

	// Apply: masters fold mirror partials, update, measure their delta,
	// scatter new ranks and broadcast the control row.
	for i := range w.inSum {
		w.inSum[i] = 0
	}
	for i, gid := range in.IDs {
		if gid == sentinel {
			continue // stale control rows carry no rank mass
		}
		if local, ok := w.sub.LocalOf(gid); ok {
			w.inSum[local] += in.Scalar(i)
		}
	}
	base := (1 - w.damping) / float64(w.sub.NumGlobalVertices)
	out = make([]*transport.MessageBatch, w.sub.NumWorkers)
	w.lastDelta = 0
	plan := w.sub.Routing()
	for _, l := range plan.Owned {
		next := base + w.damping*(w.partial[l]+w.inSum[l])
		if d := abs(next - w.rank[l]); d > w.lastDelta {
			w.lastDelta = d
		}
		w.rank[l] = next
	}
	w.env.SendScalars(out, plan.ToMirrors, w.rank)
	for dst := 0; dst < w.sub.NumWorkers; dst++ {
		if dst != w.sub.Part {
			w.env.SendScalar(out, int32(dst), sentinel, w.lastDelta)
		}
	}
	return out, true
}

// Values implements bsp.WorkerProgram.
func (w *deltaPRWorker) Values() *graph.ValueMatrix {
	vals := w.env.NewValues(len(w.rank))
	for l, v := range w.rank {
		vals.SetScalar(l, v)
	}
	return vals
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
