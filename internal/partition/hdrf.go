package partition

import (
	"context"
	"math"

	"ebv/internal/graph"
)

// HDRF is High-Degree Replicated First (Petroni et al., CIKM 2015), the
// streaming vertex-cut the paper's related work (§VI) cites as the
// canonical stream-based power-law partitioner. It processes edges in one
// pass using only *observed* partial degrees — no preprocessing — and
// greedily assigns each edge to the partition maximizing
//
//	C_HDRF(u,v,p) = g(u,p) + g(v,p) + λ·(maxSize − |Ep|)/(ε + maxSize − minSize)
//
// where g(x,p) = 1 + (1 − θ(x)) if a replica of x already lives on p and 0
// otherwise, with θ(x) the share of the edge's degree mass owned by x.
// Replicating the higher-degree endpoint first is what keeps low-degree
// vertices whole on power-law graphs.
type HDRF struct {
	// Lambda is the balance weight λ (default 1, the authors' setting).
	Lambda float64
}

var _ Partitioner = (*HDRF)(nil)

// Name implements Partitioner.
func (h *HDRF) Name() string { return "HDRF" }

// Partition implements Partitioner: the edge stream polls ctx
// every CancelCheckInterval edges.
func (h *HDRF) Partition(ctx context.Context, g *graph.Graph, k int) (*Assignment, error) {
	if k < 1 {
		return nil, ErrBadPartCount
	}
	lambda := h.Lambda
	if lambda == 0 {
		lambda = 1
	}
	a := NewAssignment(k, g.NumEdges())
	st := NewState(g.NumVertices(), k)
	// Partial (observed) degrees — HDRF is degree-oblivious upfront.
	partialDeg := make([]int32, g.NumVertices())

	for i, e := range g.Edges() {
		if i%CancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		partialDeg[e.Src]++
		partialDeg[e.Dst]++
		best := ArgmaxHDRF(st, lambda, float64(partialDeg[e.Src]), float64(partialDeg[e.Dst]), e)
		a.Parts[i] = int32(best)
		st.Place(e, best)
	}
	return a, nil
}

// ArgmaxHDRF returns the lowest-numbered part maximizing C_HDRF(u,v,p) for
// edge e = (u,v) over st, given the endpoints' degrees du and dv — the
// observed partial degrees offline, the current graph's degrees + 1 for a
// live insert.
func ArgmaxHDRF(st *State, lambda, du, dv float64, e graph.Edge) int {
	const epsilon = 1e-3
	thetaU := du / (du + dv)
	thetaV := 1 - thetaU

	minE, maxE := st.Ecount[0], st.Ecount[0]
	for _, c := range st.Ecount[1:] {
		minE, maxE = min(minE, c), max(maxE, c)
	}

	best, bestScore := 0, math.Inf(-1)
	for p, c := range st.Ecount {
		var score float64
		if st.Covers(p, e.Src) {
			score += 1 + (1 - thetaU)
		}
		if st.Covers(p, e.Dst) {
			score += 1 + (1 - thetaV)
		}
		score += lambda * float64(maxE-c) / (epsilon + float64(maxE-minE))
		if score > bestScore {
			bestScore = score
			best = p
		}
	}
	return best
}
