package partition

import (
	"context"

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
	const epsilon = 1e-3

	numV := g.NumVertices()
	a := NewAssignment(k, g.NumEdges())
	keep := make([]Bitset, k)
	for i := range keep {
		keep[i] = NewBitset(numV)
	}
	ecount := make([]int, k)
	// Partial (observed) degrees — HDRF is degree-oblivious upfront.
	partialDeg := make([]int32, numV)

	for i, e := range g.Edges() {
		if i%CancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		u, v := int(e.Src), int(e.Dst)
		partialDeg[u]++
		partialDeg[v]++
		du, dv := float64(partialDeg[u]), float64(partialDeg[v])
		thetaU := du / (du + dv)
		thetaV := 1 - thetaU

		minE, maxE := ecount[0], ecount[0]
		for p := 1; p < k; p++ {
			if ecount[p] < minE {
				minE = ecount[p]
			}
			if ecount[p] > maxE {
				maxE = ecount[p]
			}
		}

		best, bestScore := 0, -1.0
		for p := 0; p < k; p++ {
			var score float64
			if keep[p].Get(u) {
				score += 1 + (1 - thetaU)
			}
			if keep[p].Get(v) {
				score += 1 + (1 - thetaV)
			}
			score += lambda * float64(maxE-ecount[p]) / (epsilon + float64(maxE-minE))
			if score > bestScore {
				bestScore = score
				best = p
			}
		}
		a.Parts[i] = int32(best)
		ecount[best]++
		keep[best].Set(u)
		keep[best].Set(v)
	}
	return a, nil
}
