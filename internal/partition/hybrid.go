package partition

import (
	"context"

	"ebv/internal/graph"
)

// Hybrid is PowerLyra's plain hybrid-cut (Chen et al., TOPC 2019) without
// Ginger's greedy refinement: the in-edges of a low-in-degree vertex are
// co-located by hashing the *target*; the in-edges of a high-in-degree
// vertex are scattered by hashing the *source*. It differentiates hub
// handling the way DBH does while keeping low-degree vertices whole, and
// serves as the stepping stone between DBH and Ginger in ablations.
type Hybrid struct {
	// Threshold is the in-degree above which a vertex counts as
	// high-degree; 0 selects 2× the average degree (min 4), matching the
	// Ginger default in this repository.
	Threshold int
	// Salt perturbs the hashes.
	Salt uint64
}

var _ Partitioner = (*Hybrid)(nil)

// Name implements Partitioner.
func (h *Hybrid) Name() string { return "Hybrid" }

// Partition implements Partitioner: the edge stream polls ctx
// every CancelCheckInterval edges.
func (h *Hybrid) Partition(ctx context.Context, g *graph.Graph, k int) (*Assignment, error) {
	if k < 1 {
		return nil, ErrBadPartCount
	}
	threshold := h.Threshold
	if threshold <= 0 {
		threshold = int(2 * g.AverageDegree())
		if threshold < 4 {
			threshold = 4
		}
	}
	a := NewAssignment(k, g.NumEdges())
	for i, e := range g.Edges() {
		if i%CancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if g.InDegree(e.Dst) > threshold {
			a.Parts[i] = int32(hashVertex(e.Src, h.Salt) % uint64(k))
		} else {
			a.Parts[i] = int32(hashVertex(e.Dst, h.Salt) % uint64(k))
		}
	}
	return a, nil
}
