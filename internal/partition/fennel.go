package partition

import (
	"context"
	"math"

	"ebv/internal/graph"
)

// Fennel is the streaming *edge-cut* (vertex partitioning) heuristic of
// Tsourakakis et al. (WSDM 2014), cited by the paper as the inspiration
// behind Ginger. Vertices arrive in id order; each is placed on the
// partition maximizing
//
//	|N(v) ∩ Vp| − α·γ·|Vp|^(γ−1)
//
// subject to a capacity cap ν·|V|/k, with the authors' defaults γ = 3/2,
// α = √k·|E|/|V|^{3/2}, ν = 1.1.
//
// Like METIS, the vertex partition is converted to the shared vertex-cut
// Assignment by placing each edge with its source's owner.
type Fennel struct {
	// Gamma is the balance exponent γ (default 1.5).
	Gamma float64
	// Nu is the capacity slack ν (default 1.1).
	Nu float64
}

var _ Partitioner = (*Fennel)(nil)

// Name implements Partitioner.
func (f *Fennel) Name() string { return "Fennel" }

// Partition implements Partitioner: the vertex stream polls ctx
// every CancelCheckInterval placements.
func (f *Fennel) Partition(ctx context.Context, g *graph.Graph, k int) (*Assignment, error) {
	owners, err := f.VertexPartition(ctx, g, k)
	if err != nil {
		return nil, err
	}
	a := NewAssignment(k, g.NumEdges())
	for i, e := range g.Edges() {
		a.Parts[i] = owners[e.Src]
	}
	return a, nil
}

// VertexPartition runs the streaming vertex placement and returns the
// owner of every vertex.
func (f *Fennel) VertexPartition(ctx context.Context, g *graph.Graph, k int) ([]int32, error) {
	if k < 1 {
		return nil, ErrBadPartCount
	}
	gamma := f.Gamma
	if gamma == 0 {
		gamma = 1.5
	}
	nu := f.Nu
	if nu == 0 {
		nu = 1.1
	}
	n := g.NumVertices()
	owners := make([]int32, n)
	if n == 0 {
		return owners, nil
	}
	alpha := math.Sqrt(float64(k)) * float64(g.NumEdges()) / math.Pow(float64(n), 1.5)
	capacity := int(nu*float64(n)/float64(k)) + 1

	out := graph.BuildCSR(g)
	in := graph.BuildCSR(graph.Reverse(g))

	assigned := NewBitset(n)
	sizes := make([]int, k)
	neighborCount := make([]int, k)
	for v := 0; v < n; v++ {
		if v%CancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for p := range neighborCount {
			neighborCount[p] = 0
		}
		countNeighbors := func(nbrs []graph.VertexID) {
			for _, u := range nbrs {
				if assigned.Get(int(u)) {
					neighborCount[owners[u]]++
				}
			}
		}
		countNeighbors(out.Neighbors(graph.VertexID(v)))
		countNeighbors(in.Neighbors(graph.VertexID(v)))

		best, bestScore := -1, math.Inf(-1)
		for p := 0; p < k; p++ {
			if sizes[p] >= capacity {
				continue
			}
			score := float64(neighborCount[p]) -
				alpha*gamma*math.Pow(float64(sizes[p]), gamma-1)
			if score > bestScore {
				bestScore = score
				best = p
			}
		}
		if best < 0 {
			// All partitions at capacity (possible only through rounding):
			// fall back to the smallest.
			best = 0
			for p := 1; p < k; p++ {
				if sizes[p] < sizes[best] {
					best = p
				}
			}
		}
		owners[v] = int32(best)
		sizes[best]++
		assigned.Set(v)
	}
	return owners, nil
}
