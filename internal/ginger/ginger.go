// Package ginger implements the Ginger partitioner of PowerLyra (Chen et
// al., TOPC 2019), the strongest self-based competitor in the paper.
//
// Ginger starts from the hybrid-cut: vertices are split by in-degree into
// low-degree and high-degree classes. The in-edges of a low-degree vertex v
// are co-located on a single subgraph chosen for v; the in-edges of a
// high-degree vertex are scattered by hashing their *source* (exactly like
// DBH does for hubs). Ginger's improvement over plain hybrid-cut is the
// Fennel-style greedy objective used to place each low-degree vertex:
//
//	argmax_i |N_in(v) ∩ V_i| − ½(|V_i| + (|V|/|E|)·|E_i|)
//
// balancing locality against both vertex and edge counts.
package ginger

import (
	"context"
	"fmt"

	"ebv/internal/graph"
	"ebv/internal/partition"
)

// Ginger is the hybrid-cut + Fennel-objective partitioner.
type Ginger struct {
	// Threshold is the in-degree above which a vertex is treated as
	// high-degree. Zero selects 2× the average degree, which scales with
	// the synthetic graphs (PowerLyra's default of 100 assumes full-size
	// inputs).
	Threshold int
	// Salt perturbs the hash used for high-degree scattering.
	Salt uint64
}

var _ partition.Partitioner = (*Ginger)(nil)

// Name implements partition.Partitioner.
func (gg *Ginger) Name() string { return "Ginger" }

// hashVertex is the shared SplitMix64 finalizer (same mixing as
// partition.hashVertex, duplicated to keep the packages decoupled).
func hashVertex(v graph.VertexID, salt uint64) uint64 {
	z := uint64(v) + salt + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Partition implements partition.Partitioner: the placement loop
// polls ctx every partition.CancelCheckInterval vertices.
func (gg *Ginger) Partition(ctx context.Context, g *graph.Graph, k int) (*partition.Assignment, error) {
	if k < 1 {
		return nil, partition.ErrBadPartCount
	}
	numV, numE := g.NumVertices(), g.NumEdges()
	a := partition.NewAssignment(k, numE)
	if numE == 0 {
		return a, nil
	}

	threshold := gg.threshold(g)

	in := graph.BuildCSR(graph.Reverse(g))

	// keep[i]: vertices already present on subgraph i (mirrors the EBV
	// bookkeeping; Ginger uses it for the |N_in(v) ∩ V_i| term).
	keep := make([]partition.Bitset, k)
	for i := range keep {
		keep[i] = partition.NewBitset(numV)
	}
	vcount := make([]int, k)
	ecount := make([]int, k)

	place := func(edgeIdx int32, part int, e graph.Edge) {
		a.Parts[edgeIdx] = int32(part)
		ecount[part]++
		if !keep[part].Get(int(e.Src)) {
			keep[part].Set(int(e.Src))
			vcount[part]++
		}
		if !keep[part].Get(int(e.Dst)) {
			keep[part].Set(int(e.Dst))
			vcount[part]++
		}
	}

	// γ = |V|/|E| scales the edge-count term to vertex units, per the
	// Ginger balance formula.
	gamma := float64(numV) / float64(numE)

	for v := 0; v < numV; v++ {
		if v%partition.CancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		vid := graph.VertexID(v)
		indeg := in.Degree(vid)
		if indeg == 0 {
			continue
		}
		neighbors := in.Neighbors(vid)
		edgeIndices := in.EdgeIndices(vid)
		if indeg > threshold {
			// High-degree: scatter in-edges by source hash.
			for j, edgeIdx := range edgeIndices {
				part := int(hashVertex(neighbors[j], gg.Salt) % uint64(k))
				place(edgeIdx, part, g.Edge(int(edgeIdx)))
			}
			continue
		}
		// Low-degree: co-locate all in-edges of v on the subgraph with the
		// best Fennel-style score.
		best, bestScore := 0, scoreNegInf
		for i := 0; i < k; i++ {
			locality := 0
			for _, u := range neighbors {
				if keep[i].Get(int(u)) {
					locality++
				}
			}
			score := float64(locality) - 0.5*(float64(vcount[i])+gamma*float64(ecount[i]))
			if score > bestScore {
				bestScore = score
				best = i
			}
		}
		for _, edgeIdx := range edgeIndices {
			place(edgeIdx, best, g.Edge(int(edgeIdx)))
		}
	}
	return a, nil
}

const scoreNegInf = -1e300

// threshold is the high-degree threshold Partition uses for g: Threshold
// when set, else twice the average degree, at least 4.
func (gg *Ginger) threshold(g *graph.Graph) int {
	if gg.Threshold > 0 {
		return gg.Threshold
	}
	return max(int(2*g.AverageDegree()), 4)
}

// String returns a debug description.
func (gg *Ginger) String() string {
	return fmt.Sprintf("Ginger{threshold=%d}", gg.Threshold)
}
