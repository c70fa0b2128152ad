package partition

import (
	"context"
	"fmt"

	"ebv/internal/graph"
)

// hashVertex mixes a vertex id into a well-distributed 64-bit value
// (SplitMix64 finalizer). All hash-based partitioners share it so that
// results are deterministic and platform-independent.
func hashVertex(v graph.VertexID, salt uint64) uint64 {
	z := uint64(v) + salt + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashStart is the shared preamble of the O(E) hash baselines: they are too
// cheap to poll ctx inside the loop, so it is consulted once up front.
func hashStart(ctx context.Context, k int) error {
	if k < 1 {
		return ErrBadPartCount
	}
	return ctx.Err()
}

// Random assigns each edge by hashing the (src,dst) pair — the 1-D random
// vertex-cut baseline of §VI ("hashing the edge with its end-vertices' ID
// into a 1-dimensional value").
type Random struct {
	// Salt perturbs the hash; distinct salts give independent partitions.
	Salt uint64
}

var _ Partitioner = (*Random)(nil)

// Name implements Partitioner.
func (r *Random) Name() string { return "Random" }

// Partition implements Partitioner.
func (r *Random) Partition(ctx context.Context, g *graph.Graph, k int) (*Assignment, error) {
	if err := hashStart(ctx, k); err != nil {
		return nil, err
	}
	a := NewAssignment(k, g.NumEdges())
	for i, e := range g.Edges() {
		h := hashVertex(e.Src, r.Salt) ^ hashVertex(e.Dst, r.Salt+1)
		a.Parts[i] = int32(h % uint64(k))
	}
	return a, nil
}

// DBH is Degree-Based Hashing (Xie et al., NeurIPS 2014): each edge is
// assigned by hashing the id of its *lower-degree* endpoint, so high-degree
// vertices get cut and low-degree vertices stay whole — a good fit for
// power-law degree distributions.
type DBH struct {
	Salt uint64
}

var _ Partitioner = (*DBH)(nil)

// Name implements Partitioner.
func (d *DBH) Name() string { return "DBH" }

// Partition implements Partitioner.
func (d *DBH) Partition(ctx context.Context, g *graph.Graph, k int) (*Assignment, error) {
	if err := hashStart(ctx, k); err != nil {
		return nil, err
	}
	a := NewAssignment(k, g.NumEdges())
	for i, e := range g.Edges() {
		pick := e.Src
		// Tie-break on id so the choice is deterministic.
		ds, dd := g.Degree(e.Src), g.Degree(e.Dst)
		if dd < ds || (dd == ds && e.Dst < e.Src) {
			pick = e.Dst
		}
		a.Parts[i] = int32(hashVertex(pick, d.Salt) % uint64(k))
	}
	return a, nil
}

// CVC is the Cartesian (2-D) Vertex-Cut of Boman et al. (SC 2013): workers
// form an r×c grid; edge (u,v) goes to the worker at (row of u, column of
// v), bounding each vertex's replicas by r+c-1.
type CVC struct {
	Salt uint64
}

var _ Partitioner = (*CVC)(nil)

// Name implements Partitioner.
func (c *CVC) Name() string { return "CVC" }

// Partition implements Partitioner.
func (c *CVC) Partition(ctx context.Context, g *graph.Graph, k int) (*Assignment, error) {
	if err := hashStart(ctx, k); err != nil {
		return nil, err
	}
	rows, cols := gridShape(k)
	a := NewAssignment(k, g.NumEdges())
	for i, e := range g.Edges() {
		row := hashVertex(e.Src, c.Salt) % uint64(rows)
		col := hashVertex(e.Dst, c.Salt+1) % uint64(cols)
		a.Parts[i] = int32(row*uint64(cols) + col)
	}
	return a, nil
}

// gridShape factors k into the most-square rows×cols grid.
func gridShape(k int) (rows, cols int) {
	rows = 1
	for f := 2; f*f <= k; f++ {
		if k%f == 0 {
			rows = f
		}
	}
	// rows is now the largest divisor of k that is <= sqrt(k).
	return rows, k / rows
}

// Grid is a variant of CVC that constrains edges to the row/column blocks
// of both endpoints (used as an extra self-based baseline in ablations).
type Grid struct {
	Salt uint64
}

var _ Partitioner = (*Grid)(nil)

// Name implements Partitioner.
func (gr *Grid) Name() string { return "Grid" }

// Partition implements Partitioner.
func (gr *Grid) Partition(ctx context.Context, g *graph.Graph, k int) (*Assignment, error) {
	if err := hashStart(ctx, k); err != nil {
		return nil, err
	}
	rows, cols := gridShape(k)
	if rows != cols {
		// Fall back to CVC semantics for non-square grids.
		return (&CVC{Salt: gr.Salt}).Partition(ctx, g, k)
	}
	a := NewAssignment(k, g.NumEdges())
	for i, e := range g.Edges() {
		// Constrained intersection: choose the lighter of the two grid
		// cells (u-row ∩ v-col) and (v-row ∩ u-col) by hash.
		ru := hashVertex(e.Src, gr.Salt) % uint64(rows)
		cv := hashVertex(e.Dst, gr.Salt+1) % uint64(cols)
		rv := hashVertex(e.Dst, gr.Salt) % uint64(rows)
		cu := hashVertex(e.Src, gr.Salt+1) % uint64(cols)
		p1 := ru*uint64(cols) + cv
		p2 := rv*uint64(cols) + cu
		if hashVertex(graph.VertexID(i), gr.Salt+2)&1 == 0 {
			a.Parts[i] = int32(p1)
		} else {
			a.Parts[i] = int32(p2)
		}
	}
	return a, nil
}

// ByName returns the named baseline partitioner from this package, or an
// error listing what is available. The full registry including EBV, NE,
// METIS and Ginger lives in the root ebv package.
func ByName(name string) (Partitioner, error) {
	switch name {
	case "Random":
		return &Random{}, nil
	case "DBH":
		return &DBH{}, nil
	case "CVC":
		return &CVC{}, nil
	case "Grid":
		return &Grid{}, nil
	case "HDRF":
		return &HDRF{}, nil
	case "Hybrid":
		return &Hybrid{}, nil
	case "Fennel":
		return &Fennel{}, nil
	default:
		return nil, fmt.Errorf(
			"partition: unknown baseline %q (have Random, DBH, CVC, Grid, HDRF, Hybrid, Fennel)", name)
	}
}
