package partition

import (
	"context"

	"ebv/internal/graph"
)

// CancelCheckInterval is how many loop iterations (edges, vertices, epochs)
// a cooperative partitioner processes between context polls. Polling
// ctx.Err() is an atomic load, so the interval trades promptness against
// hot-loop overhead; at 4096 the overhead is unmeasurable while
// cancellation latency stays in the microsecond range on every algorithm
// in this repository.
const CancelCheckInterval = 4096

// ContextPartitioner is implemented by partitioners with native cooperative
// cancellation: PartitionCtx polls ctx inside the assignment loop and
// returns ctx.Err() promptly when the context is canceled, discarding the
// partial assignment. All heavy algorithms in this repository (EBV and its
// streaming/parallel variants, NE, METIS, Ginger, HDRF, Fennel, Hybrid)
// implement it; the O(E) hash baselines do not need to.
type ContextPartitioner interface {
	Partitioner
	// PartitionCtx is Partition with cooperative cancellation.
	PartitionCtx(ctx context.Context, g *graph.Graph, k int) (*Assignment, error)
}

// PartitionWithContext runs p under ctx; an already-canceled ctx is
// rejected before p is called at all. If p implements
// ContextPartitioner the native PartitionCtx is used; otherwise the legacy
// Partition runs to completion and the context is only consulted before the
// call and after it returns (the result is discarded if ctx was canceled
// meanwhile). This adapter is what lets every ctx-aware call site accept
// third-party Partitioner implementations unchanged.
func PartitionWithContext(ctx context.Context, p Partitioner, g *graph.Graph, k int) (*Assignment, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cp, ok := p.(ContextPartitioner); ok {
		return cp.PartitionCtx(ctx, g, k)
	}
	a, err := p.Partition(g, k)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return a, nil
}
