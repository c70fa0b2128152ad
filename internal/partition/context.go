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

// PartitionWithContext runs p under ctx with the entry-point guards a
// Partitioner itself need not repeat: a nil ctx means Background, and an
// already-canceled ctx is rejected before p is called at all.
func PartitionWithContext(ctx context.Context, p Partitioner, g *graph.Graph, k int) (*Assignment, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return p.Partition(ctx, g, k)
}
