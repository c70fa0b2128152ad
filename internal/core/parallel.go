package core

import (
	"context"
	"slices"
	"sync"

	"ebv/internal/graph"
	"ebv/internal/partition"
)

// ParallelEBV is the second §VII future-work item: a distributed EBV that
// partitions the edge stream across several partitioner workers. Each
// worker runs Algorithm 1 over its shard against a private copy of the
// counters; after every synchronization epoch the workers' placements are
// replayed into the shared partition.State, so decisions are made against
// state that is at most one epoch stale — the standard bulk-synchronous
// approximation of a sequential greedy algorithm.
//
// The result is not bitwise-identical to sequential EBV (the paper leaves
// the distributed design open); the tests assert the property that
// matters: replication factor and imbalance land close to the sequential
// algorithm's while wall-clock scales with worker count.
type ParallelEBV struct {
	// Workers is the number of concurrent partitioner workers (default 4).
	Workers int
	// EpochEdges is the per-worker shard size between synchronizations.
	// Smaller epochs mean fresher counters and near-sequential quality at
	// the cost of more merge barriers (default |E| / (256·Workers),
	// clamped to [64, 4096]).
	EpochEdges int
	// Alpha and Beta are the evaluation-function weights (0 selects 1).
	Alpha, Beta float64
	// NoSort shards the edges in input order instead of applying the
	// §IV-C degree-sum sort first.
	NoSort bool
}

var _ partition.Partitioner = (*ParallelEBV)(nil)

// Name implements partition.Partitioner.
func (p *ParallelEBV) Name() string { return "EBV-parallel" }

// Partition implements partition.Partitioner: ctx is polled before
// the edge order is built and at every epoch barrier, the first of which
// follows the sort (epochs are at most 4096 edges per worker, so the
// cancellation latency is bounded by the sort or one epoch of work).
func (p *ParallelEBV) Partition(ctx context.Context, g *graph.Graph, k int) (*partition.Assignment, error) {
	if k < 1 {
		return nil, partition.ErrBadPartCount
	}
	workers := p.Workers
	if workers <= 0 {
		workers = 4
	}
	alpha, beta, err := defaultWeights(p.Alpha, p.Beta)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	numE, numV := g.NumEdges(), g.NumVertices()
	a := partition.NewAssignment(k, numE)
	if numE == 0 {
		return a, nil
	}

	sortOrder := OrderSorted
	if p.NoSort {
		sortOrder = OrderInput
	}
	recs := edgeOrder(g, sortOrder)

	epoch := p.EpochEdges
	if epoch <= 0 {
		epoch = numE / (256 * workers)
		if epoch < 64 {
			epoch = 64
		}
		if epoch > 4096 {
			epoch = 4096
		}
	}

	// Global state, advanced only at the epoch barriers.
	st := partition.NewState(numV, k)
	norm := newFixedNorm(alpha, beta, numE, numV, k)

	for cursor := 0; cursor < numE; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Carve one shard of the order per worker for this epoch.
		var shards [][]graph.IndexedEdge
		for w := 0; w < workers && cursor < numE; w++ {
			end := min(cursor+epoch, numE)
			shards = append(shards, recs[cursor:end])
			cursor = end
		}

		var wg sync.WaitGroup
		for _, shard := range shards {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// The worker's private view of the epoch: its own copy of
				// the counters and balance terms, and a copy-on-write
				// overlay holding the rows of the vertices it has placed
				// an edge on — every other row is read from the global
				// state, which no one writes until the barrier.
				ecount, vcount := slices.Clone(st.Ecount), slices.Clone(st.Vcount)
				balance := norm.balances(st)
				overlay := make(map[graph.VertexID][]uint64)
				row := func(v graph.VertexID) []uint64 {
					if r, ok := overlay[v]; ok {
						return r
					}
					return st.Row(v)
				}
				for _, rec := range shard {
					best := argminScore(balance, row(rec.Src), row(rec.Dst))
					a.Parts[rec.ID] = int32(best)
					ecount[best]++
					w, bit := best>>6, uint64(1)<<uint(best&63)
					for _, v := range [2]graph.VertexID{rec.Src, rec.Dst} {
						r, own := overlay[v]
						if !own {
							r = st.Row(v)
						}
						if r[w]&bit != 0 {
							continue
						}
						if !own {
							r = slices.Clone(r)
							overlay[v] = r
						}
						r[w] |= bit
						vcount[best]++
					}
					balance[best] = norm.balance(ecount[best], vcount[best])
				}
			}()
		}
		wg.Wait()

		// Synchronization: replay every worker's decisions, in shard
		// order, into the global state.
		for _, shard := range shards {
			for _, rec := range shard {
				st.Place(rec.Edge, int(a.Parts[rec.ID]))
			}
		}
	}
	return a, nil
}
