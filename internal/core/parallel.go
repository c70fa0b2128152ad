package core

import (
	"context"
	"fmt"
	"sync"

	"ebv/internal/graph"
	"ebv/internal/partition"
)

// ParallelEBV is the second §VII future-work item: a distributed EBV that
// partitions the edge stream across several partitioner workers. Each
// worker runs Algorithm 1 over its shard against a private copy of the
// counters; after every synchronization epoch the workers merge their
// keep/ecount/vcount deltas, so decisions are made against state that is
// at most one epoch stale — the standard bulk-synchronous approximation of
// a sequential greedy algorithm.
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
	// Sorted applies the §IV-C degree-sum sort before sharding (default
	// true semantics: set NoSort to disable).
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
	alpha, beta := p.Alpha, p.Beta
	if alpha == 0 {
		alpha = 1
	}
	if beta == 0 {
		beta = 1
	}
	if alpha < 0 || beta < 0 {
		return nil, fmt.Errorf("core: negative hyperparameters alpha=%g beta=%g", alpha, beta)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	numE, numV := g.NumEdges(), g.NumVertices()
	a := partition.NewAssignment(k, numE)
	if numE == 0 {
		return a, nil
	}

	var order []int32
	if p.NoSort {
		order = make([]int32, numE)
		for i := range order {
			order[i] = int32(i)
		}
	} else {
		order = g.SortedBySumDegree()
	}

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

	// Global (epoch-synchronized) state.
	globalKeep := make([]partition.Bitset, k)
	for i := range globalKeep {
		globalKeep[i] = partition.NewBitset(numV)
	}
	globalE := make([]int, k)
	globalV := make([]int, k)

	eNorm := alpha / (float64(numE) / float64(k))
	vNorm := beta / (float64(numV) / float64(k))

	type delta struct {
		parts  []int32 // per shard edge, aligned with the shard slice
		newV   [][]int32
		ecount []int
	}

	cursor := 0
	for cursor < numE {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Carve one shard per worker for this epoch.
		type shard struct {
			edges []int32
		}
		shards := make([]shard, 0, workers)
		for w := 0; w < workers && cursor < numE; w++ {
			end := cursor + epoch
			if end > numE {
				end = numE
			}
			shards = append(shards, shard{edges: order[cursor:end]})
			cursor = end
		}

		deltas := make([]delta, len(shards))
		var wg sync.WaitGroup
		for si := range shards {
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				// Private copy-on-write view: local additions tracked in
				// maps to avoid copying the global bitsets per epoch.
				localKeep := make([]map[int32]struct{}, k)
				for i := range localKeep {
					localKeep[i] = make(map[int32]struct{})
				}
				localE := make([]int, k)
				localV := make([]int, k)
				d := delta{
					parts:  make([]int32, len(shards[si].edges)),
					newV:   make([][]int32, k),
					ecount: make([]int, k),
				}
				has := func(part, vert int) bool {
					if globalKeep[part].Get(vert) {
						return true
					}
					_, ok := localKeep[part][int32(vert)]
					return ok
				}
				for j, edgeID := range shards[si].edges {
					e := g.Edge(int(edgeID))
					u, v := int(e.Src), int(e.Dst)
					best, bestScore := 0, 0.0
					for i := 0; i < k; i++ {
						score := float64(globalE[i]+localE[i])*eNorm +
							float64(globalV[i]+localV[i])*vNorm
						if !has(i, u) {
							score++
						}
						if !has(i, v) {
							score++
						}
						if i == 0 || score < bestScore {
							bestScore = score
							best = i
						}
					}
					d.parts[j] = int32(best)
					localE[best]++
					d.ecount[best]++
					if !has(best, u) {
						localKeep[best][int32(u)] = struct{}{}
						localV[best]++
						d.newV[best] = append(d.newV[best], int32(u))
					}
					if !has(best, v) {
						localKeep[best][int32(v)] = struct{}{}
						localV[best]++
						d.newV[best] = append(d.newV[best], int32(v))
					}
				}
				deltas[si] = d
			}(si)
		}
		wg.Wait()

		// Synchronization: merge deltas into the global state.
		for si := range shards {
			for j, edgeID := range shards[si].edges {
				a.Parts[edgeID] = deltas[si].parts[j]
			}
			for i := 0; i < k; i++ {
				globalE[i] += deltas[si].ecount[i]
				for _, v := range deltas[si].newV[i] {
					if !globalKeep[i].Get(int(v)) {
						globalKeep[i].Set(int(v))
						globalV[i]++
					}
				}
			}
		}
	}
	return a, nil
}
