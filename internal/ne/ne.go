// Package ne implements Neighbor Expansion (Zhang et al., KDD 2017), the
// local-based vertex-cut baseline of the paper. NE grows one subgraph at a
// time from a core set C and boundary set S, repeatedly promoting the
// boundary vertex with the fewest unassigned external neighbors and
// allocating its incident edges, until the subgraph reaches its edge quota.
//
// NE produces near-perfectly balanced *edges* and a low replication factor
// — but, as §V of the paper shows, on power-law graphs its *vertex*
// assignment becomes severely imbalanced, which is exactly the behaviour
// this reproduction must preserve.
package ne

import (
	"container/heap"
	"context"

	"ebv/internal/graph"
	"ebv/internal/partition"
)

// NE is the neighbor-expansion partitioner. The zero value is ready to use.
type NE struct{}

var _ partition.Partitioner = (*NE)(nil)

// Name implements partition.Partitioner.
func (n *NE) Name() string { return "NE" }

// boundaryItem is a lazily-scored heap entry: score is the number of
// unassigned neighbors outside C ∪ S at push time and is re-validated at
// pop time (stale entries are re-pushed with their current score).
type boundaryItem struct {
	vertex graph.VertexID
	score  int32
}

type boundaryHeap []boundaryItem

func (h boundaryHeap) Len() int { return len(h) }
func (h boundaryHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score < h[j].score
	}
	return h[i].vertex < h[j].vertex
}
func (h boundaryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boundaryHeap) Push(x interface{}) { *h = append(*h, x.(boundaryItem)) }
func (h *boundaryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// Partition implements partition.Partitioner: the expansion loop
// polls ctx every partition.CancelCheckInterval promotions.
func (n *NE) Partition(ctx context.Context, g *graph.Graph, k int) (*partition.Assignment, error) {
	if k < 1 {
		return nil, partition.ErrBadPartCount
	}
	numE := g.NumEdges()
	a := partition.NewAssignment(k, numE)
	if numE == 0 {
		return a, nil
	}

	// Undirected adjacency over both directions so expansion treats the
	// graph symmetrically (NE is defined on undirected structure).
	out := graph.BuildCSR(g)
	in := graph.BuildCSR(graph.Reverse(g))

	assigned := partition.NewBitset(numE)
	// unassignedDeg[v] counts incident unassigned edge slots of v.
	unassignedDeg := make([]int32, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		unassignedDeg[v] = int32(out.Degree(graph.VertexID(v)) + in.Degree(graph.VertexID(v)))
	}

	// minDegCursor scans for seed vertices in ascending degree order.
	seedOrder := seedsByDegree(g)
	seedCursor := 0

	remaining := numE
	promotions := 0
	for part := 0; part < k; part++ {
		target := remaining / (k - part)
		if part == k-1 {
			target = remaining
		}
		allocated := 0

		inCore := partition.NewBitset(g.NumVertices())
		inBoundary := partition.NewBitset(g.NumVertices())
		var bh boundaryHeap

		externScore := func(v graph.VertexID) int32 {
			var s int32
			for _, u := range out.Neighbors(v) {
				if !inCore.Get(int(u)) && !inBoundary.Get(int(u)) {
					s++
				}
			}
			for _, u := range in.Neighbors(v) {
				if !inCore.Get(int(u)) && !inBoundary.Get(int(u)) {
					s++
				}
			}
			return s
		}

		addBoundary := func(v graph.VertexID) {
			if inCore.Get(int(v)) || inBoundary.Get(int(v)) {
				return
			}
			inBoundary.Set(int(v))
			heap.Push(&bh, boundaryItem{vertex: v, score: externScore(v)})
		}

		// allocate assigns every still-unassigned edge incident to x.
		allocate := func(x graph.VertexID) {
			for _, slot := range []struct {
				csr *graph.CSR
			}{{out}, {in}} {
				indices := slot.csr.EdgeIndices(x)
				neighbors := slot.csr.Neighbors(x)
				for j, edgeIdx := range indices {
					if allocated >= target {
						return
					}
					if assigned.Get(int(edgeIdx)) {
						continue
					}
					assigned.Set(int(edgeIdx))
					a.Parts[edgeIdx] = int32(part)
					allocated++
					e := g.Edge(int(edgeIdx))
					unassignedDeg[e.Src]--
					unassignedDeg[e.Dst]--
					addBoundary(neighbors[j])
				}
			}
		}

		for allocated < target {
			if promotions%partition.CancelCheckInterval == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			promotions++
			var x graph.VertexID
			if bh.Len() == 0 {
				// Boundary exhausted: seed with the unassigned vertex of
				// minimum original degree that still has unassigned edges.
				found := false
				for seedCursor < len(seedOrder) {
					cand := seedOrder[seedCursor]
					if unassignedDeg[cand] > 0 && !inCore.Get(int(cand)) {
						x = cand
						found = true
						break
					}
					seedCursor++
				}
				if !found {
					break // no edges left anywhere
				}
			} else {
				item := heap.Pop(&bh).(boundaryItem)
				if cur := externScore(item.vertex); cur != item.score {
					item.score = cur
					heap.Push(&bh, item)
					continue
				}
				x = item.vertex
			}
			inBoundary.Clear(int(x))
			inCore.Set(int(x))
			allocate(x)
		}
		remaining -= allocated
	}

	// Any edges left over (only possible through rounding at the last
	// part) go to the final subgraph.
	for i := 0; i < numE; i++ {
		if !assigned.Get(i) {
			a.Parts[i] = int32(k - 1)
		}
	}
	return a, nil
}

// seedsByDegree returns vertex ids sorted ascending by total degree with id
// tie-break, used to pick expansion seeds deterministically.
func seedsByDegree(g *graph.Graph) []graph.VertexID {
	n := g.NumVertices()
	order := make([]graph.VertexID, n)
	for i := range order {
		order[i] = graph.VertexID(i)
	}
	// Counting sort by degree keeps this O(V + maxDeg).
	maxDeg := g.MaxDegree()
	buckets := make([][]graph.VertexID, maxDeg+1)
	for _, v := range order {
		d := g.Degree(v)
		buckets[d] = append(buckets[d], v)
	}
	out := order[:0]
	for d := 0; d <= maxDeg; d++ {
		out = append(out, buckets[d]...)
	}
	return out
}
