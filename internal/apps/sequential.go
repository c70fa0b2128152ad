package apps

import (
	"container/heap"
	"math"

	"ebv/internal/graph"
)

// The sequential reference implementations below are the correctness
// oracles: for every partitioner and worker count, the BSP (and Pregel)
// results must equal these exactly — the partition-independence invariant
// of DESIGN.md §6.

// SequentialCC returns, for every vertex, the minimum vertex id of its
// connected component (edges treated as undirected).
func SequentialCC(g *graph.Graph) []float64 {
	n := g.NumVertices()
	d := newDSU(n)
	for _, e := range g.Edges() {
		d.union(int32(e.Src), int32(e.Dst))
	}
	// Component label = min member id.
	label := make([]float64, n)
	for v := 0; v < n; v++ {
		label[v] = math.Inf(1)
	}
	for v := 0; v < n; v++ {
		r := d.find(int32(v))
		if float64(v) < label[r] {
			label[r] = float64(v)
		}
	}
	out := make([]float64, n)
	for v := 0; v < n; v++ {
		out[v] = label[d.find(int32(v))]
	}
	return out
}

// SequentialSSSP returns unit-weight shortest-path distances from src over
// directed edges (+Inf for unreachable vertices) via BFS.
func SequentialSSSP(g *graph.Graph, src graph.VertexID) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if int(src) >= n {
		return dist
	}
	csr := graph.BuildCSR(g)
	dist[src] = 0
	queue := make([]graph.VertexID, 0, n)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range csr.Neighbors(u) {
			if nd := dist[u] + 1; nd < dist[v] {
				dist[v] = nd
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// SequentialWeightedSSSP returns shortest-path distances from src over
// directed edges with the given non-negative weights (nil = unit) via
// Dijkstra — the oracle of SSSP{Weighted: true}.
func SequentialWeightedSSSP(g *graph.Graph, src graph.VertexID, weights graph.EdgeWeights) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if int(src) >= n {
		return dist
	}
	csr := graph.BuildCSR(g)
	dist[src] = 0
	h := &distHeap{{v: src}}
	for h.Len() > 0 {
		top := heap.Pop(h).(distEntry)
		if top.d > dist[top.v] {
			continue // stale entry
		}
		edgeIdx := csr.EdgeIndices(top.v)
		for j, v := range csr.Neighbors(top.v) {
			w := 1.0
			if weights != nil {
				w = weights[edgeIdx[j]]
			}
			if nd := top.d + w; nd < dist[v] {
				dist[v] = nd
				heap.Push(h, distEntry{d: nd, v: v})
			}
		}
	}
	return dist
}

// distEntry is a tentative distance d of vertex v.
type distEntry struct {
	d float64
	v graph.VertexID
}

// distHeap is the Dijkstra oracle's min-heap of tentative distances.
type distHeap []distEntry

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distEntry)) }
func (h *distHeap) Pop() any {
	old := *h
	top := old[len(old)-1]
	*h = old[:len(old)-1]
	return top
}

// SequentialPageRank runs iters synchronous PageRank iterations with the
// given damping (0 selects 0.85), dropping dangling mass — bit-for-bit the
// same update as the distributed PageRank program modulo floating-point
// summation order.
func SequentialPageRank(g *graph.Graph, iters int, damping float64) []float64 {
	if damping == 0 {
		damping = 0.85
	}
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	base := (1 - damping) / float64(n)
	for t := 0; t < iters; t++ {
		for i := range next {
			next[i] = 0
		}
		for _, e := range g.Edges() {
			if d := g.OutDegree(e.Src); d > 0 {
				next[e.Dst] += rank[e.Src] / float64(d)
			}
		}
		for i := range next {
			next[i] = base + damping*next[i]
		}
		rank, next = next, rank
	}
	return rank
}

// dsu is a disjoint-set union with path halving and union by size.
type dsu struct {
	parent []int32
	size   []int32
}

func newDSU(n int) *dsu {
	d := &dsu{parent: make([]int32, n), size: make([]int32, n)}
	for i := range d.parent {
		d.parent[i] = int32(i)
		d.size[i] = 1
	}
	return d
}

func (d *dsu) find(x int32) int32 {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

func (d *dsu) union(a, b int32) {
	ra, rb := d.find(a), d.find(b)
	if ra == rb {
		return
	}
	if d.size[ra] < d.size[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	d.size[ra] += d.size[rb]
}
