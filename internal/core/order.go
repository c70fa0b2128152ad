package core

import (
	"slices"

	"ebv/internal/graph"
)

// LocalOrder returns g's edges in OrderLocal's order.
func LocalOrder(g *graph.Graph) []graph.IndexedEdge { return localOrder(g, g.NumVertices()) }

// localOrder returns g's edges in OrderLocal's order, or nil as soon as
// one breadth-first level holds more than maxLevel vertices. An undirected
// breadth-first search ranks the vertices (roots and each vertex's new
// neighbours in ascending id), and the edges follow by (lower end's rank,
// higher end's rank, Src, Dst, index). A vertex's edges go out right
// after its turn, when its neighbours are ranked.
func localOrder(g *graph.Graph, maxLevel int) []graph.IndexedEdge {
	numV, edges := g.NumVertices(), g.Edges()
	// adj[start[v]:start[v+1]] has a slot per edge end at v: neighbour<<32
	// | side<<31 | index, side 1 where v is the Dst. Pieces own v ranges.
	start := make([]int, numV+1)
	for v := range numV {
		start[v+1] = start[v] + g.Degree(graph.VertexID(v))
	}
	adj := make([]uint64, start[numV])
	graph.ForPieces(numV, graph.Pieces(len(edges)), func(_, lo, hi int) {
		next := slices.Clone(start[lo:hi])
		for i, e := range edges {
			if s := int(e.Src) - lo; uint(s) < uint(hi-lo) {
				adj[next[s]] = uint64(e.Dst)<<32 | uint64(i)
				next[s]++
			}
			if d := int(e.Dst) - lo; uint(d) < uint(hi-lo) {
				adj[next[d]] = uint64(e.Src)<<32 | 1<<31 | uint64(i)
				next[d]++
			}
		}
	})

	const idMask = 1<<31 - 1
	recs := make([]graph.IndexedEdge, 0, len(edges))
	rank := make([]int32, numV)
	for v := range rank {
		rank[v] = -1
	}
	order := make([]graph.VertexID, 0, numV)
	var keys []uint64
	for root := range numV {
		if rank[root] >= 0 {
			continue
		}
		rank[root] = int32(len(order))
		order = append(order, graph.VertexID(root))
		// order[level:] is the level being ranked, the new neighbours of
		// the one being walked.
		level := len(order)
		for r := int32(len(order) - 1); int(r) < len(order); r++ {
			if int(r) == level {
				level = len(order)
			}
			v, found := order[r], len(order)
			slots := adj[start[v]:start[v+1]]
			for _, s := range slots {
				if u := s >> 32; rank[u] < 0 {
					rank[u] = int32(len(order))
					order = append(order, graph.VertexID(u))
				}
			}
			if len(order)-level > maxLevel {
				return nil
			}
			if len(order)-found > 1 {
				slices.Sort(order[found:])
				for i := found; i < len(order); i++ {
					rank[order[i]] = int32(i)
				}
			}
			// v's edges to higher ranks (a self-loop by its Src end), keyed
			// (neighbour rank, flip, index); flip 0 leaves the lower id.
			keys = keys[:0]
			for _, s := range slots {
				u, flip := s>>32, s>>31&1
				if rank[u] < r || rank[u] == r && flip == 1 {
					continue
				}
				if u < uint64(v) {
					flip ^= 1
				}
				keys = append(keys, uint64(rank[u])<<32|flip<<31|s&idMask)
			}
			slices.Sort(keys)
			for _, key := range keys {
				u := order[key>>32]
				e := graph.Edge{Src: v, Dst: u}
				if key>>31&1 == 1 != (u < v) {
					e = graph.Edge{Src: u, Dst: v}
				}
				recs = append(recs, graph.IndexedEdge{Edge: e, ID: int32(key & idMask)})
			}
		}
	}
	return recs
}
