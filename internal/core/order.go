package core

import (
	"context"
	"slices"

	"ebv/internal/graph"
	"ebv/internal/partition"
)

// LocalOrder returns g's edges in OrderLocal's order: by (lower end's
// rank, higher end's rank, Src, Dst, index) over localRanks' ranking.
// The edges are bucketed on their lower end's rank, and each group sorted.
func LocalOrder(g *graph.Graph) []graph.IndexedEdge {
	rank, group := localRanks(g, g.NumVertices())
	edges := g.Edges()
	// group[r] becomes group r's first position, then its cursor, so that
	// it ends as group r's end.
	pos := uint32(0)
	for r, n := range group {
		group[r], pos = pos, pos+n
	}
	keys := make([]uint64, len(edges))
	for i, e := range edges {
		r := min(rank[e.Src], rank[e.Dst])
		keys[group[r]] = groupKey(rank, e, i)
		group[r]++
	}
	recs, from := make([]graph.IndexedEdge, len(edges)), uint32(0)
	for _, to := range group {
		slices.Sort(keys[from:to])
		for j := from; j < to; j++ {
			i := keys[j] & idMask
			recs[j] = graph.IndexedEdge{Edge: edges[i], ID: int32(i)}
		}
		from = to
	}
	return recs
}

const idMask = 1<<31 - 1

// groupKey orders edge i, e, within its group: by higher end's rank, then
// Src > Dst (both ends being the group's, that orders (Src, Dst)), then i.
func groupKey(rank []int32, e graph.Edge, i int) uint64 {
	key := uint64(max(rank[e.Src], rank[e.Dst]))<<32 | uint64(i)
	if e.Src > e.Dst {
		key |= 1 << 31
	}
	return key
}

// localRanks returns each vertex's rank in OrderLocal's undirected
// breadth-first search (roots, and each walked vertex's new neighbours,
// in ascending id) and the group sizes, group[r] edges having their lower
// end at rank r; or nil once a level holds more than maxLevel vertices.
// A graph flagged undirected holds mirrored pairs, so its out-edges name
// every neighbour and only they are indexed; elsewhere both ends of
// every edge are. (On a graph whose flag lies, the ranks differ but every
// vertex gets one and every edge is counted.)
func localRanks(g *graph.Graph, maxLevel int) (rank []int32, group []uint32) {
	numV, edges, mirrored := g.NumVertices(), g.Edges(), g.Undirected()
	// off[v+1] starts as v's first slot and is its cursor, so that it ends
	// as v's end, which is v+1's start. Pieces own vertex ranges.
	off, slots, degree := make([]uint32, numV+1), uint32(0), g.Degree
	if mirrored {
		degree = g.OutDegree
	}
	for v := range numV {
		off[v+1] = slots
		slots += uint32(degree(graph.VertexID(v)))
	}
	nbr := make([]graph.VertexID, slots)
	graph.ForPieces(numV, graph.Pieces(len(edges)), func(_, lo, hi int) {
		next := off[lo+1 : hi+1]
		for _, e := range edges {
			if s := int(e.Src) - lo; uint(s) < uint(hi-lo) {
				nbr[next[s]] = e.Dst
				next[s]++
			}
			if d := int(e.Dst) - lo; !mirrored && uint(d) < uint(hi-lo) {
				nbr[next[d]] = e.Src
				next[d]++
			}
		}
	})

	rank = make([]int32, numV)
	for v := range rank {
		rank[v] = -1
	}
	// order[r] is the vertex of rank r until it is walked, then the size
	// of group r: an edge's lower end is walked no later than its other.
	order := make([]uint32, 0, numV)
	for root := range numV {
		if rank[root] >= 0 {
			continue
		}
		rank[root] = int32(len(order))
		order = append(order, uint32(root))
		// order[level:] is the level being ranked, the new neighbours of
		// the one being walked.
		level := len(order)
		for r := int32(len(order) - 1); int(r) < len(order); r++ {
			if int(r) == level {
				level = len(order)
			}
			v, found, loops := order[r], len(order), uint32(0)
			order[r] = 0
			for _, u := range nbr[off[v]:off[v+1]] {
				if rank[u] < 0 {
					rank[u] = int32(len(order))
					order = append(order, u)
				}
				// A new neighbour ranks above r before and after the sort
				// below. An out-edge is its edge's only slot; else an edge
				// counts at its lower end, a self-loop's two slots once.
				switch ru := rank[u]; {
				case ru > r:
					order[r]++
				case mirrored:
					order[ru]++
				case ru == r:
					loops++
				}
			}
			order[r] += loops / 2
			if len(order)-level > maxLevel {
				return nil, nil
			}
			if len(order)-found > 1 {
				slices.Sort(order[found:])
				for i := found; i < len(order); i++ {
					rank[order[i]] = int32(i)
				}
			}
		}
	}
	return rank, order
}

// cutRanges sets a.Parts[i] to ⌊j·k/|E|⌋, j being edge i's position in
// the local order over rank, without building that order. The edges whose
// lower ends share a rank, a group, hold consecutive positions, so only
// the groups that straddle a cut, at most k-1, are sorted. group holds
// the groups' sizes; ctx is polled every CancelCheckInterval edges.
func cutRanges(ctx context.Context, g *graph.Graph, rank []int32, group []uint32, a *partition.Assignment) (*partition.Assignment, error) {
	edges, numE, k := g.Edges(), int64(g.NumEdges()), int64(a.K)
	// group[r] becomes group r's part, or k+s where it is the s-th group
	// to straddle a cut; first[s] is its first position, then its cursor.
	// (An empty group's value is never read.)
	var first []int64
	part, next, lo := int64(0), int64(0), int64(0) // next is part+1's first position
	for r, n := range group {
		if lo >= next {
			part = lo * k / numE
			next = ((part+1)*numE + k - 1) / k
		}
		if lo+int64(n) <= next {
			group[r] = uint32(part)
		} else {
			group[r] = uint32(k) + uint32(len(first))
			first = append(first, lo)
		}
		lo += int64(n)
	}
	var keys []uint64 // the straddling groups' edges
	for start := 0; start < len(edges); start += partition.CancelCheckInterval {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i := start; i < min(start+partition.CancelCheckInterval, len(edges)); i++ {
			e := edges[i]
			if p := group[min(rank[e.Src], rank[e.Dst])]; int64(p) < k {
				a.Parts[i] = int32(p)
			} else {
				keys = append(keys, groupKey(rank, e, i))
			}
		}
	}
	// Sorted together, the keys hold each group's edges in its order.
	slices.Sort(keys)
	for _, key := range keys {
		i := key & idMask
		s := group[min(rank[edges[i].Src], rank[edges[i].Dst])] - uint32(k)
		a.Parts[i] = int32(first[s] * k / numE)
		first[s]++
	}
	return a, nil
}
