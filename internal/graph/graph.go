// Package graph provides the graph substrate shared by every partitioner and
// processing engine in this repository: an edge-list representation with
// cached degrees, CSR adjacency views, text and binary interchange formats,
// and statistics (including the power-law exponent η used throughout the
// paper's evaluation).
//
// Conventions follow §III-C of the paper: a graph is directed; an undirected
// input is represented by storing each undirected edge as two directed edges
// with opposite directions.
package graph

import (
	"errors"
	"fmt"
)

// VertexID identifies a vertex. Vertex IDs are dense: a graph with n
// vertices uses IDs [0, n).
type VertexID = uint32

// Edge is a directed edge from Src to Dst.
type Edge struct {
	Src VertexID
	Dst VertexID
}

// ErrVertexOutOfRange reports an edge endpoint outside [0, NumVertices).
var ErrVertexOutOfRange = errors.New("graph: vertex id out of range")

// Graph is an immutable directed graph stored as an edge list with cached
// per-vertex degrees. Construct one with New or a loader; do not mutate the
// slices returned by accessor methods.
type Graph struct {
	numVertices int
	edges       []Edge
	outDeg      []int32
	inDeg       []int32
	undirected  bool // true if edges came in mirrored +/- pairs
}

// New builds a Graph over numVertices vertices from the given edge list.
// The edge slice is retained (not copied); callers must not mutate it after
// the call. It returns ErrVertexOutOfRange if any endpoint is out of range.
func New(numVertices int, edges []Edge) (*Graph, error) {
	if numVertices < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", numVertices)
	}
	g := &Graph{
		numVertices: numVertices,
		edges:       edges,
		outDeg:      make([]int32, numVertices),
		inDeg:       make([]int32, numVertices),
	}
	for _, e := range edges {
		if int(e.Src) >= numVertices || int(e.Dst) >= numVertices {
			return nil, fmt.Errorf("%w: edge (%d,%d) with %d vertices",
				ErrVertexOutOfRange, e.Src, e.Dst, numVertices)
		}
		g.outDeg[e.Src]++
		g.inDeg[e.Dst]++
	}
	return g, nil
}

// NewUndirected builds a directed Graph from an undirected edge list by
// mirroring every edge, per §III-C. Self-loops are stored once.
func NewUndirected(numVertices int, edges []Edge) (*Graph, error) {
	mirrored := make([]Edge, 0, 2*len(edges))
	for _, e := range edges {
		mirrored = append(mirrored, e)
		if e.Src != e.Dst {
			mirrored = append(mirrored, Edge{Src: e.Dst, Dst: e.Src})
		}
	}
	g, err := New(numVertices, mirrored)
	if err != nil {
		return nil, err
	}
	g.undirected = true
	return g, nil
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.numVertices }

// NumEdges returns |E| (directed edge count; an undirected input counts 2 per
// input edge).
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edges returns the backing edge list. Callers must treat it as read-only.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns the i-th edge.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v VertexID) int { return int(g.outDeg[v]) }

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v VertexID) int { return int(g.inDeg[v]) }

// Degree returns the total degree (in + out) of v. For graphs built with
// NewUndirected this equals twice the undirected degree for non-loop edges.
func (g *Graph) Degree(v VertexID) int { return int(g.outDeg[v] + g.inDeg[v]) }

// Undirected reports whether the graph was built from an undirected input.
func (g *Graph) Undirected() bool { return g.undirected }

// AverageDegree returns |E| / |V| as reported in Table I of the paper.
func (g *Graph) AverageDegree() float64 {
	if g.numVertices == 0 {
		return 0
	}
	// Table I reports undirected edge counts for undirected graphs; keep
	// the directed convention here and let callers divide by two when they
	// need the undirected figure.
	return float64(len(g.edges)) / float64(g.numVertices)
}

// MaxDegree returns the maximum total degree across vertices.
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for v := 0; v < g.numVertices; v++ {
		if d := int(g.outDeg[v] + g.inDeg[v]); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// SortedBySumDegree returns a new slice of edge indices ordered ascending by
// the sum of end-vertex total degrees, breaking ties by (src, dst) and then
// by edge index so the order is fully deterministic. This is the paper's
// §IV-C sorting preprocessing; it is exposed here because multiple
// partitioners and the Figure 5 harness reuse it.
//
// It is a stable LSD counting sort — by dst, then src, then degree sum —
// so it costs O(|E| + |V|): three scatter passes over two |E|-sized index
// buffers (one is the result), one bucket array of
// max(|V|, 2·MaxDegree + 1) counters and a |V|-sized total-degree array.
func (g *Graph) SortedBySumDegree() []int32 {
	numE := len(g.edges)
	order := make([]int32, numE)
	if numE == 0 {
		return order
	}
	deg := make([]int32, g.numVertices)
	maxDeg := int32(0)
	for v := range deg {
		deg[v] = g.outDeg[v] + g.inDeg[v]
		maxDeg = max(maxDeg, deg[v])
	}
	next := make([]int32, max(g.numVertices, 2*int(maxDeg)+1))
	scratch := make([]int32, numE)

	// starts turns per-bucket counts into each bucket's first output slot.
	starts := func(counts []int32) {
		sum := int32(0)
		for b, c := range counts {
			counts[b] = sum
			sum += c
		}
	}

	// Pass 1, by dst, into order: the bucket sizes are the cached
	// in-degrees, and reading the edges in index order makes the index the
	// final tie-break.
	copy(next, g.inDeg)
	starts(next[:g.numVertices])
	for i, e := range g.edges {
		order[next[e.Dst]] = int32(i)
		next[e.Dst]++
	}

	// Pass 2, by src, into scratch: bucket sizes are the out-degrees.
	copy(next, g.outDeg)
	starts(next[:g.numVertices])
	for _, id := range order {
		src := g.edges[id].Src
		scratch[next[src]] = id
		next[src]++
	}

	// Pass 3, by degree sum, back into order.
	clear(next)
	for _, e := range g.edges {
		next[int(deg[e.Src])+int(deg[e.Dst])]++
	}
	starts(next)
	for _, id := range scratch {
		e := g.edges[id]
		key := int(deg[e.Src]) + int(deg[e.Dst])
		order[next[key]] = id
		next[key]++
	}
	return order
}
