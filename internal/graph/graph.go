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
	"runtime"
	"sync"
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

// IndexedEdge is an edge together with its index in Graph.Edges(): one
// record of an edge processing order.
type IndexedEdge struct {
	Edge
	ID int32
}

// SortedBySumDegree returns the edges, each with its index, ordered
// ascending by the sum of end-vertex total degrees, breaking ties by
// (src, dst) and then by edge index so the order is fully deterministic.
// This is the paper's §IV-C sorting preprocessing; it is exposed here
// because multiple partitioners and the Figure 5 harness reuse it.
//
// It is a stable LSD counting sort — by dst, then src, then degree sum —
// over (Edge, ID) records, so every pass reads its input in order and
// none gathers from the edge list. Each pass splits its input into at
// most Pieces(|E|) contiguous pieces, counted and scattered concurrently
// with per-piece bucket offsets (Zagha & Blelloch, SC 1991): bucket b's
// slots go to the pieces in input order, so the result is the same
// permutation at any split. It costs O(|E| + P·buckets): two 12-byte
// record buffers (one is the result), P bucket arrays of
// max(|V|, 2·MaxDegree + 1) counters and a |V|-sized total-degree array.
func (g *Graph) SortedBySumDegree() []IndexedEdge {
	return g.sortedBySumDegree(Pieces(len(g.edges)))
}

// sortedBySumDegree is SortedBySumDegree split at most maxPieces ways.
func (g *Graph) sortedBySumDegree(maxPieces int) []IndexedEdge {
	numE, numV := len(g.edges), g.numVertices
	if numE == 0 {
		return []IndexedEdge{}
	}
	deg := make([]int32, numV)
	maxDeg := int32(0)
	for v := range deg {
		deg[v] = g.outDeg[v] + g.inDeg[v]
		maxDeg = max(maxDeg, deg[v])
	}
	sumBuckets := 2*int(maxDeg) + 1
	buckets := max(numV, sumBuckets)
	// Every piece owns a bucket array: fan out only as far as those stay
	// within about one counter per edge (a hub's degree can make the
	// degree-sum buckets outnumber the edges).
	s := countingSort{n: numE, pieces: max(1, min(maxPieces, numE/buckets))}
	s.counts = make([]int32, s.pieces*buckets)
	recs, scratch := make([]IndexedEdge, numE), make([]IndexedEdge, numE)

	// Pass 1, by dst, reads the edge list and builds the records as it
	// scatters them; reading in index order makes the index the final
	// tie-break.
	s.pass(numV, func(c []int32, lo, hi int) {
		for _, e := range g.edges[lo:hi] {
			c[e.Dst]++
		}
	}, func(next []int32, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := g.edges[i]
			scratch[next[e.Dst]] = IndexedEdge{Edge: e, ID: int32(i)}
			next[e.Dst]++
		}
	})
	// Pass 2, by src.
	s.pass(numV, func(c []int32, lo, hi int) {
		for _, r := range scratch[lo:hi] {
			c[r.Src]++
		}
	}, func(next []int32, lo, hi int) {
		for _, r := range scratch[lo:hi] {
			recs[next[r.Src]] = r
			next[r.Src]++
		}
	})
	// Pass 3, by degree sum.
	s.pass(sumBuckets, func(c []int32, lo, hi int) {
		for _, r := range recs[lo:hi] {
			c[int(deg[r.Src])+int(deg[r.Dst])]++
		}
	}, func(next []int32, lo, hi int) {
		for _, r := range recs[lo:hi] {
			key := int(deg[r.Src]) + int(deg[r.Dst])
			scratch[next[key]] = r
			next[key]++
		}
	})
	return scratch
}

// countingSort runs the stable counting-sort passes of SortedBySumDegree
// over n records split into pieces contiguous ranges.
type countingSort struct {
	n, pieces int
	counts    []int32 // pieces bucket arrays, back to back
}

// pass is one stable counting-sort pass with keys in [0, buckets): count
// tallies the keys of records [lo, hi) into c, then scatter moves those
// records to their slots, next[key]++ after each. Every piece counts and
// scatters on its own goroutine.
func (s *countingSort) pass(buckets int, count, scatter func(c []int32, lo, hi int)) {
	counts := s.counts[:s.pieces*buckets]
	ForPieces(s.n, s.pieces, func(p, lo, hi int) {
		c := counts[p*buckets : (p+1)*buckets]
		clear(c)
		count(c, lo, hi)
	})
	// Turn the counts into each piece's first slot per bucket: bucket by
	// bucket, then piece by piece, so a piece's records follow those of
	// every earlier piece with the same key.
	sum := int32(0)
	for b := 0; b < buckets; b++ {
		for p := b; p < len(counts); p += buckets {
			counts[p], sum = sum, sum+counts[p]
		}
	}
	ForPieces(s.n, s.pieces, func(p, lo, hi int) {
		scatter(counts[p*buckets:(p+1)*buckets], lo, hi)
	})
}

// minPieceEdges is the smallest share of an |E|-sized pass worth a
// goroutine of its own.
const minPieceEdges = 1 << 16

// Pieces returns how many ways an |E|-sized pass over n edges fans out:
// min(GOMAXPROCS, n/64Ki), at least 1.
func Pieces(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/minPieceEdges))
}

// ForPieces splits [0, n) into pieces contiguous ranges — piece p is
// [p·n/pieces, (p+1)·n/pieces) — runs fn on each, concurrently when there
// is more than one, and returns once every call has.
func ForPieces(n, pieces int, fn func(p, lo, hi int)) {
	if pieces <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for p := 0; p < pieces; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(p, p*n/pieces, (p+1)*n/pieces)
		}()
	}
	wg.Wait()
}
