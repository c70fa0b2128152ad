// Package bsp implements the subgraph-centric, bulk synchronous parallel
// processing framework of §IV-B of the paper (the DRONE substitute): the
// whole graph is divided into subgraphs, each bound to one worker, and
// processing proceeds in supersteps of three stages — computation
// (update the subgraph), communication (exchange messages between replicas
// of cut vertices only), and synchronization (barrier).
//
// The engine records, per worker and per superstep, the computation time
// comp_i^k, the communication time comm_i^k and the synchronization wait,
// which reproduce the Table II / Figure 4 breakdowns, plus per-worker
// message counts for Tables IV and V.
package bsp

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"ebv/internal/graph"
	"ebv/internal/partition"
)

// Subgraph is one worker's local view of a partitioned graph: the edges
// assigned to it, their covering vertex set re-labelled into a dense local
// id space, and the replication routing table.
type Subgraph struct {
	// Part is this subgraph's id (== worker id).
	Part int
	// NumWorkers is the total number of subgraphs.
	NumWorkers int
	// NumGlobalVertices is |V| of the whole graph.
	NumGlobalVertices int
	// GlobalIDs maps local vertex ids to global ones, strictly ascending
	// (a structural invariant ReadSubgraph validates).
	GlobalIDs []graph.VertexID
	// Edges are the local edges with endpoints in LOCAL id space, ordered
	// by their index in the originating graph's edge list.
	Edges []graph.Edge
	// Peers[PeerStart[l]:PeerStart[l+1]] lists the other workers holding a
	// replica of local vertex l (ascending, self excluded; empty for an
	// internal vertex), read through PeersOf. PeerStart has |Vi|+1 entries.
	PeerStart []int32
	Peers     []int32
	// GlobalOutDegree[local] is the vertex's out-degree in the whole graph
	// (PageRank divides by it).
	GlobalOutDegree []int32
	// GlobalInDegree[local] is the vertex's in-degree in the whole graph
	// (the feature-aggregation program normalizes by it).
	GlobalInDegree []int32
	// Weights holds per-local-edge weights aligned with Edges; nil means
	// unit weights (set by BuildSubgraphsWeightedParallel).
	Weights []float64

	// localOf is the dense global→local inverse index (-1 = not covered
	// here), giving LocalOf one O(1) array probe on the per-message hot
	// path. buildLocalIndex attaches it only when the part covers enough
	// of the id space to pay for it (nil = binary-search fallback); it is
	// rebuilt by ReadSubgraph rather than shipped.
	localOf []int32

	// out, routing, comps and depth cache plan.go's derived tables, built
	// on first use and shared by every job; a live epoch swap replaces
	// rebuilt parts by pointer, which is their invalidation, and PatchRows
	// empties the cells that depend on peers. Attached by newSubgraph.
	out     *lazy[*graph.CSR]
	routing *lazy[*Routing]
	comps   *lazy[[]int32]
	depth   *lazy[Depth]
}

// newSubgraph returns a subgraph header with empty derived-table cells.
func newSubgraph(part, workers, globalVertices int) *Subgraph {
	return &Subgraph{Part: part, NumWorkers: workers, NumGlobalVertices: globalVertices,
		out: new(lazy[*graph.CSR]), routing: new(lazy[*Routing]), comps: new(lazy[[]int32]), depth: new(lazy[Depth])}
}

// localIndexMaxDilution bounds the dense index's memory: the index costs
// 4·|V| bytes per part, so it is attached only while that stays under
// ~64 bytes per covered vertex (about the seed's per-hash-map-entry
// overhead), i.e. |V| <= 16·|Vi|. Typical paper configurations (k <= 32,
// replication >= 1) are comfortably dense; only very sparse parts of a
// large-k partition fall back to binary search, keeping aggregate build
// memory O(Σ|Vi|) instead of O(k·|V|).
const localIndexMaxDilution = 16

// buildLocalIndex attaches the dense inverse index when the part is dense
// enough for it (see localIndexMaxDilution). GlobalIDs must be final.
func (s *Subgraph) buildLocalIndex() {
	if int64(s.NumGlobalVertices) > localIndexMaxDilution*int64(len(s.GlobalIDs)) {
		return // sparse part: LocalOf binary-searches GlobalIDs
	}
	s.localOf = newLocalIndex(s.NumGlobalVertices)
	for local, gid := range s.GlobalIDs {
		s.localOf[gid] = int32(local)
	}
}

// NumLocalVertices returns |Vi|.
func (s *Subgraph) NumLocalVertices() int { return len(s.GlobalIDs) }

// LocalOf returns the local id of global vertex v, if v is covered here.
// Message delivery calls this once per incoming message, so the common
// (dense) case is a single array probe; sparse parts binary-search the
// ascending GlobalIDs instead.
func (s *Subgraph) LocalOf(v graph.VertexID) (int32, bool) {
	if s.localOf != nil {
		if int(v) >= len(s.localOf) {
			return 0, false
		}
		l := s.localOf[v]
		if l < 0 {
			return 0, false
		}
		return l, true
	}
	i, ok := slices.BinarySearch(s.GlobalIDs, v)
	if !ok {
		return 0, false
	}
	return int32(i), true
}

// PeersOf returns the workers other than this one holding a replica of
// local vertex l, ascending (aliasing Peers; empty when l is internal).
func (s *Subgraph) PeersOf(l int32) []int32 {
	return s.Peers[s.PeerStart[l]:s.PeerStart[l+1]]
}

// Master returns the lowest worker id holding a replica of the local vertex
// (possibly this worker): the rule behind Routing's owned/mirror split.
func (s *Subgraph) Master(local int32) int32 {
	peers := s.PeersOf(local)
	if len(peers) == 0 || int32(s.Part) < peers[0] {
		return int32(s.Part)
	}
	return peers[0]
}

// setRow derives local vertex l's rows from g and holders, the ascending
// parts covering it: its global degrees, and its replica peers — every
// holder but this part — appended to Peers, which closes PeerStart[l+1].
// It is the one derivation of a row, shared by BuildPart and PatchRows.
func (s *Subgraph) setRow(l int32, g *graph.Graph, holders []int32) {
	gid := s.GlobalIDs[l]
	s.GlobalOutDegree[l] = int32(g.OutDegree(gid))
	s.GlobalInDegree[l] = int32(g.InDegree(gid))
	for _, q := range holders {
		if int(q) != s.Part {
			s.Peers = append(s.Peers, q)
		}
	}
	s.PeerStart[l+1] = int32(len(s.Peers))
}

// PatchRows returns a copy of s whose rows at the ascending local ids rows
// are re-derived from g and partsOf (as BuildPart would derive them), the
// other rows and the edges shared or copied unchanged. The copy keeps the
// out-adjacency and component tables (no edge moved) but starts with empty
// routing and boundary-depth cells, since the replicated set may have
// changed. s itself is not written.
func (s *Subgraph) PatchRows(rows []int32, g *graph.Graph, partsOf func(graph.VertexID) []int32) *Subgraph {
	dup := *s
	dup.GlobalOutDegree = slices.Clone(s.GlobalOutDegree)
	dup.GlobalInDegree = slices.Clone(s.GlobalInDegree)
	dup.PeerStart = make([]int32, len(s.PeerStart))
	dup.Peers = make([]int32, 0, len(s.Peers))
	for l := range int32(len(s.GlobalIDs)) {
		if len(rows) > 0 && rows[0] == l {
			rows = rows[1:]
			dup.setRow(l, g, partsOf(s.GlobalIDs[l]))
			continue
		}
		dup.Peers = append(dup.Peers, s.PeersOf(l)...)
		dup.PeerStart[l+1] = int32(len(dup.Peers))
	}
	dup.routing = new(lazy[*Routing])
	dup.depth = new(lazy[Depth])
	return &dup
}

// BuildSubgraphs materializes the per-worker subgraphs of assignment a
// over g, including the replica routing tables, using all available CPUs.
func BuildSubgraphs(g *graph.Graph, a *partition.Assignment) ([]*Subgraph, error) {
	return BuildSubgraphsWeightedParallel(g, a, nil, 0)
}

// BuildSubgraphsWeightedParallel is BuildSubgraphs plus per-subgraph edge
// weights carried over from the global weight vector (aligned with g's
// edge list; nil builds unweighted subgraphs), with parts built
// concurrently by at most parallelism goroutines (<= 0 selects
// GOMAXPROCS, 1 builds sequentially). The result is identical to a
// sequential build — each part's vertex set is ascending and its edges
// keep the originating graph's edge-list order.
//
// BucketByPart groups the edge indices by part, then two part-parallel
// passes run over each part's own bucket: Coverage computes the part's
// covered vertex bitset, and BuildPart materializes the subgraph — local
// id space, degrees, the replica-peer CSR, and the edge list pre-sized
// from the bucket and filled by offset. There are no per-part hash maps:
// each dense-enough part keeps a []int32 inverse index over the global id
// space as Subgraph.localOf (the run-time O(1) LocalOf table; see
// localIndexMaxDilution), and sparse parts localize by binary search.
func BuildSubgraphsWeightedParallel(g *graph.Graph, a *partition.Assignment,
	weights graph.EdgeWeights, parallelism int) ([]*Subgraph, error) {
	if len(a.Parts) != g.NumEdges() {
		return nil, fmt.Errorf("bsp: assignment covers %d edges, graph has %d",
			len(a.Parts), g.NumEdges())
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("bsp: %w", err)
	}
	if weights != nil && len(weights) != g.NumEdges() {
		return nil, fmt.Errorf("bsp: %d weights for %d edges", len(weights), g.NumEdges())
	}
	// A negative cycle inside one part would keep weighted SSSP relaxing
	// within a single superstep, where cancellation is never polled.
	for i, w := range weights {
		if !(w >= 0) {
			return nil, fmt.Errorf("bsp: edge %d has weight %g: weights must be non-negative", i, w)
		}
	}
	// Edge indices travel as int32 here and in graph.CSR's edgeIndex; make
	// the shared limit explicit instead of overflowing (ReadBinary admits
	// up to 2^33 edges).
	if int64(g.NumEdges()) > math.MaxInt32 {
		return nil, fmt.Errorf("bsp: %d edges exceed the int32 edge-index limit", g.NumEdges())
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	k := a.K
	buckets := BucketByPart(a.Parts, k)
	sets := make([]partition.Bitset, k)
	RunParts(parallelism, k, func(p int) { sets[p] = Coverage(g, buckets[p]) })
	replicas := partition.BuildReplicasFromSets(g.NumVertices(), sets)
	subs := make([]*Subgraph, k)
	RunParts(parallelism, k, func(p int) {
		subs[p] = BuildPart(g, p, k, buckets[p], sets[p], replicas.Parts, weights)
	})
	return subs, nil
}

// BucketByPart groups edge indices by the part parts assigns them to, with
// one O(|E|) counting sort over k parts: buckets[p] lists part p's indices
// in ascending order, which fixes the local edge order of BuildPart. The
// buckets share one backing array. Every entry of parts must be in [0, k).
func BucketByPart(parts []int32, k int) [][]int32 {
	offsets := make([]int, k+1)
	for _, p := range parts {
		offsets[p+1]++
	}
	order := make([]int32, len(parts))
	buckets := make([][]int32, k)
	for p := range buckets {
		offsets[p+1] += offsets[p]
		buckets[p] = order[offsets[p]:offsets[p]:offsets[p+1]]
	}
	for i, p := range parts {
		buckets[p] = append(buckets[p], int32(i))
	}
	return buckets
}

// Coverage returns the set of g's vertices that the edges at the indices
// in bucket touch: a part's covered vertex bitset.
func Coverage(g *graph.Graph, bucket []int32) partition.Bitset {
	edges := g.Edges()
	set := partition.NewBitset(g.NumVertices())
	for _, idx := range bucket {
		set.Set(int(edges[idx].Src))
		set.Set(int(edges[idx].Dst))
	}
	return set
}

// BuildPart materializes a single part of a k-way edge partition of g —
// the per-part unit of work of BuildSubgraphsWeightedParallel, exported
// so incremental layers (internal/live) can rebuild exactly the parts a
// mutation batch touched. bucket lists the part's global edge indices
// in ascending order (which fixes the local edge order), set is the
// part's covered vertex bitset, and partsOf returns the sorted list of
// parts covering a global vertex (the replica table; it must already
// reflect set). weights, when non-nil, is the global per-edge weight
// vector. The returned subgraph is byte-identical to the one a full
// build would produce for part p.
func BuildPart(g *graph.Graph, p, k int, bucket []int32, set partition.Bitset,
	partsOf func(graph.VertexID) []int32, weights graph.EdgeWeights) *Subgraph {
	edges := g.Edges()
	count := set.Count()
	sub := newSubgraph(p, k, g.NumVertices())
	sub.GlobalIDs = make([]graph.VertexID, 0, count)
	sub.GlobalOutDegree = make([]int32, count)
	sub.GlobalInDegree = make([]int32, count)
	sub.PeerStart = make([]int32, count+1)
	sub.Peers = []int32{}
	set.Range(func(v int) {
		sub.GlobalIDs = append(sub.GlobalIDs, graph.VertexID(v))
		sub.setRow(int32(len(sub.GlobalIDs)-1), g, partsOf(graph.VertexID(v)))
	})
	sub.buildLocalIndex()

	// Local edge list: pre-sized from the bucket, filled by offset in
	// global edge order (deterministic within the part). Localization
	// goes through LocalOf, so sparse parts work without the dense
	// index; every endpoint is covered by construction.
	sub.Edges = make([]graph.Edge, len(bucket))
	if weights != nil {
		sub.Weights = make([]float64, len(bucket))
	}
	for w, idx := range bucket {
		e := edges[idx]
		ls, _ := sub.LocalOf(e.Src)
		ld, _ := sub.LocalOf(e.Dst)
		sub.Edges[w] = graph.Edge{Src: graph.VertexID(ls), Dst: graph.VertexID(ld)}
		if weights != nil {
			sub.Weights[w] = weights[idx]
		}
	}
	return sub
}

// newLocalIndex allocates a dense global→local index with every entry -1.
func newLocalIndex(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = -1
	}
	return idx
}

// RunParts invokes fn(p) for every part id in [0, k), fanning out over at
// most workers goroutines.
func RunParts(workers, k int, fn func(p int)) {
	workers = min(workers, k)
	if workers <= 1 {
		for p := 0; p < k; p++ {
			fn(p)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				p := int(next.Add(1)) - 1
				if p >= k {
					return
				}
				fn(p)
			}
		}()
	}
	wg.Wait()
}

// EdgeWeight returns the weight of the local edge with index i (1 when no
// weights are attached).
func (s *Subgraph) EdgeWeight(i int32) float64 {
	if s.Weights == nil {
		return 1
	}
	return s.Weights[i]
}
