package bsp

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"ebv/internal/graph"
	"ebv/internal/transport"
)

// Routing is a subgraph's replica routing plan: everything the partition
// fixes about who sends what to whom (§IV-B — messages flow only between
// replicas of cut vertices), derived from the replica peers once per subgraph
// and shared read-only by every job on it. Every list is in ascending local
// id, hence ascending global id: a batch filled from one carries strictly
// ascending ids and cannot hold a duplicate.
type Routing struct {
	// Owned holds the local vertices this worker is the master of
	// (replicated or not); the rest are mirrors, found in ToMaster.
	Owned []int32
	// Replicated lists the local vertices with a replica on another worker;
	// Mask has bit l set exactly for those.
	Replicated []int32
	Mask       []uint64
	// The send columns, indexed by peer worker id (empty for this worker
	// and for workers sharing no vertex with it): ToMaster[q] holds the
	// mirrors mastered at q, ToMirrors[q] the owned vertices with a mirror
	// on q.
	ToMaster, ToMirrors []Column
}

// Column is one send column: local ids beside their global ids, ascending.
type Column struct {
	Locals []int32
	IDs    []graph.VertexID
}

// lazy builds a derived table once, on first use (concurrent first users
// block on the one build); a hand-assembled Subgraph's nil cell, per call.
type lazy[T any] struct {
	once sync.Once
	v    T
}

func (c *lazy[T]) get(build func() T) T {
	if c == nil {
		return build()
	}
	c.once.Do(func() { c.v = build() })
	return c.v
}

// Out returns the local out-adjacency over Edges, built on first use.
func (s *Subgraph) Out() *graph.CSR {
	return s.out.get(func() *graph.CSR { return buildOut(s) })
}

// Routing returns the subgraph's routing plan, building it on first use.
func (s *Subgraph) Routing() *Routing {
	return s.routing.get(func() *Routing { return buildRouting(s) })
}

// ComponentRoots returns the local component table, built on first use:
// entry l is the smallest local id in l's connected component of the local
// edges (taken as undirected). Local ids ascend with global ids, so
// GlobalIDs[root] is the component's minimum covered global id.
func (s *Subgraph) ComponentRoots() []int32 {
	return s.comps.get(func() []int32 { return buildComponentRoots(s) })
}

// Depth is a part's boundary depth: how far its vertices sit, in hops over
// the local edges taken as undirected, from the nearest replicated local
// vertex. Vertices with no path to one are not counted.
type Depth struct {
	// Reached counts the local vertices with a path to a replicated one,
	// the replicated ones included (at depth 0); Sum is their total depth.
	// Reached == 0 exactly when the part has no replicated vertex.
	Reached, Sum int64
}

// BoundaryDepth returns the part's boundary depth, built on first use by
// one multi-source BFS from Routing().Replicated.
func (s *Subgraph) BoundaryDepth() Depth {
	return s.depth.get(func() Depth { return buildBoundaryDepth(s) })
}

// buildOut indexes the local edges, whose endpoints are local ids by
// construction (BuildPart) or by validation (ReadSubgraph).
func buildOut(s *Subgraph) *graph.CSR {
	lg, err := graph.New(len(s.GlobalIDs), s.Edges)
	if err != nil {
		panic("bsp: local edge outside the local id space: " + err.Error())
	}
	return graph.BuildCSR(lg)
}

func buildRouting(s *Subgraph) *Routing {
	n, k, self := len(s.GlobalIDs), s.NumWorkers, int32(s.Part)
	r := &Routing{Mask: make([]uint64, (n+63)/64)}
	// Pass 1 sizes every table, so pass 2 fills exact allocations.
	toMaster, toMirrors := make([]int, k), make([]int, k)
	replicated, mirrors := 0, 0
	for l := range int32(n) {
		peers := s.PeersOf(l)
		if len(peers) == 0 {
			continue
		}
		replicated++
		r.Mask[l>>6] |= 1 << (l & 63)
		master := s.Master(l)
		if master != self {
			mirrors++
			toMaster[master]++
		}
		if master == self {
			for _, q := range peers {
				toMirrors[q]++
			}
		}
	}
	r.Owned = make([]int32, 0, n-mirrors)
	r.Replicated = make([]int32, 0, replicated)
	r.ToMaster, r.ToMirrors = newColumns(toMaster), newColumns(toMirrors)
	for l := range int32(n) {
		gid, master := s.GlobalIDs[l], s.Master(l)
		if master == self {
			r.Owned = append(r.Owned, l)
		} else {
			r.ToMaster[master].add(l, gid)
		}
		peers := s.PeersOf(l)
		if len(peers) == 0 {
			continue
		}
		r.Replicated = append(r.Replicated, l)
		if master == self {
			for _, q := range peers {
				r.ToMirrors[q].add(l, gid)
			}
		}
	}
	return r
}

// newColumns returns one empty column of capacity counts[q] per peer.
func newColumns(counts []int) []Column {
	cols := make([]Column, len(counts))
	for q, c := range counts {
		if c > 0 {
			cols[q] = Column{Locals: make([]int32, 0, c), IDs: make([]graph.VertexID, 0, c)}
		}
	}
	return cols
}

func (c *Column) add(local int32, gid graph.VertexID) {
	c.Locals = append(c.Locals, local)
	c.IDs = append(c.IDs, gid)
}

// buildComponentRoots is a union-find whose links always point at the
// smaller local id, so each tree's root is its component's minimum and one
// ascending pass flattens it (a parent is final before its children).
func buildComponentRoots(s *Subgraph) []int32 {
	root := make([]int32, len(s.GlobalIDs))
	for l := range root {
		root[l] = int32(l)
	}
	find := func(x int32) int32 {
		for root[x] != x {
			root[x] = root[root[x]]
			x = root[x]
		}
		return x
	}
	for _, e := range s.Edges {
		a, b := find(int32(e.Src)), find(int32(e.Dst))
		root[max(a, b)] = min(a, b)
	}
	for l, p := range root {
		root[l] = root[p]
	}
	return root
}

// buildBoundaryDepth runs the BFS over an undirected adjacency counting-
// sorted from the local edges (a self-loop lists its vertex twice, which
// the visited check absorbs).
func buildBoundaryDepth(s *Subgraph) Depth {
	n := len(s.GlobalIDs)
	start := make([]int32, n+1)
	for _, e := range s.Edges {
		start[e.Src+1]++
		start[e.Dst+1]++
	}
	for l := range n {
		start[l+1] += start[l]
	}
	adj, fill := make([]int32, start[n]), slices.Clone(start[:n])
	for _, e := range s.Edges {
		adj[fill[e.Src]], fill[e.Src] = int32(e.Dst), fill[e.Src]+1
		adj[fill[e.Dst]], fill[e.Dst] = int32(e.Src), fill[e.Dst]+1
	}
	depth := make([]int32, n)
	for l := range depth {
		depth[l] = -1
	}
	queue := append(make([]int32, 0, n), s.Routing().Replicated...)
	for _, l := range queue {
		depth[l] = 0
	}
	var d Depth
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		d.Sum += int64(depth[u])
		for _, v := range adj[start[u]:start[u+1]] {
			if depth[v] < 0 {
				depth[v] = depth[u] + 1
				queue = append(queue, v)
			}
		}
	}
	d.Reached = int64(len(queue))
	return d
}

// SendRows returns the outbox that hands every peer q with a non-empty
// column one pooled batch of rows (cols[q].IDs[i], m.Row(cols[q].Locals[i])):
// one copy of the id column plus one gather loop per peer. A width-1 row
// moves as one assignment, not a copy call.
func (e Env) SendRows(cols []Column, m *graph.ValueMatrix) []*transport.MessageBatch {
	w, out := e.ValueWidth, make([]*transport.MessageBatch, len(cols))
	for q, col := range cols {
		if len(col.IDs) == 0 {
			continue
		}
		b := e.NewBatch()
		b.IDs = append(b.IDs, col.IDs...)
		n := len(col.IDs) * w
		b.Vals = slices.Grow(b.Vals, n)[:n]
		if w == 1 {
			for i, l := range col.Locals {
				b.Vals[i] = m.Data[l]
			}
		} else {
			for i, l := range col.Locals {
				copy(b.Row(i), m.Row(int(l)))
			}
		}
		out[q] = b
	}
	return out
}

// ReceiveRows copies every inbox row into dst's row of its local vertex,
// or adds it there with add: the receiving half of SendRows over the
// columns cols the peers sent. The inbox concatenates the sources' batches
// in source order, so source q's rows are cols[q]'s, installed into
// cols[q].Locals once their ids match; any other inbox fails the run. A
// width-1 row moves as one assignment: a copy call per row costs the
// scalar runs about a quarter of their cycle.
func (e Env) ReceiveRows(dst *graph.ValueMatrix, in *transport.MessageBatch, cols []Column, add bool) {
	w, d, pos := dst.Width, dst.Data, 0
	for q, col := range cols {
		ids := in.IDs[pos:min(len(in.IDs), pos+len(col.IDs))]
		for i, id := range col.IDs {
			if i == len(ids) || ids[i] != id {
				e.Fail(fmt.Errorf("bsp: row %d from worker %d is %v, want vertex %d", i, q, ids[i:min(i+1, len(ids))], id))
				return
			}
		}
		vals := in.Vals[pos*w : (pos+len(ids))*w]
		switch {
		case w == 1 && add:
			for i, l := range col.Locals {
				d[l] += vals[i]
			}
		case w == 1:
			for i, l := range col.Locals {
				d[l] = vals[i]
			}
		case add:
			for i, l := range col.Locals {
				row := dst.Row(int(l))
				for j, v := range vals[i*w : (i+1)*w] {
					row[j] += v
				}
			}
		default:
			for i, l := range col.Locals {
				copy(dst.Row(int(l)), vals[i*w:(i+1)*w])
			}
		}
		pos += len(ids)
	}
	if pos < len(in.IDs) {
		e.Fail(fmt.Errorf("bsp: %d rows past the expected ones, first vertex %d", len(in.IDs)-pos, in.IDs[pos]))
	}
}

// Links is one part's share of an epoch's component-link table.
// For parts p and q, a local component A on p and B on q that share a
// vertex meet at one link, the lowest global id in A ∩ B: p holds one link
// per (A, q, B), and its links toward q are q's links toward p, so every
// link vertex is one on at least two parts. Locals lists the local
// vertices that are a link toward some worker, ascending. Every local
// component with a replicated vertex has one.
type Links struct{ Locals []int32 }

// check reports the first way t is not a well-formed share of sub's links:
// ascending local link vertices, each replicated.
func (t *Links) check(sub *Subgraph) error {
	for i, l := range t.Locals {
		if l < 0 || int(l) >= len(sub.GlobalIDs) || i > 0 && l <= t.Locals[i-1] || len(sub.PeersOf(l)) == 0 {
			return fmt.Errorf("link vertex %d at %d of %d local vertices (ascending, replicated)", l, i, len(sub.GlobalIDs))
		}
	}
	return nil
}

// ComponentLinks returns the link table of the epoch subs (all its parts,
// in worker order), building the parts in parallel: what a Deployment
// builds once per epoch, on its first CC job, and what the cluster
// coordinator ships each worker, its part's share, for RunWorker.
func ComponentLinks(subs []*Subgraph) []*Links {
	out := make([]*Links, len(subs))
	RunParts(runtime.GOMAXPROCS(0), len(subs), func(p int) { out[p] = buildLinks(subs, p) })
	return out
}

// buildLinks walks subs[i]'s replica peer entries in ascending local id,
// hence ascending global id, so the first entry to reach a (q, A, B) is its
// link. An entry whose vertex q does not hold, which no correct build has,
// links nothing.
func buildLinks(subs []*Subgraph, i int) *Links {
	sub := subs[i]
	roots, seen := make([][]int32, len(subs)), make([]map[uint64]struct{}, len(subs))
	for q, s := range subs {
		roots[q], seen[q] = s.ComponentRoots(), make(map[uint64]struct{})
	}
	t := &Links{}
	for _, l := range sub.Routing().Replicated {
		link := false
		for _, q := range sub.PeersOf(l) {
			if lq, held := subs[q].LocalOf(sub.GlobalIDs[l]); held {
				key := uint64(roots[i][l])<<32 | uint64(roots[q][lq])
				if _, dup := seen[q][key]; !dup {
					seen[q][key], link = struct{}{}, true
				}
			}
		}
		if link {
			t.Locals = append(t.Locals, l)
		}
	}
	return t
}

// LinkVertices returns this worker's share of the epoch's component links
// (Links.Locals). A part with a replicated vertex and no link table fails
// the run and gets nil.
func (e Env) LinkVertices() []int32 {
	if t := e.links(); t != nil {
		return t.Locals
	}
	if len(e.sub.Routing().Replicated) > 0 {
		e.Fail(errors.New("bsp: a replicated component to send, and no component links to send it along"))
	}
	return nil
}

// SendMarked empties marked, a bit set over local ids, and sends vals[l]
// of every marked replicated vertex l to each of its replica peers, in
// ascending local id; marks on unreplicated vertices are dropped. It
// returns nil when no replicated vertex was marked.
func (e Env) SendMarked(marked []uint64, vals []float64) []*transport.MessageBatch {
	var out []*transport.MessageBatch
	mask := e.sub.Routing().Mask
	for i, word := range marked {
		if word == 0 {
			continue
		}
		marked[i], word = 0, word&mask[i]
		if word != 0 && out == nil {
			out = make([]*transport.MessageBatch, e.sub.NumWorkers)
		}
		for ; word != 0; word &= word - 1 {
			l := int32(i<<6 | bits.TrailingZeros64(word))
			gid, v := e.sub.GlobalIDs[l], vals[l]
			for _, peer := range e.sub.PeersOf(l) {
				e.sendScalar(out, peer, gid, v)
			}
		}
	}
	return out
}

// ReceiveLocals returns the local id of every inbox row of a sparse step,
// in inbox order, in a slice reused across supersteps. Senders address a
// vertex's replica peers only, so a row for a vertex this worker does not
// hold, or holds but does not replicate, fails the run; ok is false then.
func (e Env) ReceiveLocals(in *transport.MessageBatch) (locals []int32, ok bool) {
	locals, mask := slices.Grow((*e.locals)[:0], len(in.IDs))[:len(in.IDs)], e.sub.Routing().Mask
	*e.locals = locals
	for i, gid := range in.IDs {
		l, held := e.sub.LocalOf(gid)
		if !held || mask[l>>6]&(1<<(l&63)) == 0 {
			what := "does not hold"
			if held {
				what = "holds but does not replicate"
			}
			e.Fail(fmt.Errorf("bsp: inbox row %d is vertex %d, which this worker %s", i, gid, what))
			return nil, false
		}
		locals[i] = l
	}
	return locals, true
}

// sendScalar appends the row (id, v) to out[dst], drawing a pooled batch
// on first use.
func (e Env) sendScalar(out []*transport.MessageBatch, dst int32, id graph.VertexID, v float64) {
	if out[dst] == nil {
		out[dst] = e.NewBatch()
	}
	out[dst].AppendScalar(id, v)
}
