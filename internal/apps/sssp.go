package apps

import (
	"fmt"
	"math"
	"math/bits"

	"ebv/internal/bsp"
	"ebv/internal/graph"
	"ebv/internal/transport"
)

// SSSP computes single-source shortest paths over directed edges, with
// unit weights by default (the paper does not specify weights; unit
// weights make the sequential oracle exact and keep the communication
// pattern identical to the weighted case) or the subgraph's edge weights.
//
// Subgraph-centric formulation: the computation stage relaxes distances to
// a local fixpoint (SPFA over the local out-adjacency — a whole sequential
// algorithm per superstep, per §IV-B); the communication stage ships
// improved distances of replicated vertices to their peers. Weights are
// non-negative (the build rejects others), so the fixpoint is the same
// float distance a Dijkstra would settle.
//
// With unit weights the local fixpoint is bounded by a horizon, Δ-stepping
// (Meyer & Sanders, J. Algorithms 2003) across supersteps: superstep s
// relaxes only vertices at distance <= (s+1)·Δ and parks the rest, so a
// part does not flood its vertices with distances a peer's shorter path is
// about to undercut. Δ is read off the partition, not set: horizonStep.
type SSSP struct {
	// Source is the global source vertex.
	Source graph.VertexID
	// Weighted relaxes over the edge weights attached with
	// bsp.BuildSubgraphsWeightedParallel (absent weights are unit) instead
	// of unit weights; the program is then named WSSSP.
	Weighted bool
}

var _ bsp.Program = (*SSSP)(nil)

// Name implements bsp.Program.
func (s *SSSP) Name() string {
	if s.Weighted {
		return "WSSSP"
	}
	return "SSSP"
}

// The horizon grows by Δ = horizonBase + horizonDepth·d̄ hops per
// superstep, where d̄ is the part's mean boundary depth (bsp.Depth). A
// fragmented part (EBV's, d̄ < 1) is nearly all boundary, so a peer can
// undercut any of its distances within a few hops and it waits for them;
// a contiguous part (METIS's, d̄ 4–12 on a road graph) has interiors only
// its own relax reaches, so it runs far ahead. A fixed Δ fits only one of
// the two.
const (
	horizonBase  = 2
	horizonDepth = 3
)

// horizonStep returns sub's Δ: +Inf, an unbounded relax, when no vertex of
// the part is replicated (nothing can undercut it). It is one integer
// numerator over one division, so no build can fuse a multiply-add into it
// and round it differently.
func horizonStep(sub *bsp.Subgraph) float64 {
	d := sub.BoundaryDepth()
	if d.Reached == 0 {
		return math.Inf(1)
	}
	return float64(horizonBase*d.Reached+horizonDepth*d.Sum) / float64(d.Reached)
}

// NewWorker implements bsp.Program.
func (s *SSSP) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	n := sub.NumLocalVertices()
	w := &ssspWorker{
		sub:      sub,
		out:      sub.Out(),
		env:      env,
		source:   s.Source,
		weighted: s.Weighted,
		dist:     make([]float64, n),
		status:   make([]uint8, n),
		delta:    math.Inf(1),
		improved: newImprovedSet(sub),
	}
	// Weighted distances have no hop unit to size a horizon in.
	if !s.Weighted {
		w.delta = horizonStep(sub)
	}
	for i := range w.dist {
		w.dist[i] = math.Inf(1)
	}
	if local, ok := sub.LocalOf(s.Source); ok {
		w.dist[local] = 0
		w.horizon = w.bound(0)
		w.push(local)
	}
	return w
}

type ssspWorker struct {
	sub      *bsp.Subgraph
	out      *graph.CSR // sub.Out(), the relax's adjacency
	env      bsp.Env
	source   graph.VertexID
	weighted bool
	dist     []float64
	// delta is the horizon's growth per superstep (+Inf: unbounded) and
	// horizon the current superstep's bound(step).
	delta, horizon float64
	// queue[head:] is the SPFA FIFO; relax leaves it empty with the
	// backing array kept for the next superstep. parked holds the vertices
	// lowered beyond the horizon, plus stale entries of ones queued since;
	// nparked counts the live ones.
	queue   []int32
	head    int
	parked  []int32
	nparked int
	// status[v] says whether v's out-edges await relaxing at dist[v].
	status   []uint8
	improved improvedSet
}

// Vertex status: idle vertices are relaxed at their distance (or
// unreached), queued ones wait in queue, parked ones in parked.
const (
	statusIdle uint8 = iota
	statusQueued
	statusParked
)

// bound is superstep step's horizon, (step+1)·Δ.
func (w *ssspWorker) bound(step int) float64 {
	return float64(step+1) * w.delta
}

// improvedSet marks the replicated local vertices whose distance improved
// since the last send: a bitset over local ids, so marking is one OR masked
// by the routing plan's replicated bits and send sweeps ascending local ids
// — the emission order.
type improvedSet struct {
	bits []uint64
	plan *bsp.Routing
}

func newImprovedSet(sub *bsp.Subgraph) improvedSet {
	plan := sub.Routing()
	return improvedSet{bits: make([]uint64, len(plan.Mask)), plan: plan}
}

func (s improvedSet) mark(v int32) {
	s.bits[v>>6] |= s.plan.Mask[v>>6] & (1 << (v & 63))
}

// send empties the set, shipping dist[v] of every marked vertex to its
// replica peers; it returns nil when nothing was marked.
func (s improvedSet) send(sub *bsp.Subgraph, env bsp.Env, dist []float64) []*transport.MessageBatch {
	var out []*transport.MessageBatch
	for i, word := range s.bits {
		if word == 0 {
			continue
		}
		s.bits[i] = 0
		if out == nil {
			out = make([]*transport.MessageBatch, sub.NumWorkers)
		}
		for ; word != 0; word &= word - 1 {
			v := int32(i<<6 + bits.TrailingZeros64(word))
			gid, val := sub.GlobalIDs[v], dist[v]
			for _, peer := range sub.PeersOf(v) {
				env.SendScalar(out, peer, gid, val)
			}
		}
	}
	return out
}

// push schedules v, whose distance just dropped, for relaxing: queued
// within the horizon, parked beyond it. Distances only drop and horizons
// only grow, so a vertex once queued is never parked again.
func (w *ssspWorker) push(v int32) {
	switch {
	case w.status[v] == statusQueued:
	case w.dist[v] <= w.horizon:
		if w.status[v] == statusParked {
			w.nparked-- // its parked entry goes stale
		}
		w.status[v] = statusQueued
		w.queue = append(w.queue, v)
	case w.status[v] == statusIdle:
		w.status[v] = statusParked
		w.parked = append(w.parked, v)
		w.nparked++
	}
}

// unpark queues the parked vertices the horizon has reached and drops the
// stale entries.
func (w *ssspWorker) unpark() {
	kept := w.parked[:0]
	for _, v := range w.parked {
		switch {
		case w.status[v] != statusParked:
		case w.dist[v] <= w.horizon:
			w.status[v] = statusQueued
			w.queue = append(w.queue, v)
			w.nparked--
		default:
			kept = append(kept, v)
		}
	}
	w.parked = kept
}

// relax runs SPFA over local out-edges until the local fixpoint within the
// horizon.
func (w *ssspWorker) relax() {
	for w.head < len(w.queue) {
		u := graph.VertexID(w.queue[w.head])
		w.head++
		w.status[u] = statusIdle
		du := w.dist[u]
		if !w.weighted {
			for _, v := range w.out.Neighbors(u) {
				if nd := du + 1; nd < w.dist[v] {
					w.lower(int32(v), nd)
				}
			}
			continue
		}
		edgeIdx := w.out.EdgeIndices(u)
		for j, v := range w.out.Neighbors(u) {
			if nd := du + w.sub.EdgeWeight(edgeIdx[j]); nd < w.dist[v] {
				w.lower(int32(v), nd)
			}
		}
	}
	w.queue, w.head = w.queue[:0], 0
}

// lower installs the improved distance d of v and queues v.
func (w *ssspWorker) lower(v int32, d float64) {
	w.dist[v] = d
	w.improved.mark(v)
	w.push(v)
}

// Superstep implements bsp.WorkerProgram. A worker with parked vertices
// stays active: a later horizon must reach them.
func (w *ssspWorker) Superstep(step int, in *transport.MessageBatch) (out []*transport.MessageBatch, active bool) {
	w.horizon = w.bound(step)
	for i, gid := range in.IDs {
		local, ok := w.sub.LocalOf(gid)
		if !ok {
			continue
		}
		if v := in.Scalar(i); v < w.dist[local] {
			w.dist[local] = v
			w.push(local)
		}
	}
	if step == 0 {
		// If the source is a cut vertex, its zero distance must reach the
		// peer replicas too.
		if local, ok := w.sub.LocalOf(w.source); ok {
			w.improved.mark(local)
		}
	}
	w.unpark()
	w.relax()
	return w.improved.send(w.sub, w.env, w.dist), w.nparked > 0
}

// Values implements bsp.WorkerProgram.
func (w *ssspWorker) Values() *graph.ValueMatrix {
	return scalarValues(w.env, w.dist)
}

var _ bsp.Resumable = (*ssspWorker)(nil)

// SnapshotState implements bsp.Resumable: the distance vector (width 1).
// At every superstep boundary the SPFA queue is drained and improved is
// empty (relax runs to the local fixpoint and the send clears improved),
// and the parked set is a function of the distances: after step s−1 it is
// {v : s·Δ < dist[v] < +Inf} (every vertex within the horizon was relaxed
// at its distance, and none beyond it ever was, since a distance only
// drops). So distances are the worker's entire state.
func (w *ssspWorker) SnapshotState() *graph.ValueMatrix {
	m := graph.NewValueMatrix(len(w.dist), 1)
	for l, d := range w.dist {
		m.SetScalar(l, d)
	}
	return m
}

// RestoreState implements bsp.Resumable. The queue NewWorker seeded with
// the source is cleared — at step >= 1 the original timeline had already
// relaxed and announced it — and one scan re-parks what step−1's horizon
// left beyond it.
func (w *ssspWorker) RestoreState(step int, state *graph.ValueMatrix) error {
	if state.Width != 1 {
		return fmt.Errorf("apps: SSSP snapshot width %d, want 1", state.Width)
	}
	if err := state.CheckShape(len(w.dist)); err != nil {
		return err
	}
	w.queue, w.head = w.queue[:0], 0
	w.parked, w.nparked = w.parked[:0], 0
	clear(w.status)
	clear(w.improved.bits)
	w.horizon = w.bound(step - 1)
	for l := range w.dist {
		w.dist[l] = state.Scalar(l)
		if w.dist[l] > w.horizon && !math.IsInf(w.dist[l], 1) {
			w.push(int32(l))
		}
	}
	return nil
}
