// Package apps implements the paper's three evaluation applications —
// Connected Components, PageRank and Single-Source Shortest Path — as
// subgraph-centric BSP programs ("think like a graph"), plus sequential
// reference implementations used as correctness oracles by the tests.
//
// Each program follows the §IV-B model: the computation stage runs a full
// sequential algorithm over the local subgraph (not one vertex step), and
// the communication stage exchanges values only between replicas of cut
// vertices. This is what lets the subgraph-centric model omit messages a
// vertex-centric system would send across the network.
//
// Messages travel as columnar batches (transport.MessageBatch) whose value
// width is the run's bsp.Config.ValueWidth. The scalar applications here
// use the width-1 accessors (AppendScalar/Scalar) and remain correct at
// any width (extra columns stay zero); Aggregate is fully width-aware and
// moves whole feature-vector rows.
package apps

import (
	"fmt"

	"ebv/internal/bsp"
	"ebv/internal/graph"
	"ebv/internal/transport"
)

// outBatch returns out[dst], drawing a pooled batch from env on first use.
func outBatch(out []*transport.MessageBatch, dst int32, env bsp.Env) *transport.MessageBatch {
	if out[dst] == nil {
		out[dst] = env.NewBatch()
	}
	return out[dst]
}

// scalarValues exports a scalar state slice as the run-width value matrix
// (column 0 = the value) — the Values() of every scalar program here.
func scalarValues(env bsp.Env, state []float64) *graph.ValueMatrix {
	vals := env.NewValues(len(state))
	for l, v := range state {
		vals.SetScalar(l, v)
	}
	return vals
}

// CC computes connected components (treating edges as undirected, as the
// paper's CC does): every vertex ends with the minimum global vertex id of
// its component.
//
// Subgraph-centric formulation: each worker collapses its local subgraph
// with a disjoint-set union once, so a whole local component acts as a
// single super-vertex; supersteps only reconcile component labels across
// replicas.
type CC struct {
	// SendAll, when true, re-sends the labels of ALL replicated vertices
	// whenever any local component changed, instead of only the changed
	// ones. It exists for the replica-sync ablation bench.
	SendAll bool

	// Warm, when non-nil, seeds each component's label with the minimum
	// over the covered vertices' rows of this width-1 matrix (dense over
	// the global id space) in addition to the structural minimum — the
	// incremental-CC warm start (internal/live): a previous run's labels
	// are valid lower seeds when the graph only gained edges since, and
	// the run converges in fewer rounds to the same fixed point.
	Warm *graph.ValueMatrix
	// WarmCovered restricts warm seeding to rows the producing run
	// covered (uncovered rows are zero, which would falsely seed label
	// 0). nil applies every row.
	WarmCovered []bool
}

var _ bsp.Program = (*CC)(nil)
var _ bsp.CombinerProvider = (*CC)(nil)

// Name implements bsp.Program.
func (c *CC) Name() string { return "CC" }

// MessageCombiner implements bsp.CombinerProvider: labels fold with min.
func (c *CC) MessageCombiner() transport.Combiner { return transport.MinCombiner{} }

// NewWorker implements bsp.Program.
func (c *CC) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	n := sub.NumLocalVertices()
	w := &ccWorker{
		sub:     sub,
		env:     env,
		sendAll: c.SendAll,
		root:    make([]int32, n),
		label:   make([]float64, n),
	}
	// Collapse the local subgraph: union endpoints of every local edge,
	// then flatten — the components never change again, so every later
	// root lookup is one load.
	d := newDSU(n)
	for _, e := range sub.Edges {
		d.union(int32(e.Src), int32(e.Dst))
	}
	for l := range w.root {
		w.root[l] = d.find(int32(l))
	}
	// Root labels start as the minimum covered global id of the component.
	for l := range w.label {
		w.label[l] = float64(sub.GlobalIDs[l])
	}
	for l, r := range w.root {
		if w.label[r] > float64(sub.GlobalIDs[l]) {
			w.label[r] = float64(sub.GlobalIDs[l])
		}
	}
	// Warm start: fold the previous run's labels in exactly as
	// RestoreState folds a checkpoint's — min into the component root,
	// covered rows only.
	if c.Warm != nil {
		for l, r := range w.root {
			gid := int(sub.GlobalIDs[l])
			if gid >= c.Warm.Rows() {
				continue
			}
			if c.WarmCovered != nil && (gid >= len(c.WarmCovered) || !c.WarmCovered[gid]) {
				continue
			}
			if v := c.Warm.Scalar(gid); v < w.label[r] {
				w.label[r] = v
			}
		}
	}
	w.replicated = sub.ReplicatedVertices()
	return w
}

type ccWorker struct {
	sub        *bsp.Subgraph
	env        bsp.Env
	sendAll    bool
	root       []int32   // local vertex → its local component's root
	label      []float64 // valid at component roots
	replicated []int32
	// lastSent[i] is the label last broadcast for replicated vertex
	// replicated[i]; used to suppress duplicate sends.
	lastSent []float64
}

// Superstep implements bsp.WorkerProgram.
func (w *ccWorker) Superstep(step int, in *transport.MessageBatch) (out []*transport.MessageBatch, active bool) {
	changed := false
	for i, gid := range in.IDs {
		local, ok := w.sub.LocalOf(gid)
		if !ok {
			continue // defensive: message for a vertex we do not cover
		}
		if r, v := w.root[local], in.Scalar(i); v < w.label[r] {
			w.label[r] = v
			changed = true
		}
	}
	if step == 0 {
		w.lastSent = make([]float64, len(w.replicated))
		for i := range w.lastSent {
			w.lastSent[i] = -1 // force initial broadcast
		}
		changed = true
	}
	if !changed {
		return nil, false
	}
	out = make([]*transport.MessageBatch, w.sub.NumWorkers)
	for i, local := range w.replicated {
		val := w.label[w.root[local]]
		if !w.sendAll && val == w.lastSent[i] {
			continue
		}
		w.lastSent[i] = val
		gid := w.sub.GlobalIDs[local]
		for _, peer := range w.sub.ReplicaPeers[local] {
			outBatch(out, peer, w.env).AppendScalar(gid, val)
		}
	}
	return out, false
}

// Values implements bsp.WorkerProgram.
func (w *ccWorker) Values() *graph.ValueMatrix {
	vals := w.env.NewValues(len(w.root))
	for l, r := range w.root {
		vals.SetScalar(l, w.label[r])
	}
	return vals
}

var _ bsp.Resumable = (*ccWorker)(nil)

// SnapshotState implements bsp.Resumable: every local vertex's resolved
// component label (width 1). The root table needs no snapshot — NewWorker
// rebuilds it from the (immutable) local edges — and lastSent needs none
// either, because at every superstep boundary lastSent[i] equals the
// resolved label of replicated[i]: a broadcast updates both together, and
// a suppressed send means the label did not move.
func (w *ccWorker) SnapshotState() *graph.ValueMatrix {
	m := graph.NewValueMatrix(len(w.root), 1)
	for l, r := range w.root {
		m.SetScalar(l, w.label[r])
	}
	return m
}

// RestoreState implements bsp.Resumable: fold the snapshot labels into the
// freshly rebuilt components' roots and reconstruct lastSent from them (valid by
// the invariant above; step >= 1, so the step-0 forced broadcast already
// happened in the original timeline and must not be replayed).
func (w *ccWorker) RestoreState(step int, state *graph.ValueMatrix) error {
	if state.Width != 1 {
		return fmt.Errorf("apps: CC snapshot width %d, want 1", state.Width)
	}
	if err := state.CheckShape(len(w.root)); err != nil {
		return err
	}
	for l, r := range w.root {
		if v := state.Scalar(l); v < w.label[r] {
			w.label[r] = v
		}
	}
	w.lastSent = make([]float64, len(w.replicated))
	for i, local := range w.replicated {
		w.lastSent[i] = w.label[w.root[local]]
	}
	return nil
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
