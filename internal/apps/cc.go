// Package apps implements the paper's three evaluation applications —
// Connected Components, PageRank and Single-Source Shortest Path — and
// GNN-style Aggregate as subgraph-centric BSP programs ("think like a
// graph"), plus sequential reference implementations used as correctness
// oracles by the tests. Each algorithm is one program type and a variant
// is a field: PageRank.Tol iterates to a fixed point, SSSP.Weighted reads
// edge weights, and CC and PageRank warm-start from a previous result.
//
// Each program follows the §IV-B model: the computation stage runs a full
// sequential algorithm over the local subgraph (not one vertex step), and
// the communication stage exchanges values only between replicas of cut
// vertices. This is what lets the subgraph-centric model omit messages a
// vertex-centric system would send across the network. Unit-weight SSSP's
// computation stage is bounded: it relaxes only up to a distance horizon
// that grows by a per-part step Δ each superstep, sized by how deep the
// part's vertices sit behind its replicated ones (see SSSP).
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
	// incremental-CC warm start after live mutations: a previous run's
	// labels are valid lower seeds when the graph only gained edges since
	// (deletes can split components; check the live Stats.Deletes), and
	// the run converges in fewer rounds to the byte-identical fixed point.
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
		plan:    sub.Routing(),
		root:    sub.ComponentRoots(),
		label:   make([]float64, n),
		sent:    make([]float64, n),
	}
	// The local subgraph is collapsed once per subgraph, not per job. Each
	// root is its component's smallest local id, so its own global id is the
	// component's minimum: the starting label. Only root entries are read.
	for l, gid := range sub.GlobalIDs {
		w.label[l] = float64(gid)
	}
	// Warm start: fold the previous run's labels in exactly as
	// RestoreState folds a checkpoint's — min into the component root,
	// covered rows only.
	if c.Warm != nil {
		for l, r := range w.root {
			if v, ok := warmValue(c.Warm, c.WarmCovered, sub.GlobalIDs[l]); ok && v < w.label[r] {
				w.label[r] = v
			}
		}
	}
	return w
}

// warmValue returns vertex gid's row of a warm-start matrix, unless there
// is no matrix, it is too short, or the producing run did not cover gid.
func warmValue(warm *graph.ValueMatrix, covered []bool, gid graph.VertexID) (float64, bool) {
	v := int(gid)
	if warm == nil || v >= warm.Rows() || covered != nil && (v >= len(covered) || !covered[v]) {
		return 0, false
	}
	return warm.Scalar(v), true
}

type ccWorker struct {
	sub     *bsp.Subgraph
	env     bsp.Env
	sendAll bool
	plan    *bsp.Routing
	root    []int32   // local vertex → its local component's root (shared, read-only)
	label   []float64 // valid at component roots
	// sent[l] is the label last broadcast for replicated vertex l; used to
	// suppress duplicate sends.
	sent []float64
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
	if step > 0 && !changed {
		return nil, false
	}
	out = make([]*transport.MessageBatch, w.sub.NumWorkers)
	if step == 0 || w.sendAll {
		// Full broadcast: every boundary vertex to every peer sharing it.
		for _, l := range w.plan.Replicated {
			w.sent[l] = w.label[w.root[l]]
		}
		w.env.SendScalars(out, w.plan.Boundary, w.sent)
		return out, false
	}
	for _, l := range w.plan.Replicated {
		val := w.label[w.root[l]]
		if val == w.sent[l] {
			continue
		}
		w.sent[l] = val
		gid := w.sub.GlobalIDs[l]
		for _, peer := range w.sub.PeersOf(l) {
			w.env.SendScalar(out, peer, gid, val)
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
// component label (width 1). The root table needs no snapshot — it is a
// function of the (immutable) local edges — and sent needs none either,
// because at every superstep boundary sent[l] equals the resolved label of
// replicated vertex l: a broadcast updates both together, and a suppressed
// send means the label did not move.
func (w *ccWorker) SnapshotState() *graph.ValueMatrix {
	m := graph.NewValueMatrix(len(w.root), 1)
	for l, r := range w.root {
		m.SetScalar(l, w.label[r])
	}
	return m
}

// RestoreState implements bsp.Resumable: fold the snapshot labels into the
// components' roots and reconstruct sent from them (valid by
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
	for _, l := range w.plan.Replicated {
		w.sent[l] = w.label[w.root[l]]
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
