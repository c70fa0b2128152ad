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
// part's vertices sit behind its replicated ones (see SSSP). CC floods its
// smallest replicated label first and parks other changes (see CC).
//
// Messages travel as columnar batches (transport.MessageBatch) whose value
// width is the run's bsp.Config.ValueWidth. The scalar applications here
// use the width-1 accessors (AppendScalar/Scalar) and remain correct at
// any width (extra columns stay zero); Aggregate is fully width-aware and
// moves whole feature-vector rows.
package apps

import (
	"fmt"
	"math"

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
//
// Replica sync floods one pivot before send-on-change Hash-Min, which alone
// creeps on ids that follow locality (a lattice numbered row by row): every
// part-hop toward the smallest id brings a smaller label and one more send.
// The pivot, the smallest replicated label, is final for its component, as
// every local piece of a component spanning parts is replicated (Multistep's
// order, Slota et al., IPDPS 2014). Step 0 sends every replicated label and
// votes (least replicated label, busy) through bsp.Env.Reduce; later, labels
// that became the pivot, the vote's minimum, are sent, other changes park,
// and a worker that sent or parked any votes (pivot, whether it sent). Once
// a vote reads idle, parked changes go out and Hash-Min resumes.
type CC struct {
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

// Name implements bsp.Program.
func (c *CC) Name() string { return "CC" }

// NewWorker implements bsp.Program.
func (c *CC) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	n := sub.NumLocalVertices()
	w := &ccWorker{
		sub:   sub,
		env:   env,
		plan:  sub.Routing(),
		root:  sub.ComponentRoots(),
		label: make([]float64, n),
		sent:  make([]float64, n),
	}
	// The local subgraph is collapsed once per subgraph, not per job. Each
	// root is its component's smallest local id, so its own global id is the
	// component's minimum: the starting label. Only root entries are read.
	// No label equals NaN, so step 0 forwards every replicated one.
	for l, gid := range sub.GlobalIDs {
		w.label[l], w.sent[l] = float64(gid), math.NaN()
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
	sub    *bsp.Subgraph
	env    bsp.Env
	plan   *bsp.Routing
	root   []int32   // local vertex → its local component's root (shared, read-only)
	label  []float64 // valid at component roots
	sent   []float64 // label last sent per replicated vertex; differs if parked
	parked bool      // the last scan of Replicated parked one (exact: RestoreState rebuilds it)
}

// Superstep implements bsp.WorkerProgram.
func (w *ccWorker) Superstep(step int, in *transport.MessageBatch) (out []*transport.MessageBatch, active bool) {
	changed := false
	for i, gid := range in.IDs {
		if local, ok := w.sub.LocalOf(gid); ok {
			if r, v := w.root[local], in.Scalar(i); v < w.label[r] {
				w.label[r], changed = v, true
			}
		}
	}
	// The vote: busy, the flood goes on; idle, the switch; none, Hash-Min.
	pivot, busy, voted := w.env.Reduced()
	if step > 0 && !changed && !(voted && w.parked) {
		return nil, false
	}
	out = make([]*transport.MessageBatch, w.sub.NumWorkers)
	smallest, forwarded := math.Inf(1), false
	if changed || !busy {
		w.parked = false
		for _, l := range w.plan.Replicated {
			switch val := w.label[w.root[l]]; {
			case val == w.sent[l]:
			case busy && val != pivot:
				w.parked = true
			default:
				w.sent[l], forwarded = val, true
				smallest = min(smallest, val)
				gid := w.sub.GlobalIDs[l]
				for _, peer := range w.sub.PeersOf(l) {
					w.env.SendScalar(out, peer, gid, val)
				}
			}
		}
	}
	switch {
	case step == 0 && w.sub.NumWorkers > 1: // a lone worker has nothing to sync
		w.env.Reduce(smallest, forwarded)
	case busy && (forwarded || w.parked):
		w.env.Reduce(pivot, forwarded)
	}
	return out, false
}

// Values implements bsp.WorkerProgram.
func (w *ccWorker) Values() *graph.ValueMatrix { return w.labels(w.env.NewValues(len(w.root))) }

// labels fills column 0 of m with every local vertex's resolved label.
func (w *ccWorker) labels(m *graph.ValueMatrix) *graph.ValueMatrix {
	for l, r := range w.root {
		m.SetScalar(l, w.label[r])
	}
	return m
}

var _ bsp.Resumable = (*ccWorker)(nil)

// SnapshotState implements bsp.Resumable: every local vertex's resolved
// component label (width 1). The root table needs no snapshot — it is a
// function of the (immutable) local edges — and sent needs none either: at
// a superstep boundary past the switch step, sent[l] is l's label; before
// it, that label if it is the pivot and l's step-0 label otherwise.
func (w *ccWorker) SnapshotState() *graph.ValueMatrix {
	return w.labels(graph.NewValueMatrix(len(w.root), 1))
}

// RestoreState implements bsp.Resumable: record NewWorker's step-0 labels as
// sent, fold the snapshot labels into the components' roots (step >= 1: no
// step-0 broadcast replay), and complete sent by SnapshotState's invariant
// from the phase the restored vote shows.
func (w *ccWorker) RestoreState(step int, state *graph.ValueMatrix) error {
	if state.Width != 1 {
		return fmt.Errorf("apps: CC snapshot width %d, want 1", state.Width)
	}
	if err := state.CheckShape(len(w.root)); err != nil {
		return err
	}
	for _, l := range w.plan.Replicated {
		w.sent[l] = w.label[w.root[l]]
	}
	for l, r := range w.root {
		if v := state.Scalar(l); v < w.label[r] {
			w.label[r] = v
		}
	}
	pivot, _, voted := w.env.Reduced()
	for _, l := range w.plan.Replicated {
		if val := w.label[w.root[l]]; !voted || val == pivot {
			w.sent[l] = val
		} else if val != w.sent[l] {
			w.parked = true
		}
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
