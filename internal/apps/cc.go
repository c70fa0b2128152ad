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
// PageRank and Aggregate share one worker, gatherApply (gather.go):
// PowerGraph's master/mirror gather–apply pair, written once, with each
// program a small rule that refills the gather partials and updates the
// owned rows.
//
// Messages are columnar batches (transport.MessageBatch) of the run's
// bsp.Config.ValueWidth, and the apps only mark and fold: bsp.Env addresses
// the replica rows by the routing plan and checks what arrives. SSSP marks
// changed vertices for Env.SendMarked, CC the roots of changed local
// components for Env.SendLinked, and both fold column 0 of the rows
// Env.ReceiveLocals maps to local ids; gatherApply moves whole rows (a
// rank in column 0, a feature vector) with Env.SendRows and Env.ReceiveRows.
package apps

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"ebv/internal/bsp"
	"ebv/internal/graph"
	"ebv/internal/transport"
)

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
// order, Slota et al., IPDPS 2014). Step 0 sends nothing: each worker parks
// every replicated label and votes (least replicated label, busy) through
// bsp.Env.Reduce. Later, labels that are the pivot, the vote's minimum, are
// sent, other changes park, and a worker that sent or parked any votes
// (pivot, whether it sent). Once a vote reads idle, parked labels go out and
// Hash-Min resumes. A label is sent along the epoch's component links
// (bsp.Links): one row per local component a peer's component shares a
// vertex with, not one per replica pair, since every replicated vertex of a
// component carries its label. A component spanning parts thus sends the
// pivot once along each of its links: on a connected graph, one row per
// link. All state is kept per local component, at its root: a step examines
// only the components whose label dropped since they were last examined,
// plus the parked ones at step 1 and at the switch.
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
		env:     env,
		workers: sub.NumWorkers,
		root:    sub.ComponentRoots(),
		label:   make([]float64, n),
		sent:    make([]float64, n),
		pending: make([]uint64, (n+63)/64),
		parked:  make([]uint64, (n+63)/64),
	}
	// The local subgraph is collapsed once per subgraph, not per job. Each
	// root is its component's smallest local id, so its own global id is the
	// component's minimum: the starting label. Only root entries are read.
	// No label equals NaN, so none counts as sent before it is.
	for l, gid := range sub.GlobalIDs {
		w.label[l], w.sent[l] = float64(gid), math.NaN()
	}
	// Step 0 examines every component with a replicated vertex.
	for _, l := range sub.Routing().Replicated {
		mark(w.pending, w.root[l])
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
	env     bsp.Env
	workers int
	root    []int32 // local vertex → its local component's root (shared, read-only)
	// label, sent and the two bit sets are read and written at component
	// roots only: label is the component's label, sent the one it last sent.
	label, sent []float64
	// pending holds the roots of replicated components whose label dropped
	// since they were last examined, parked those examined and held back by
	// the flood. A replicated component in neither has label == sent. Once
	// examined, pending marks the labels the step sends.
	pending, parked []uint64
}

// mark sets bit r of a bit set.
func mark(set []uint64, r int32) { set[r>>6] |= 1 << (r & 63) }

// Superstep implements bsp.WorkerProgram.
func (w *ccWorker) Superstep(step int, in *transport.MessageBatch) (out []*transport.MessageBatch, active bool) {
	locals, ok := w.env.ReceiveLocals(in)
	if !ok {
		return nil, false
	}
	for i, local := range locals {
		if r, v := w.root[local], in.Scalar(i); v < w.label[r] {
			w.label[r] = v
			mark(w.pending, r)
		}
	}
	// The vote: busy, the flood goes on; idle, the switch; none, Hash-Min.
	// Step 0 floods no pivot yet, so every component's label parks.
	pivot, busy, voted := w.env.Reduced()
	if step == 0 {
		pivot, busy = math.NaN(), true
	}
	if step > 0 && !anySet(w.pending) && !(voted && anySet(w.parked)) {
		return nil, false
	}
	smallest, forwarded := math.Inf(1), false
	// Examine pending, in ascending root, plus parked at step 1 (step 0
	// parked every label before the pivot was known) and once the flood is
	// over.
	release := !busy || step == 1
	for i, word := range w.pending {
		if release {
			word |= w.parked[i]
		}
		w.pending[i], w.parked[i] = 0, w.parked[i]&^word
		for ; word != 0; word &= word - 1 {
			r := int32(i<<6 | bits.TrailingZeros64(word))
			switch val := w.label[r]; {
			case val == w.sent[r]:
			case busy && val != pivot:
				mark(w.parked, r)
				smallest = min(smallest, val)
			default:
				w.sent[r], forwarded = val, true
				mark(w.pending, r)
			}
		}
	}
	out = w.env.SendLinked(w.pending, w.sent)
	switch {
	case step == 0 && w.workers > 1: // a lone worker has nothing to sync
		w.env.Reduce(smallest, anySet(w.parked)) // every replicated label parked
	case busy && (forwarded || anySet(w.parked)):
		w.env.Reduce(pivot, forwarded)
	}
	return out, false
}

// anySet reports whether a bit set has any bit set.
func anySet(set []uint64) bool {
	return slices.ContainsFunc(set, func(word uint64) bool { return word != 0 })
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
// function of the (immutable) local edges — and sent and the two sets need
// none either: at a superstep boundary with no vote (Hash-Min), a
// replicated component's sent is its label; at one with a vote past step 1
// (flood or switch), only pivot labels went out and every other replicated
// component is parked; before step 1 nothing went out and every one is
// parked.
func (w *ccWorker) SnapshotState() *graph.ValueMatrix {
	return w.labels(graph.NewValueMatrix(len(w.root), 1))
}

// RestoreState implements bsp.Resumable: fold the snapshot labels into the
// components' roots, then rebuild sent and the parked set by SnapshotState's
// rule from the phase the restored vote shows, over the replicated
// components a new worker's pending set holds for step 0.
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
	pivot, _, voted := w.env.Reduced()
	for i, word := range w.pending {
		for w.pending[i] = 0; word != 0; word &= word - 1 {
			r := int32(i<<6 | bits.TrailingZeros64(word))
			if val := w.label[r]; !voted || step > 1 && val == pivot {
				w.sent[r] = val
			} else {
				mark(w.parked, r)
			}
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
