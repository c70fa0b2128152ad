// Package apps implements the paper's three evaluation applications —
// Connected Components, PageRank and Single-Source Shortest Path — and
// GNN-style Aggregate as subgraph-centric BSP programs ("think like a
// graph"), plus sequential reference implementations used as correctness
// oracles by the tests. Each algorithm is one program type and a variant
// is a field: PageRank.Tol iterates to a fixed point, SSSP.Weighted reads
// edge weights, and PageRank warm-starts from a previous result.
//
// Each program follows the §IV-B model: the computation stage runs a full
// sequential algorithm over the local subgraph (not one vertex step), and
// the communication stage exchanges values only between replicas of cut
// vertices. This is what lets the subgraph-centric model omit messages a
// vertex-centric system would send across the network. Unit-weight SSSP's
// computation stage is bounded: it relaxes only up to a distance horizon
// that grows by a per-part step Δ each superstep, sized by how deep the
// part's vertices sit behind its replicated ones (see SSSP). CC resolves
// the graph of linked local components in one place, at worker 0, in at
// most three supersteps (see CC).
//
// PageRank and Aggregate share one worker, gatherApply (gather.go):
// PowerGraph's master/mirror gather–apply pair, written once, with each
// program a small rule that refills the gather partials and updates the
// owned rows.
//
// Messages are columnar batches (transport.MessageBatch) of the run's
// bsp.Config.ValueWidth. SSSP marks changed vertices for Env.SendMarked
// and folds column 0 of the rows Env.ReceiveLocals maps to local ids, and
// bsp.Env checks what arrives against the routing plan; gatherApply moves
// whole rows (a rank in column 0, a feature vector) with Env.SendRows and
// Env.ReceiveRows. CC addresses its rows by the epoch's link vertices
// (Env.LinkVertices) and checks its own inbox.
package apps

import (
	"fmt"
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
// single super-vertex labelled with its root's global id, the component's
// minimum. Replica sync is Blogel's block-level CC (Yan et al., VLDB 2014)
// over the epoch's component links (bsp.Links), in three fixed supersteps:
//
//   - Step 0: every worker sends worker 0, itself included, one row per
//     link vertex g: (g, the label of g's local component).
//   - Step 1: worker 0 sorts the rows by (g, label) and unions the labels
//     that share a g, the smaller label winning; then it sends every
//     worker, itself included, one row (L, F) per label L whose set's
//     smallest label F is below L, in ascending L.
//   - Step 2: a worker that holds L as the root of a linked local component
//     lowers its label to F. A row for a vertex it does not hold, or holds
//     replicated but not as a root, names another worker's component and is
//     skipped; any other row fails the run.
//
// A run takes 3 supersteps when some label changes, 2 when links exist but
// none changes, and 1 when no vertex is replicated.
type CC struct{}

var _ bsp.Program = (*CC)(nil)

// Name implements bsp.Program.
func (c *CC) Name() string { return "CC" }

// NewWorker implements bsp.Program.
func (c *CC) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	w := &ccWorker{env: env, sub: sub, root: sub.ComponentRoots(), label: make([]float64, sub.NumLocalVertices())}
	// The local subgraph is collapsed once per subgraph, not per job. Each
	// root is its component's smallest local id, so its own global id is the
	// component's minimum: the starting label. Only root entries are read.
	for l, gid := range sub.GlobalIDs {
		w.label[l] = float64(gid)
	}
	return w
}

type ccWorker struct {
	env   bsp.Env
	sub   *bsp.Subgraph
	root  []int32   // local vertex → its local component's root (shared, read-only)
	label []float64 // the component labels, read and written at roots only
}

// Superstep implements bsp.WorkerProgram.
func (w *ccWorker) Superstep(step int, in *transport.MessageBatch) (out []*transport.MessageBatch, active bool) {
	switch {
	case step == 0:
		out = w.sendLinks()
	case step == 1 && w.sub.Part == 0:
		out = w.union(in)
	case step == 2:
		w.relabel(in)
	case in.Len() > 0:
		w.env.Fail(fmt.Errorf("apps: CC got %d rows at a step that expects none", in.Len()))
	}
	return out, false
}

// sendLinks returns step 0's rows for worker 0: (g, label of g's component)
// per link vertex g.
func (w *ccWorker) sendLinks() []*transport.MessageBatch {
	links := w.env.LinkVertices()
	if len(links) == 0 {
		return nil
	}
	out := make([]*transport.MessageBatch, 1)
	out[0] = w.env.NewBatch()
	for _, l := range links {
		out[0].AppendScalar(w.sub.GlobalIDs[l], w.label[w.root[l]])
	}
	return out
}

// union resolves step 0's rows at worker 0 and returns the relabelling
// broadcast. Links are symmetric, so every link vertex arrives from at least
// two workers; a lone one fails the run, as it could not join anything.
func (w *ccWorker) union(in *transport.MessageBatch) []*transport.MessageBatch {
	keys, labels := make([]uint64, in.Len()), make([]uint32, in.Len())
	for i, g := range in.IDs {
		labels[i] = uint32(in.Scalar(i))
		keys[i] = uint64(g)<<32 | uint64(labels[i])
	}
	slices.Sort(keys)
	slices.Sort(labels)
	labels = slices.Compact(labels)
	// A union-find over the label indices whose links always point at the
	// smaller index, so each set's root is its smallest label and one
	// ascending pass flattens it.
	parent := make([]int32, len(labels))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(key uint64) int32 {
		i, _ := slices.BinarySearch(labels, uint32(key))
		x := int32(i)
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < len(keys); {
		j := i + 1
		for ; j < len(keys) && keys[j]>>32 == keys[i]>>32; j++ {
			a, b := find(keys[i]), find(keys[j])
			parent[max(a, b)] = min(a, b)
		}
		if j == i+1 {
			w.env.Fail(fmt.Errorf("apps: CC link vertex %d arrived from one worker only", keys[i]>>32))
			return nil
		}
		i = j
	}
	out := make([]*transport.MessageBatch, w.sub.NumWorkers)
	for q := range out {
		out[q] = w.env.NewBatch()
	}
	for i, p := range parent {
		if parent[i] = parent[p]; parent[i] != int32(i) {
			for _, b := range out {
				b.AppendScalar(graph.VertexID(labels[i]), float64(labels[parent[i]]))
			}
		}
	}
	return out
}

// relabel applies worker 0's broadcast. The linked roots are read off the
// epoch's link table, so a run resumed at step 2 finds them too.
func (w *ccWorker) relabel(in *transport.MessageBatch) {
	linked := make([]bool, len(w.root))
	for _, l := range w.env.LinkVertices() {
		linked[w.root[l]] = true
	}
	mask := w.sub.Routing().Mask
	for i, gid := range in.IDs {
		l, held := w.sub.LocalOf(gid)
		if !held {
			continue // another worker's component's label
		}
		switch replicated := mask[l>>6]&(1<<(l&63)) != 0; {
		case w.root[l] == l && linked[l]:
			w.label[l] = min(w.label[l], in.Scalar(i))
		case w.root[l] != l && replicated: // likewise
		default: // held unreplicated and not a root, or an unlinked root
			w.env.Fail(fmt.Errorf("apps: CC row %d relabels vertex %d, which labels no linked component here", i, gid))
			return
		}
	}
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
// function of the (immutable) local edges — and each step depends only on
// the step number, the labels and the checkpointed inbox.
func (w *ccWorker) SnapshotState() *graph.ValueMatrix {
	return w.labels(graph.NewValueMatrix(len(w.root), 1))
}

// RestoreState implements bsp.Resumable: fold the snapshot labels into the
// components' roots.
func (w *ccWorker) RestoreState(_ int, state *graph.ValueMatrix) error {
	if state.Width != 1 {
		return fmt.Errorf("apps: CC snapshot width %d, want 1", state.Width)
	}
	if err := state.CheckShape(len(w.root)); err != nil {
		return err
	}
	for l, r := range w.root {
		w.label[r] = min(w.label[r], state.Scalar(l))
	}
	return nil
}
