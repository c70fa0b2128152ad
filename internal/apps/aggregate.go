package apps

import (
	"fmt"

	"ebv/internal/bsp"
	"ebv/internal/graph"
	"ebv/internal/transport"
)

// Aggregate runs L rounds of mean neighborhood aggregation over in-edges:
//
//	h_{t+1}(v) = (h_t(v) + Σ_{(u,v)∈E} h_t(u)) / (1 + indeg(v))
//
// applied componentwise to a feature vector of the run's value width
// (bsp.Config.ValueWidth; width 1 is the scalar case). This is the
// message-passing kernel of GNN inference (a GraphSAGE-mean layer) — the
// workload the paper's §VII names as the next application of EBV ("we plan
// to apply EBV to distributed graph neural networks"). Its communication
// pattern is identical per layer to PageRank's gather/apply, so partition
// quality shows up the same way; the columnar message plane ships whole
// feature rows per replica instead of one message per component.
type Aggregate struct {
	// Layers is the number of aggregation rounds (default 2).
	Layers int
	// Feature fills vertex v's input feature row (len(feat) equals the
	// run's value width). Default: feat[j] = float64((v + j) mod 7), a
	// deterministic non-trivial signal whose width-1 column matches the
	// historical scalar default f(v) = v mod 7.
	Feature func(v graph.VertexID, feat []float64)
}

var _ bsp.Program = (*Aggregate)(nil)

// Name implements bsp.Program.
func (a *Aggregate) Name() string { return "Aggregate" }

func (a *Aggregate) layers() int {
	if a.Layers <= 0 {
		return 2
	}
	return a.Layers
}

func (a *Aggregate) feature() func(graph.VertexID, []float64) {
	if a.Feature != nil {
		return a.Feature
	}
	return defaultFeature
}

func defaultFeature(v graph.VertexID, feat []float64) {
	for j := range feat {
		feat[j] = float64((uint64(v) + uint64(j)) % 7)
	}
}

// NewWorker implements bsp.Program.
func (a *Aggregate) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	n := sub.NumLocalVertices()
	w := &aggWorker{
		sub:     sub,
		env:     env,
		layers:  a.layers(),
		h:       env.NewValues(n),
		partial: env.NewValues(n),
		inAcc:   env.NewValues(n),
	}
	feature := a.feature()
	for l := 0; l < n; l++ {
		feature(sub.GlobalIDs[l], w.h.Row(l))
	}
	return w
}

type aggWorker struct {
	sub     *bsp.Subgraph
	env     bsp.Env
	layers  int
	h       *graph.ValueMatrix
	partial *graph.ValueMatrix
	// inAcc accumulates the apply step's incoming mirror partials into a
	// zeroed matrix (instead of straight into partial). That fixes the
	// per-vertex sum grouping the recorded values and emission digests
	// were pinned with.
	inAcc *graph.ValueMatrix
}

// addRow accumulates src into dst componentwise.
func addRow(dst, src []float64) {
	for j, v := range src {
		dst[j] += v
	}
}

// Superstep implements bsp.WorkerProgram. Like PageRank, each layer is a
// gather (even) / apply (odd) superstep pair routed through vertex
// masters; the incoming LocalOf probe feeds a strided row copy into the
// local value matrix.
func (w *aggWorker) Superstep(step int, in *transport.MessageBatch) (out []*transport.MessageBatch, active bool) {
	layer := step / 2
	if step%2 == 0 {
		for i, gid := range in.IDs {
			if local, ok := w.sub.LocalOf(gid); ok {
				copy(w.h.Row(int(local)), in.Row(i))
			}
		}
		if layer >= w.layers {
			return nil, false
		}
		clear(w.partial.Data)
		for _, e := range w.sub.Edges {
			addRow(w.partial.Row(int(e.Dst)), w.h.Row(int(e.Src)))
		}
		out = make([]*transport.MessageBatch, w.sub.NumWorkers)
		w.env.SendRows(out, w.sub.Routing().ToMaster, w.partial)
		return out, true
	}

	clear(w.inAcc.Data)
	for i, gid := range in.IDs {
		if local, ok := w.sub.LocalOf(gid); ok {
			addRow(w.inAcc.Row(int(local)), in.Row(i))
		}
	}
	out = make([]*transport.MessageBatch, w.sub.NumWorkers)
	plan := w.sub.Routing()
	for _, local := range plan.Owned {
		l := int(local)
		norm := float64(1 + w.sub.GlobalInDegree[l])
		hRow, pRow, accRow := w.h.Row(l), w.partial.Row(l), w.inAcc.Row(l)
		for j := range hRow {
			hRow[j] = (hRow[j] + pRow[j] + accRow[j]) / norm
		}
	}
	w.env.SendRows(out, plan.ToMirrors, w.h)
	return out, true
}

// Values implements bsp.WorkerProgram: the worker is finished once Values
// is called, so the feature matrix itself is handed over.
func (w *aggWorker) Values() *graph.ValueMatrix {
	return w.h
}

var _ bsp.Resumable = (*aggWorker)(nil)

// SnapshotState implements bsp.Resumable: the feature matrix h and the
// gather partials side by side (width 2·W for a width-W run — a program
// snapshot's width is its own, not the run's). inAcc is recomputed from
// the inbox at every apply step and needs no snapshot.
func (w *aggWorker) SnapshotState() *graph.ValueMatrix {
	width := w.env.ValueWidth
	n := w.sub.NumLocalVertices()
	m := graph.NewValueMatrix(n, 2*width)
	for l := 0; l < n; l++ {
		row := m.Row(l)
		copy(row[:width], w.h.Row(l))
		copy(row[width:], w.partial.Row(l))
	}
	return m
}

// RestoreState implements bsp.Resumable.
func (w *aggWorker) RestoreState(step int, state *graph.ValueMatrix) error {
	width := w.env.ValueWidth
	n := w.sub.NumLocalVertices()
	if state.Width != 2*width {
		return fmt.Errorf("apps: Aggregate snapshot width %d, want %d", state.Width, 2*width)
	}
	if err := state.CheckShape(n); err != nil {
		return err
	}
	for l := 0; l < n; l++ {
		row := state.Row(l)
		copy(w.h.Row(l), row[:width])
		copy(w.partial.Row(l), row[width:])
	}
	return nil
}

// SequentialAggregate is the width-aware oracle for Aggregate: the same
// update applied to a dense width-column feature matrix (width < 1 selects
// 1, nil feature selects the default).
func SequentialAggregate(g *graph.Graph, layers, width int, feature func(v graph.VertexID, feat []float64)) *graph.ValueMatrix {
	if layers <= 0 {
		layers = 2
	}
	if feature == nil {
		feature = defaultFeature
	}
	n := g.NumVertices()
	h := graph.NewValueMatrix(n, width)
	next := graph.NewValueMatrix(n, width)
	for v := 0; v < n; v++ {
		feature(graph.VertexID(v), h.Row(v))
	}
	for t := 0; t < layers; t++ {
		for i := range next.Data {
			next.Data[i] = 0
		}
		for _, e := range g.Edges() {
			addRow(next.Row(int(e.Dst)), h.Row(int(e.Src)))
		}
		for v := 0; v < n; v++ {
			norm := float64(1 + g.InDegree(graph.VertexID(v)))
			hRow, nRow := h.Row(v), next.Row(v)
			for j := range nRow {
				nRow[j] = (hRow[j] + nRow[j]) / norm
			}
		}
		h, next = next, h
	}
	return h
}
