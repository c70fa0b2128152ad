package apps

import (
	"ebv/internal/bsp"
	"ebv/internal/graph"
)

// Aggregate runs L rounds of mean neighborhood aggregation over in-edges:
//
//	h_{t+1}(v) = (h_t(v) + Σ_{(u,v)∈E} h_t(u)) / (1 + indeg(v))
//
// applied componentwise to a feature vector of the run's value width
// (bsp.Config.ValueWidth; width 1 is the scalar case). This is the
// message-passing kernel of GNN inference (a GraphSAGE-mean layer) — the
// workload the paper's §VII names as the next application of EBV ("we plan
// to apply EBV to distributed graph neural networks"). Each layer is one
// gather/apply round of gatherApply, the master/mirror protocol Aggregate
// shares with PageRank, so partition quality shows up the same way; the
// columnar message plane ships whole feature rows per replica instead of
// one message per component. Its rule is aggRule.
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

func defaultFeature(v graph.VertexID, feat []float64) {
	x := uint64(v) % 7
	for j := range feat {
		feat[j] = float64(x)
		if x++; x == 7 {
			x = 0
		}
	}
}

// NewWorker implements bsp.Program.
func (a *Aggregate) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	layers, feature := a.Layers, a.Feature
	if layers <= 0 {
		layers = 2
	}
	if feature == nil {
		feature = defaultFeature
	}
	g := newGatherApply(a.Name(), sub, env)
	g.rule = &aggRule{g: g, layers: layers}
	for l, gid := range sub.GlobalIDs {
		feature(gid, g.h.Row(l))
	}
	return g
}

// aggRule is Aggregate's gatherRule: h is the feature matrix.
type aggRule struct {
	g      *gatherApply
	layers int
}

func (r *aggRule) gather(layer int) bool {
	if layer >= r.layers {
		return false
	}
	h, partial := r.g.h, r.g.partial
	clear(partial.Data)
	for _, e := range r.g.sub.Edges {
		addRow(partial.Row(int(e.Dst)), h.Row(int(e.Src)))
	}
	return true
}

func (r *aggRule) apply() {
	for _, local := range r.g.sub.Routing().Owned {
		l := int(local)
		norm := float64(1 + r.g.sub.GlobalInDegree[l])
		hRow, pRow, accRow := r.g.h.Row(l), r.g.partial.Row(l), r.g.acc.Row(l)
		for j := range hRow {
			hRow[j] = (hRow[j] + pRow[j] + accRow[j]) / norm
		}
	}
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
