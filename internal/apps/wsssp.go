package apps

import (
	"container/heap"
	"fmt"
	"math"

	"ebv/internal/bsp"
	"ebv/internal/graph"
	"ebv/internal/transport"
)

// WeightedSSSP is SSSP over positive edge weights. The computation stage
// runs Dijkstra (binary heap) to a local fixpoint over the subgraph's
// weighted out-edges — the textbook demonstration of the subgraph-centric
// model's strength: a whole sequential algorithm per superstep, per §IV-B.
//
// Attach weights with bsp.BuildSubgraphsWeightedParallel; absent weights
// behave as unit (making this a drop-in generalization of SSSP).
type WeightedSSSP struct {
	// Source is the global source vertex.
	Source graph.VertexID
}

var _ bsp.Program = (*WeightedSSSP)(nil)
var _ bsp.CombinerProvider = (*WeightedSSSP)(nil)

// Name implements bsp.Program.
func (s *WeightedSSSP) Name() string { return "WSSSP" }

// MessageCombiner implements bsp.CombinerProvider: distances fold with min.
func (s *WeightedSSSP) MessageCombiner() transport.Combiner { return transport.MinCombiner{} }

// NewWorker implements bsp.Program.
func (s *WeightedSSSP) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	w := &wssspWorker{
		sub:      sub,
		env:      env,
		source:   s.Source,
		dist:     make([]float64, sub.NumLocalVertices()),
		improved: newImprovedSet(sub),
	}
	for i := range w.dist {
		w.dist[i] = math.Inf(1)
	}
	if local, ok := sub.LocalOf(s.Source); ok {
		w.dist[local] = 0
		w.frontier = append(w.frontier, local)
	}
	return w
}

type wssspWorker struct {
	sub      *bsp.Subgraph
	env      bsp.Env
	source   graph.VertexID
	dist     []float64
	frontier []int32
	improved improvedSet
}

// distHeap is a min-heap of (vertex, distance) pairs for the local Dijkstra.
type distHeap struct {
	vertices []int32
	dists    []float64
}

func (h *distHeap) Len() int           { return len(h.vertices) }
func (h *distHeap) Less(i, j int) bool { return h.dists[i] < h.dists[j] }
func (h *distHeap) Swap(i, j int) {
	h.vertices[i], h.vertices[j] = h.vertices[j], h.vertices[i]
	h.dists[i], h.dists[j] = h.dists[j], h.dists[i]
}
func (h *distHeap) Push(x interface{}) {
	pair := x.([2]float64)
	h.vertices = append(h.vertices, int32(pair[0]))
	h.dists = append(h.dists, pair[1])
}
func (h *distHeap) Pop() interface{} {
	n := len(h.vertices)
	pair := [2]float64{float64(h.vertices[n-1]), h.dists[n-1]}
	h.vertices = h.vertices[:n-1]
	h.dists = h.dists[:n-1]
	return pair
}

// relax runs Dijkstra from the current frontier to the local fixpoint.
func (w *wssspWorker) relax() {
	h := &distHeap{}
	for _, v := range w.frontier {
		heap.Push(h, [2]float64{float64(v), w.dist[v]})
	}
	w.frontier = w.frontier[:0]
	for h.Len() > 0 {
		pair := heap.Pop(h).([2]float64)
		u, du := int32(pair[0]), pair[1]
		if du > w.dist[u] {
			continue // stale entry
		}
		neighbors := w.sub.Out.Neighbors(graph.VertexID(u))
		edgeIdx := w.sub.Out.EdgeIndices(graph.VertexID(u))
		for j, v := range neighbors {
			nd := du + w.sub.EdgeWeight(edgeIdx[j])
			if nd < w.dist[v] {
				w.dist[v] = nd
				w.improved.mark(int32(v))
				heap.Push(h, [2]float64{float64(v), nd})
			}
		}
	}
}

// Superstep implements bsp.WorkerProgram.
func (w *wssspWorker) Superstep(step int, in *transport.MessageBatch) (out []*transport.MessageBatch, active bool) {
	for i, gid := range in.IDs {
		local, ok := w.sub.LocalOf(gid)
		if !ok {
			continue
		}
		if v := in.Scalar(i); v < w.dist[local] {
			w.dist[local] = v
			w.frontier = append(w.frontier, local)
		}
	}
	if step == 0 {
		if local, ok := w.sub.LocalOf(w.source); ok {
			w.improved.mark(local)
		}
	}
	w.relax()
	return w.improved.send(w.sub, w.env, w.dist), false
}

// Values implements bsp.WorkerProgram.
func (w *wssspWorker) Values() *graph.ValueMatrix {
	return scalarValues(w.env, w.dist)
}

var _ bsp.Resumable = (*wssspWorker)(nil)

// SnapshotState implements bsp.Resumable: the distance vector (width 1) —
// the Dijkstra frontier is drained and improved empty at every superstep
// boundary, exactly as in SSSP.
func (w *wssspWorker) SnapshotState() *graph.ValueMatrix {
	m := graph.NewValueMatrix(len(w.dist), 1)
	for l, d := range w.dist {
		m.SetScalar(l, d)
	}
	return m
}

// RestoreState implements bsp.Resumable.
func (w *wssspWorker) RestoreState(step int, state *graph.ValueMatrix) error {
	if state.Width != 1 {
		return fmt.Errorf("apps: WSSSP snapshot width %d, want 1", state.Width)
	}
	if err := state.CheckShape(len(w.dist)); err != nil {
		return err
	}
	for l := range w.dist {
		w.dist[l] = state.Scalar(l)
	}
	w.frontier = w.frontier[:0]
	clear(w.improved.bits)
	return nil
}

// SequentialWeightedSSSP is the Dijkstra oracle for WeightedSSSP.
// weights may be nil (unit weights).
func SequentialWeightedSSSP(g *graph.Graph, src graph.VertexID, weights graph.EdgeWeights) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if int(src) >= n {
		return dist
	}
	weight := func(i int32) float64 {
		if weights == nil {
			return 1
		}
		return weights[i]
	}
	csr := graph.BuildCSR(g)
	dist[src] = 0
	h := &distHeap{}
	heap.Push(h, [2]float64{float64(src), 0})
	for h.Len() > 0 {
		pair := heap.Pop(h).([2]float64)
		u, du := graph.VertexID(pair[0]), pair[1]
		if du > dist[u] {
			continue
		}
		neighbors := csr.Neighbors(u)
		edgeIdx := csr.EdgeIndices(u)
		for j, v := range neighbors {
			if nd := du + weight(edgeIdx[j]); nd < dist[v] {
				dist[v] = nd
				heap.Push(h, [2]float64{float64(v), nd})
			}
		}
	}
	return dist
}
