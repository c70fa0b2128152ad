package pregel

import (
	"math"

	"ebv/internal/graph"
)

// CC is the vertex-centric connected-components program: min-label
// propagation over undirected adjacency.
type CC struct{}

var _ VertexProgram = (*CC)(nil)

// Name implements VertexProgram.
func (*CC) Name() string { return "CC" }

// InitValue implements VertexProgram.
func (*CC) InitValue(v graph.VertexID, _ *graph.Graph) float64 { return float64(v) }

// InitiallyActive implements VertexProgram.
func (*CC) InitiallyActive(graph.VertexID) bool { return true }

// Combine implements VertexProgram: labels fold with min.
func (*CC) Combine(a, b float64) float64 { return min(a, b) }

// Compute implements VertexProgram.
func (*CC) Compute(step int, _ graph.VertexID, value, msg float64, hasMsg bool) (float64, bool) {
	if step == 0 {
		return value, true // announce own label
	}
	if hasMsg && msg < value {
		return msg, true
	}
	return value, false
}

// EdgeMessage implements VertexProgram.
func (*CC) EdgeMessage(_ graph.VertexID, value float64, _ int) float64 { return value }

// TraverseUndirected implements VertexProgram.
func (*CC) TraverseUndirected() bool { return true }

// FixedSupersteps implements VertexProgram.
func (*CC) FixedSupersteps() int { return 0 }

// SSSP is the vertex-centric unit-weight shortest-path program.
type SSSP struct {
	Source graph.VertexID
}

var _ VertexProgram = (*SSSP)(nil)

// Name implements VertexProgram.
func (*SSSP) Name() string { return "SSSP" }

// InitValue implements VertexProgram.
func (s *SSSP) InitValue(v graph.VertexID, _ *graph.Graph) float64 {
	if v == s.Source {
		return 0
	}
	return math.Inf(1)
}

// InitiallyActive implements VertexProgram.
func (s *SSSP) InitiallyActive(v graph.VertexID) bool { return v == s.Source }

// Combine implements VertexProgram: distances fold with min.
func (*SSSP) Combine(a, b float64) float64 { return min(a, b) }

// Compute implements VertexProgram.
func (*SSSP) Compute(step int, _ graph.VertexID, value, msg float64, hasMsg bool) (float64, bool) {
	if step == 0 && value == 0 {
		return value, true // source announces
	}
	if hasMsg && msg < value {
		return msg, true
	}
	return value, false
}

// EdgeMessage implements VertexProgram.
func (*SSSP) EdgeMessage(_ graph.VertexID, value float64, _ int) float64 { return value + 1 }

// TraverseUndirected implements VertexProgram.
func (*SSSP) TraverseUndirected() bool { return false }

// FixedSupersteps implements VertexProgram.
func (*SSSP) FixedSupersteps() int { return 0 }

// PageRank is the vertex-centric PageRank program with the same update
// rule as apps.SequentialPageRank.
type PageRank struct {
	Iterations int
	Damping    float64
	numVert    int
}

var _ VertexProgram = (*PageRank)(nil)

// Name implements VertexProgram.
func (*PageRank) Name() string { return "PR" }

func (p *PageRank) damping() float64 {
	if p.Damping == 0 {
		return 0.85
	}
	return p.Damping
}

// InitValue implements VertexProgram.
func (p *PageRank) InitValue(_ graph.VertexID, g *graph.Graph) float64 {
	p.numVert = g.NumVertices()
	return 1 / float64(g.NumVertices())
}

// InitiallyActive implements VertexProgram.
func (*PageRank) InitiallyActive(graph.VertexID) bool { return true }

// Combine implements VertexProgram: contributions fold with addition.
func (*PageRank) Combine(a, b float64) float64 { return a + b }

// Compute implements VertexProgram.
func (p *PageRank) Compute(step int, _ graph.VertexID, value, msg float64, hasMsg bool) (float64, bool) {
	if step == 0 {
		// Superstep 0 only seeds the first round of contributions.
		return value, true
	}
	sum := 0.0
	if hasMsg {
		sum = msg
	}
	d := p.damping()
	return (1-d)/float64(p.numVert) + d*sum, true
}

// EdgeMessage implements VertexProgram.
func (p *PageRank) EdgeMessage(_ graph.VertexID, value float64, outDeg int) float64 {
	if outDeg == 0 {
		return 0
	}
	return value / float64(outDeg)
}

// TraverseUndirected implements VertexProgram.
func (*PageRank) TraverseUndirected() bool { return false }

// FixedSupersteps implements VertexProgram.
func (p *PageRank) FixedSupersteps() int {
	iters := p.Iterations
	if iters <= 0 {
		iters = 10
	}
	return iters + 1 // superstep 0 seeds, then one superstep per iteration
}
