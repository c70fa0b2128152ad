package graph

// CSR is a compressed-sparse-row adjacency view of a Graph. It supports
// O(deg) neighbor iteration, which the processing engines need; the plain
// edge list the partitioners consume stays in Graph.
type CSR struct {
	offsets   []int64
	neighbors []VertexID
	// edgeIndex[k] is the index into Graph.Edges() of the k-th CSR slot,
	// letting engines map adjacency slots back to partition assignments.
	edgeIndex []int32
}

// BuildCSR builds the out-adjacency CSR of g using counting sort, so
// construction is O(|V| + |E|). The in-adjacency is BuildCSR(Reverse(g)):
// Reverse keeps the edge order, so its edge indices are g's.
func BuildCSR(g *Graph) *CSR {
	n := g.NumVertices()
	c := &CSR{
		offsets:   make([]int64, n+1),
		neighbors: make([]VertexID, g.NumEdges()),
		edgeIndex: make([]int32, g.NumEdges()),
	}
	for _, e := range g.Edges() {
		c.offsets[e.Src+1]++
	}
	for v := 0; v < n; v++ {
		c.offsets[v+1] += c.offsets[v]
	}
	cursor := make([]int64, n)
	copy(cursor, c.offsets[:n])
	for i, e := range g.Edges() {
		slot := cursor[e.Src]
		cursor[e.Src]++
		c.neighbors[slot] = e.Dst
		c.edgeIndex[slot] = int32(i)
	}
	return c
}

// Neighbors returns the adjacency list of v. The returned slice aliases
// internal storage and must be treated as read-only.
func (c *CSR) Neighbors(v VertexID) []VertexID {
	return c.neighbors[c.offsets[v]:c.offsets[v+1]]
}

// EdgeIndices returns, for each adjacency slot of v, the index of the
// corresponding edge in the originating Graph's edge list.
func (c *CSR) EdgeIndices(v VertexID) []int32 {
	return c.edgeIndex[c.offsets[v]:c.offsets[v+1]]
}

// Degree returns the number of adjacency slots of v in this view.
func (c *CSR) Degree(v VertexID) int {
	return int(c.offsets[v+1] - c.offsets[v])
}

// NumVertices returns the number of vertices in the view.
func (c *CSR) NumVertices() int { return len(c.offsets) - 1 }

// NumEdges returns the number of adjacency slots in the view.
func (c *CSR) NumEdges() int { return len(c.neighbors) }
