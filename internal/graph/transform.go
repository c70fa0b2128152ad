package graph

// Reverse returns the transpose of g (every edge flipped).
func Reverse(g *Graph) *Graph {
	edges := make([]Edge, g.NumEdges())
	for i, e := range g.Edges() {
		edges[i] = Edge{Src: e.Dst, Dst: e.Src}
	}
	out, err := New(g.NumVertices(), edges)
	if err != nil {
		// Unreachable: endpoints were validated when g was built.
		panic("graph: reverse of valid graph failed: " + err.Error())
	}
	out.undirected = g.undirected
	return out
}
