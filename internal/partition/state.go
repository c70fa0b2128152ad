package partition

import "ebv/internal/graph"

// State is the running state every edge-at-a-time assigner scores against
// and advances: Algorithm 1's keep[], ecount[] and vcount[]. keep[] is
// stored vertex-major — vertex v's row is (k+63)/64 words whose bit i says
// v ∈ keep[i] — so scoring an edge reads two rows instead of probing 2k
// per-part bitsets. Rows are for scoring; consumers that build from a
// part's whole column (VertexSets, Replicas, the subgraph builder) stay on
// part-major Bitsets, and StateOf converts.
type State struct {
	// Ecount[i] and Vcount[i] are |Ei| and |Vi|; Edges and Replicas are
	// their sums over the parts.
	Ecount, Vcount  []int
	Edges, Replicas int

	words  int
	member []uint64
}

// NewState returns the empty state of a k-way partition over n vertices.
func NewState(n, k int) *State {
	words := (k + 63) / 64
	return &State{
		Ecount: make([]int, k),
		Vcount: make([]int, k),
		words:  words,
		member: make([]uint64, n*words),
	}
}

// StateOf returns the state whose part i covers sets[i] and holds ecount[i]
// edges: the transpose of part-major coverage sets into scoring rows.
func StateOf(n int, sets []Bitset, ecount []int) *State {
	s := NewState(n, len(sets))
	for p, set := range sets {
		w, bit := p>>6, uint64(1)<<uint(p&63)
		set.Range(func(v int) { s.member[v*s.words+w] |= bit })
		s.Vcount[p] = set.Count()
		s.Replicas += s.Vcount[p]
		s.Ecount[p] = ecount[p]
		s.Edges += ecount[p]
	}
	return s
}

// K returns the part count.
func (s *State) K() int { return len(s.Ecount) }

// Row returns v's membership row; it aliases the state.
func (s *State) Row(v graph.VertexID) []uint64 {
	return s.member[int(v)*s.words:][:s.words]
}

// Covers reports whether part p holds a replica of v.
func (s *State) Covers(p int, v graph.VertexID) bool {
	return s.member[int(v)*s.words+p>>6]>>uint(p&63)&1 != 0
}

// Place assigns edge e to part p: one more edge, and one more replica for
// each endpoint p did not cover yet.
func (s *State) Place(e graph.Edge, p int) {
	s.Ecount[p]++
	s.Edges++
	w, bit := p>>6, uint64(1)<<uint(p&63)
	// Src is marked before Dst is tested, so a self-loop counts once.
	for _, v := range [2]graph.VertexID{e.Src, e.Dst} {
		if word := &s.member[int(v)*s.words+w]; *word&bit == 0 {
			*word |= bit
			s.Vcount[p]++
			s.Replicas++
		}
	}
}
