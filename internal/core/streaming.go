package core

import (
	"context"
	"fmt"

	"ebv/internal/graph"
	"ebv/internal/partition"
)

// StreamingEBV is the one-pass variant the paper's §VII names as future
// work ("extend it to the distributed and streaming environment to handle
// larger graphs"). It keeps Algorithm 1's evaluation function but drops
// everything that requires the whole graph upfront:
//
//   - no sorting preprocessing (edges arrive in stream order);
//   - |E| and |V| are unknown, so the balance terms normalize by the
//     *running* averages ecount/p and vcount/p instead of |E|/p and |V|/p.
//
// A small optional reordering buffer (Window) recovers part of the sorting
// benefit the way ADWISE (§VI) does: within the buffered window, the edge
// with the smallest observed degree sum is assigned first.
type StreamingEBV struct {
	alpha  float64
	beta   float64
	window int

	k       int
	numV    int
	keep    []partition.Bitset
	ecount  []int
	vcount  []int
	total   int
	replica int

	buffer []graph.Edge
	deg    []int32 // observed degree per vertex (streaming sort key)
	out    func(e graph.Edge, part int)
}

// StreamingConfig configures NewStreaming.
type StreamingConfig struct {
	// K is the number of subgraphs.
	K int
	// NumVertices is the (upper bound on the) vertex id space. Streaming
	// systems know their id universe even when edges arrive online.
	NumVertices int
	// Alpha and Beta are the balance weights (0 selects 1).
	Alpha, Beta float64
	// Window, when > 1, buffers that many edges and assigns the
	// smallest-degree-sum edge first (the ADWISE-style compromise).
	Window int
	// Emit receives every (edge, part) decision in assignment order.
	Emit func(e graph.Edge, part int)
}

// NewStreaming returns a streaming EBV partitioner.
func NewStreaming(cfg StreamingConfig) (*StreamingEBV, error) {
	if cfg.K < 1 {
		return nil, partition.ErrBadPartCount
	}
	if cfg.NumVertices < 0 {
		return nil, fmt.Errorf("core: negative vertex space %d", cfg.NumVertices)
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 1
	}
	if cfg.Beta == 0 {
		cfg.Beta = 1
	}
	if cfg.Alpha < 0 || cfg.Beta < 0 {
		return nil, fmt.Errorf("core: negative hyperparameters alpha=%g beta=%g", cfg.Alpha, cfg.Beta)
	}
	s := &StreamingEBV{
		alpha:  cfg.Alpha,
		beta:   cfg.Beta,
		window: cfg.Window,
		k:      cfg.K,
		numV:   cfg.NumVertices,
		keep:   make([]partition.Bitset, cfg.K),
		ecount: make([]int, cfg.K),
		vcount: make([]int, cfg.K),
		out:    cfg.Emit,
	}
	for i := range s.keep {
		s.keep[i] = partition.NewBitset(cfg.NumVertices)
	}
	s.deg = make([]int32, cfg.NumVertices)
	return s, nil
}

// Add feeds one edge to the stream. Assignments are reported through the
// Emit callback (possibly delayed by the reordering window).
func (s *StreamingEBV) Add(e graph.Edge) error {
	if int(e.Src) >= s.numV || int(e.Dst) >= s.numV {
		return fmt.Errorf("core: %w: edge (%d,%d) with %d vertices",
			graph.ErrVertexOutOfRange, e.Src, e.Dst, s.numV)
	}
	s.deg[e.Src]++
	s.deg[e.Dst]++
	if s.window <= 1 {
		s.assign(e)
		return nil
	}
	s.buffer = append(s.buffer, e)
	if len(s.buffer) >= s.window {
		s.flushOne()
	}
	return nil
}

// Flush drains the reordering buffer; call it after the last Add.
func (s *StreamingEBV) Flush() {
	for len(s.buffer) > 0 {
		s.flushOne()
	}
}

// flushOne assigns the buffered edge with the smallest observed-degree
// sum — the streaming analogue of the §IV-C sort key, computed over the
// degrees seen so far in the stream (the ADWISE compromise: exact sorting
// needs the whole graph; the window re-orders locally).
func (s *StreamingEBV) flushOne() {
	bestIdx := 0
	bestKey := int32(1)<<30 + 1<<29
	for i, e := range s.buffer {
		key := s.deg[e.Src] + s.deg[e.Dst]
		if key < bestKey {
			bestKey = key
			bestIdx = i
		}
	}
	e := s.buffer[bestIdx]
	s.buffer[bestIdx] = s.buffer[len(s.buffer)-1]
	s.buffer = s.buffer[:len(s.buffer)-1]
	s.assign(e)
}

// assign applies the evaluation function with running normalization.
func (s *StreamingEBV) assign(e graph.Edge) {
	u, v := int(e.Src), int(e.Dst)
	// Running per-part averages stand in for |E|/p and |V|/p.
	avgE := float64(s.total)/float64(s.k) + 1
	avgV := float64(s.replica)/float64(s.k) + 1

	best := 0
	bestScore := 0.0
	for i := 0; i < s.k; i++ {
		score := s.alpha*float64(s.ecount[i])/avgE + s.beta*float64(s.vcount[i])/avgV
		if !s.keep[i].Get(u) {
			score++
		}
		if !s.keep[i].Get(v) {
			score++
		}
		if i == 0 || score < bestScore {
			bestScore = score
			best = i
		}
	}
	s.ecount[best]++
	s.total++
	if !s.keep[best].Get(u) {
		s.keep[best].Set(u)
		s.vcount[best]++
		s.replica++
	}
	if !s.keep[best].Get(v) {
		s.keep[best].Set(v)
		s.vcount[best]++
		s.replica++
	}
	if s.out != nil {
		s.out(e, best)
	}
}

// ReplicationFactor returns the running Σ|Vi| / |V| over the vertex space.
func (s *StreamingEBV) ReplicationFactor() float64 {
	if s.numV == 0 {
		return 0
	}
	return float64(s.replica) / float64(s.numV)
}

// EdgeCounts returns a copy of the per-part edge counters.
func (s *StreamingEBV) EdgeCounts() []int {
	out := make([]int, s.k)
	copy(out, s.ecount)
	return out
}

// PartitionStream is a convenience wrapper: it streams all edges of g
// through a StreamingEBV and returns a standard Assignment, making the
// streaming variant a drop-in partition.Partitioner.
type PartitionStream struct {
	// Alpha, Beta, Window as in StreamingConfig.
	Alpha, Beta float64
	Window      int
}

var _ partition.Partitioner = (*PartitionStream)(nil)

// Name implements partition.Partitioner.
func (p *PartitionStream) Name() string {
	if p.Window > 1 {
		return "EBV-stream-window"
	}
	return "EBV-stream"
}

// Partition implements partition.Partitioner: ctx is polled before
// the edge index is built, and the edge stream is checked against it every
// partition.CancelCheckInterval additions, so a canceled context stops the
// underlying StreamingEBV promptly.
func (p *PartitionStream) Partition(ctx context.Context, g *graph.Graph, k int) (*partition.Assignment, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a := partition.NewAssignment(k, g.NumEdges())
	// Emit order differs from input order under a window, so track the
	// next unassigned index per edge identity via a cursor over equal
	// edges. Simpler and exact: remember indices by edge position.
	type pending struct{ indices []int32 }
	byEdge := make(map[graph.Edge]*pending, g.NumEdges())
	for i, e := range g.Edges() {
		pend, ok := byEdge[e]
		if !ok {
			pend = &pending{}
			byEdge[e] = pend
		}
		pend.indices = append(pend.indices, int32(i))
	}
	s, err := NewStreaming(StreamingConfig{
		K: k, NumVertices: g.NumVertices(), Alpha: p.Alpha, Beta: p.Beta, Window: p.Window,
		Emit: func(e graph.Edge, part int) {
			pend := byEdge[e]
			idx := pend.indices[0]
			pend.indices = pend.indices[1:]
			a.Parts[idx] = int32(part)
		},
	})
	if err != nil {
		return nil, err
	}
	for i, e := range g.Edges() {
		if i%partition.CancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if err := s.Add(e); err != nil {
			return nil, err
		}
	}
	s.Flush()
	return a, nil
}
