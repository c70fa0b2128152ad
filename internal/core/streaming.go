package core

import (
	"context"
	"fmt"
	"slices"

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

	st      *partition.State
	balance []float64 // ArgminRunning's scratch

	added  int       // edges fed so far: the next edge's stream position
	buffer []pending // the reordering window
	deg    []int32   // observed degree per vertex (streaming sort key)
	out    func(pos int, e graph.Edge, part int)
}

// pending is a buffered edge and its position in the stream.
type pending struct {
	e   graph.Edge
	pos int
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
	alpha, beta, err := defaultWeights(cfg.Alpha, cfg.Beta)
	if err != nil {
		return nil, err
	}
	s := &StreamingEBV{
		alpha:   alpha,
		beta:    beta,
		window:  cfg.Window,
		st:      partition.NewState(cfg.NumVertices, cfg.K),
		balance: make([]float64, cfg.K),
		deg:     make([]int32, cfg.NumVertices),
	}
	if cfg.Emit != nil {
		s.out = func(_ int, e graph.Edge, part int) { cfg.Emit(e, part) }
	}
	return s, nil
}

// Add feeds one edge to the stream. Assignments are reported through the
// Emit callback (possibly delayed by the reordering window).
func (s *StreamingEBV) Add(e graph.Edge) error {
	if numV := len(s.deg); int(e.Src) >= numV || int(e.Dst) >= numV {
		return fmt.Errorf("core: %w: edge (%d,%d) with %d vertices",
			graph.ErrVertexOutOfRange, e.Src, e.Dst, numV)
	}
	s.deg[e.Src]++
	s.deg[e.Dst]++
	p := pending{e, s.added}
	s.added++
	if s.window <= 1 {
		s.assign(p)
		return nil
	}
	s.buffer = append(s.buffer, p)
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
	for i := range s.buffer {
		p, best := &s.buffer[i], &s.buffer[bestIdx]
		key := s.deg[p.e.Src] + s.deg[p.e.Dst]
		if key < bestKey {
			bestKey = key
			bestIdx = i
		} else if p.e == best.e && p.pos < best.pos {
			// Copies of one edge are interchangeable: the first to leave
			// takes the earliest position, however the removals below
			// have shuffled them.
			p.pos, best.pos = best.pos, p.pos
		}
	}
	p := s.buffer[bestIdx]
	s.buffer[bestIdx] = s.buffer[len(s.buffer)-1]
	s.buffer = s.buffer[:len(s.buffer)-1]
	s.assign(p)
}

// assign applies the evaluation function with running normalization.
func (s *StreamingEBV) assign(p pending) {
	best := ArgminRunning(s.st, s.alpha, s.beta, s.balance, p.e)
	s.st.Place(p.e, best)
	if s.out != nil {
		s.out(p.pos, p.e, best)
	}
}

// ReplicationFactor returns the running Σ|Vi| / |V| over the vertex space.
func (s *StreamingEBV) ReplicationFactor() float64 {
	if len(s.deg) == 0 {
		return 0
	}
	return float64(s.st.Replicas) / float64(len(s.deg))
}

// EdgeCounts returns a copy of the per-part edge counters.
func (s *StreamingEBV) EdgeCounts() []int { return slices.Clone(s.st.Ecount) }

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
// the state is allocated, and the edge stream is checked against it every
// partition.CancelCheckInterval additions, so a canceled context stops the
// underlying StreamingEBV promptly.
func (p *PartitionStream) Partition(ctx context.Context, g *graph.Graph, k int) (*partition.Assignment, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := NewStreaming(StreamingConfig{
		K: k, NumVertices: g.NumVertices(), Alpha: p.Alpha, Beta: p.Beta, Window: p.Window,
	})
	if err != nil {
		return nil, err
	}
	a := partition.NewAssignment(k, g.NumEdges())
	// A window emits out of input order; an edge's stream position is its
	// index in g.
	s.out = func(pos int, _ graph.Edge, part int) { a.Parts[pos] = int32(part) }
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
