package transport

import (
	"math"

	"ebv/internal/graph"
)

// Combiner reduces message rows addressed to the same destination vertex
// into one row — the classic Pregel combiner, on the columnar plane. The
// engine no longer calls it: it hands each batch to the exchange as the
// program emitted it, and the receiver concatenates (DESIGN.md §9). This
// file is kept for benchmark/'s transport.coalesce_rows_per_s kernel
// (Coalesce) and, with merge.go, its merge kernel; both retire with them
// (ROADMAP item 1(b)).
//
// Contract:
//
//   - Combine folds src into dst in place; both are rows of the batch's
//     value width. It must not retain either slice.
//   - Init/identity: Combine is never called against an uninitialized
//     dst. The first row seen for a vertex is copied verbatim (it is the
//     fold's initial accumulator), so a Combiner needs no explicit
//     identity element.
//   - Duplicate rows fold left-to-right in row order, into the position
//     of the first, matching the order an uncombined receiver would have
//     scanned them.
//   - A Combiner must be safe for concurrent use (the built-ins are
//     stateless).
type Combiner interface {
	// Name identifies the combiner in diagnostics ("min", "sum").
	Name() string
	// Combine folds message row src into dst in place.
	Combine(dst, src []float64)
}

// MinCombiner keeps the elementwise minimum — the natural combiner of the
// label/distance-propagation applications (CC, SSSP, WSSSP), whose
// receivers fold incoming scalars with min. Elementwise (rather than
// column-0-only) so width-padded scalar rows combine to the same zeros the
// senders appended. NaN acts as the identity: it never replaces a real
// value AND never survives one, matching a receiver that folds with
// `v < cur` and thereby skips NaN rows.
type MinCombiner struct{}

// Name implements Combiner.
func (MinCombiner) Name() string { return "min" }

// Combine implements Combiner.
func (MinCombiner) Combine(dst, src []float64) {
	for j, v := range src {
		if v < dst[j] || (math.IsNaN(dst[j]) && !math.IsNaN(v)) {
			dst[j] = v
		}
	}
}

// SumCombiner adds column 0 — the natural combiner of scalar partial-sum
// applications (PageRank's mirror→master partials). Extra columns of a
// width-padded run keep the first row's values (all zero on the scalar
// append path).
type SumCombiner struct{}

// Name implements Combiner.
func (SumCombiner) Name() string { return "sum" }

// Combine implements Combiner.
func (SumCombiner) Combine(dst, src []float64) { dst[0] += src[0] }

// CombineIndex is the reusable vertex-id → row-index scratch index of the
// coalescing paths, allocated once per worker. The coalescing loops are
// the combiner's hot path (one probe per message row), so the index is one
// dense array over the vertex-id space with generation stamping — a probe
// is a single array load and Begin (forgetting every entry) is O(1) —
// falling back to a map when the caller declines the dense footprint
// (NewCombineIndex(0)). Ids beyond the dense capacity are simply not
// tracked: their rows pass through uncombined, which is always safe —
// combining is an optimization, and receivers tolerate duplicates by
// contract.
type CombineIndex struct {
	// slot[id] packs the generation stamp (high 32 bits) and the row
	// index (low 32), so a probe touches one cache line, not two.
	slot []uint64
	gen  uint32
	m    map[graph.VertexID]int32 // sparse fallback (nil in dense mode)
}

// NewCombineIndex returns a scratch index covering vertex ids in
// [0, numVertices) with dense O(1) probes (8 bytes per id); numVertices
// <= 0 selects the allocation-light sparse map mode instead.
func NewCombineIndex(numVertices int) *CombineIndex {
	if numVertices <= 0 {
		return &CombineIndex{m: make(map[graph.VertexID]int32)}
	}
	return &CombineIndex{slot: make([]uint64, numVertices), gen: 1}
}

// Begin starts a new coalescing scope, forgetting every entry: O(1) in
// dense mode (generation bump), O(entries) in sparse mode.
func (x *CombineIndex) Begin() {
	if x.m != nil {
		clear(x.m)
		return
	}
	x.gen++
	if x.gen == 0 { // stamp wrap after 2^32 scopes: hard reset
		clear(x.slot)
		x.gen = 1
	}
}

// lookup returns the row recorded for id in the current scope.
func (x *CombineIndex) lookup(id graph.VertexID) (int32, bool) {
	if x.m != nil {
		at, ok := x.m[id]
		return at, ok
	}
	if int(id) >= len(x.slot) {
		return 0, false
	}
	s := x.slot[id]
	if uint32(s>>32) != x.gen {
		return 0, false
	}
	return int32(uint32(s)), true
}

// record stores id → at for the current scope; ids beyond the dense
// capacity are untrackable and their rows stay uncombined.
func (x *CombineIndex) record(id graph.VertexID, at int32) {
	if x.m != nil {
		x.m[id] = at
		return
	}
	if int(id) >= len(x.slot) {
		return
	}
	x.slot[id] = uint64(x.gen)<<32 | uint64(uint32(at))
}

// Coalesce folds duplicate-ID rows of b in place with c, compacting the
// batch: the first occurrence of each id keeps its position (so relative
// order is preserved) and every later duplicate folds into it
// left-to-right. idx is the caller's per-worker scratch index (a fresh
// scope is begun on entry). Returns the number of rows removed. Batches
// with fewer than two rows — and nil combiners — are returned untouched.
func (b *MessageBatch) Coalesce(c Combiner, idx *CombineIndex) int {
	if b.Len() < 2 || c == nil {
		return 0
	}
	idx.Begin()
	w := b.Width
	write := 0
	for read, id := range b.IDs {
		if at, ok := idx.lookup(id); ok {
			c.Combine(b.Vals[int(at)*w:(int(at)+1)*w], b.Vals[read*w:(read+1)*w])
			continue
		}
		if write != read {
			b.IDs[write] = id
			copy(b.Vals[write*w:(write+1)*w], b.Vals[read*w:(read+1)*w])
		}
		idx.record(id, int32(write))
		write++
	}
	removed := len(b.IDs) - write
	b.IDs = b.IDs[:write]
	b.Vals = b.Vals[:write*w]
	return removed
}
