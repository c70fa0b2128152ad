package transport

import (
	"errors"
	"fmt"
	"slices"

	"ebv/internal/graph"
)

// MergeScratch is the reusable per-worker scratch of MergeBatchesCombining,
// allocated once per run so steady-state supersteps merge without
// allocating.
type MergeScratch struct {
	// Appended[src] is the number of rows of batches[src] that survived the
	// last merge as new inbox rows (its rows folded away are
	// batches[src].Len() minus this). Valid until the next merge.
	Appended []int

	runs    []mergeRun
	keyBufs [][]uint64
}

// mergeRun is one source batch's cursor in the k-way merge.
type mergeRun struct {
	b   *MessageBatch
	src int
	pos int // next key index (with keys) or next row (pre-sorted)
	// keys holds uint64(id)<<32|row sorted ascending — nil when the
	// batch's ID column was already ascending, in which case rows are
	// consumed in place (the replica-sync apps' natural emission order,
	// detected with one O(n) scan so they never pay the sort).
	keys []uint64
}

func (r *mergeRun) len() int {
	if r.keys != nil {
		return len(r.keys)
	}
	return r.b.Len()
}

func (r *mergeRun) headID() graph.VertexID {
	if r.keys != nil {
		return graph.VertexID(r.keys[r.pos] >> 32)
	}
	return r.b.IDs[r.pos]
}

// idsAscending reports whether ids is non-decreasing.
func idsAscending(ids []graph.VertexID) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			return false
		}
	}
	return true
}

// MergeBatchesCombining merges the per-source inbox batches into b (which
// must be empty), folding rows addressed to the same vertex with c — the
// receiver-side combining merge. The engine no longer calls it (delivery
// is plain concatenation, DESIGN.md §9); it is kept for the benchmark's
// transport.merge_rows_per_s kernel and retires with it. Each batch becomes a sorted run (sorted
// by vertex id, already-ascending batches detected and left in place) and
// the runs are merge-folded in one k-way pass, so the per-row cost is a
// head comparison, and unique-ID stretches append with bulk copies at
// plain-AppendBatch speed.
//
// The fold order preserves the Combiner contract exactly: for every
// vertex, the first row in (source index, row index) order is copied into
// b verbatim and later rows fold into it left-to-right in that same
// order — byte-identical to the uncombined receiver's scan order. b ends
// sorted by vertex id (a different row order than arrival-order
// concatenation, which no program may depend on — the engine delivers the
// inbox as an unordered bag).
//
// Nil and empty batches are skipped. A batch whose width disagrees with
// b's is a protocol violation and fails the merge loudly (mirroring the
// jobmux demux's cross-width check); b is left in an unspecified state.
// s.Appended reports per-source surviving rows for delivery accounting.
func (b *MessageBatch) MergeBatchesCombining(batches []*MessageBatch, c Combiner, s *MergeScratch) error {
	if c == nil {
		return errors.New("transport: merge without a combiner")
	}
	if b.Len() != 0 {
		return fmt.Errorf("transport: combining merge into a non-empty batch (%d rows)", b.Len())
	}
	w := b.Width
	if len(s.Appended) < len(batches) {
		s.Appended = make([]int, len(batches))
	}
	s.Appended = s.Appended[:len(batches)]
	clear(s.Appended)

	// Build the runs: validate each batch, sort only the non-ascending ones.
	s.runs = s.runs[:0]
	sorted := 0 // key buffers consumed (ascending runs don't take one)
	for src, o := range batches {
		if o == nil || o.Len() == 0 {
			continue
		}
		if err := o.Check(w); err != nil {
			return fmt.Errorf("transport: combining merge from source %d: %w", src, err)
		}
		run := mergeRun{b: o, src: src}
		if !idsAscending(o.IDs) {
			if len(s.keyBufs) <= sorted {
				s.keyBufs = append(s.keyBufs, nil)
			}
			keys := slices.Grow(s.keyBufs[sorted][:0], o.Len())
			for i, id := range o.IDs {
				keys = append(keys, uint64(id)<<32|uint64(uint32(i)))
			}
			slices.Sort(keys)
			s.keyBufs[sorted] = keys
			sorted++
			run.keys = keys
		}
		s.runs = append(s.runs, run)
	}

	remaining := 0 // unconsumed rows across all runs; every pass consumes ≥ 1
	for r := range s.runs {
		remaining += s.runs[r].len()
	}

	const noID = int64(-1)
	last := noID // vertex id of b's final row
	for remaining > 0 {
		// One scan finds both the run with the smallest head id (the first
		// run scanned — lowest source index — wins ties, preserving source
		// fold order) and the smallest head id among the OTHER runs: the
		// best run owns every id strictly below that limit, plus its own
		// head id, which may tie.
		best := -1
		var bestID graph.VertexID
		limit := uint64(1) << 40
		for r := range s.runs {
			run := &s.runs[r]
			if run.pos >= run.len() {
				continue
			}
			id := run.headID()
			if best < 0 {
				best, bestID = r, id
				continue
			}
			if id < bestID {
				limit = uint64(bestID)
				best, bestID = r, id
				continue
			}
			if uint64(id) < limit {
				limit = uint64(id)
			}
		}
		run := &s.runs[best]
		consumedFrom := run.pos
		o, src := run.b, run.src
		for run.pos < run.len() {
			id := run.headID()
			if !(uint64(id) < limit || id == bestID) {
				break
			}
			if run.keys != nil {
				// Sorted-by-key consumption: one row at a time (the
				// fan-in style batches, where folding dominates anyway).
				row := int(uint32(run.keys[run.pos]))
				run.pos++
				if int64(id) == last {
					c.Combine(b.Vals[len(b.Vals)-w:], o.Vals[row*w:(row+1)*w])
					continue
				}
				b.IDs = append(b.IDs, id)
				b.Vals = append(b.Vals, o.Vals[row*w:(row+1)*w]...)
				s.Appended[src]++
				last = int64(id)
				continue
			}
			if int64(id) == last {
				c.Combine(b.Vals[len(b.Vals)-w:], o.Vals[run.pos*w:(run.pos+1)*w])
				run.pos++
				continue
			}
			// Bulk-append the longest stretch of strictly increasing ids
			// this run owns: the unique-ID common case moves as two copies.
			j := run.pos + 1
			for j < o.Len() {
				nid := o.IDs[j]
				if nid == o.IDs[j-1] || !(uint64(nid) < limit || nid == bestID) {
					break
				}
				j++
			}
			b.IDs = append(b.IDs, o.IDs[run.pos:j]...)
			b.Vals = append(b.Vals, o.Vals[run.pos*w:j*w]...)
			s.Appended[src] += j - run.pos
			last = int64(o.IDs[j-1])
			run.pos = j
		}
		remaining -= run.pos - consumedFrom
	}
	return nil
}
