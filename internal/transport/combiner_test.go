package transport

import (
	"math"
	"math/rand/v2"
	"testing"

	"ebv/internal/graph"
)

// TestCoalesceFoldsDuplicatesInOrder checks the coalescing contract on a
// hand-built batch: first occurrences keep their positions, duplicates
// fold left-to-right, and the batch compacts in place.
func TestCoalesceFoldsDuplicatesInOrder(t *testing.T) {
	b := NewMessageBatch(2)
	b.AppendRow(5, []float64{3, 30})
	b.AppendRow(7, []float64{1, 10})
	b.AppendRow(5, []float64{2, 20})
	b.AppendRow(9, []float64{4, 40})
	b.AppendRow(7, []float64{8, 80})
	removed := b.Coalesce(MinCombiner{}, NewCombineIndex(16))
	if removed != 2 || b.Len() != 3 {
		t.Fatalf("removed %d rows, len %d; want 2 removed, len 3", removed, b.Len())
	}
	wantIDs := []graph.VertexID{5, 7, 9}
	wantVals := []float64{2, 20, 1, 10, 4, 40}
	for i, id := range wantIDs {
		if b.IDs[i] != id {
			t.Fatalf("IDs = %v, want %v", b.IDs, wantIDs)
		}
	}
	for i, v := range wantVals {
		if b.Vals[i] != v {
			t.Fatalf("Vals = %v, want %v", b.Vals, wantVals)
		}
	}
}

// TestCoalesceSkipsTrivialBatches: empty, single-row and nil-combiner
// batches are untouched.
func TestCoalesceSkipsTrivialBatches(t *testing.T) {
	idx := NewCombineIndex(16)
	b := NewMessageBatch(1)
	if b.Coalesce(MinCombiner{}, idx) != 0 {
		t.Fatal("empty batch coalesced")
	}
	b.AppendScalar(3, 1)
	if b.Coalesce(MinCombiner{}, idx) != 0 || b.Len() != 1 {
		t.Fatal("single-row batch changed")
	}
	b.AppendScalar(3, 2)
	if b.Coalesce(nil, idx) != 0 || b.Len() != 2 {
		t.Fatal("nil combiner coalesced")
	}
}

// TestCoalesceDenseCapacityStraddle pins the dense CombineIndex fallback
// semantics on a batch whose ids straddle the index capacity: duplicates
// below the boundary fold, duplicates at or above it pass through
// uncombined (record/lookup decline them), and the removed count is exact
// either way — the accounting invariant Result.MessageCounts relies on.
func TestCoalesceDenseCapacityStraddle(t *testing.T) {
	const capacity = 8
	build := func() *MessageBatch {
		b := NewMessageBatch(1)
		b.AppendScalar(3, 1)          // below: first occurrence
		b.AppendScalar(capacity-1, 1) // boundary-1: tracked
		b.AppendScalar(capacity, 1)   // boundary: untracked in dense mode
		b.AppendScalar(3, 1)          // below: folds
		b.AppendScalar(capacity, 1)   // boundary duplicate: stays in dense mode
		b.AppendScalar(capacity+7, 1) // above: untracked
		b.AppendScalar(capacity-1, 1) // folds
		b.AppendScalar(capacity+7, 1) // stays in dense mode
		return b
	}

	dense := build()
	removed := dense.Coalesce(SumCombiner{}, NewCombineIndex(capacity))
	if want := len(build().IDs) - dense.Len(); removed != want {
		t.Fatalf("dense Coalesce reported %d removed, batch shrank by %d", removed, want)
	}
	if removed != 2 || dense.Len() != 6 {
		t.Fatalf("dense mode removed %d rows to %d (ids %v), want 2 removed of the below-capacity ids only",
			removed, dense.Len(), dense.IDs)
	}
	if dense.Scalar(0) != 2 || dense.Scalar(1) != 2 {
		t.Fatalf("below-capacity ids did not fold: %v / %v", dense.IDs, dense.Vals)
	}
	for i, id := range dense.IDs {
		if int(id) >= capacity && dense.Scalar(i) != 1 {
			t.Fatalf("untrackable id %d was combined: %v / %v", id, dense.IDs, dense.Vals)
		}
	}

	// The sparse map mode tracks every id: the same batch fully combines.
	sparse := build()
	if removed := sparse.Coalesce(SumCombiner{}, NewCombineIndex(0)); removed != 4 || sparse.Len() != 4 {
		t.Fatalf("sparse mode removed %d rows to %d, want 4 removed (all duplicates)", removed, sparse.Len())
	}
}

// fuzzCombiners are the reduction operators the fuzz target alternates
// between (both exact under reordering-free left-to-right folds).
var fuzzCombiners = []Combiner{MinCombiner{}, SumCombiner{}}

// FuzzCombinerCoalesce guards benchmark/'s coalesce kernel: for a random
// batch with duplicate IDs, coalescing and then delivering must produce exactly the rows a receiver would have obtained
// by delivering everything and reducing per vertex — for min and sum, at
// random widths. The fuzz harness runs with the recycled-batch poison mode
// on (EBV_DEBUG's scribbling), so a coalescing path that illegally
// retained a recycled batch would surface as NaNs or sentinel ids.
func FuzzCombinerCoalesce(f *testing.F) {
	f.Add(uint64(1), uint(3), uint(20), uint(0))
	f.Add(uint64(42), uint(1), uint(300), uint(1))
	f.Add(uint64(7), uint(8), uint(64), uint(2))
	f.Add(uint64(99), uint(16), uint(0), uint(1))
	f.Fuzz(func(t *testing.T, seed uint64, width, rows, whichComb uint) {
		was := PoisonRecycledEnabled()
		SetPoisonRecycled(true)
		defer SetPoisonRecycled(was)

		width = width%16 + 1
		rows = rows % 512
		comb := fuzzCombiners[whichComb%uint(len(fuzzCombiners))]
		rng := rand.New(rand.NewPCG(seed, 17))

		// Build the batch from the pool, with ids drawn from a small space
		// so duplicates are common.
		batch := GetBatch(int(width))
		row := make([]float64, width)
		for i := uint(0); i < rows; i++ {
			for j := range row {
				row[j] = math.Trunc(rng.Float64()*64) - 32
			}
			batch.AppendRow(graph.VertexID(rng.UintN(rows/4+1)), row)
		}

		// Reference: deliver every row, reduce per vertex (first row copied
		// verbatim, later rows folded left-to-right).
		type acc struct {
			order int
			vals  []float64
		}
		want := make(map[graph.VertexID]*acc)
		var order []graph.VertexID
		for i, id := range batch.IDs {
			if a, ok := want[id]; ok {
				comb.Combine(a.vals, batch.Row(i))
				continue
			}
			vals := make([]float64, width)
			copy(vals, batch.Row(i))
			want[id] = &acc{order: len(order), vals: vals}
			order = append(order, id)
		}

		// Coalesce, then "deliver" the combined batch — alternating the
		// dense (generation-stamped) and sparse (map) index modes.
		denseSize := 0
		if seed%2 == 0 {
			denseSize = int(rows)/4 + 1
		}
		removed := batch.Coalesce(comb, NewCombineIndex(denseSize))
		if got := int(rows) - batch.Len(); removed != got {
			t.Fatalf("Coalesce reported %d removed, batch shrank by %d", removed, got)
		}
		if batch.Len() != len(order) {
			t.Fatalf("coalesced to %d rows, want %d distinct ids", batch.Len(), len(order))
		}
		if err := batch.Check(int(width)); err != nil {
			t.Fatalf("coalesced batch is malformed: %v", err)
		}
		for i, id := range batch.IDs {
			a := want[id]
			if a == nil {
				t.Fatalf("coalesced batch invented id %d", id)
			}
			if a.order != i {
				t.Fatalf("id %d at row %d, want first-occurrence position %d", id, i, a.order)
			}
			for j, v := range batch.Row(i) {
				if v != a.vals[j] && !(math.IsNaN(v) && math.IsNaN(a.vals[j])) {
					t.Fatalf("id %d col %d: coalesced %v, deliver-then-reduce %v", id, j, v, a.vals[j])
				}
			}
		}
		RecycleBatch(batch)
	})
}

// TestCoalesceLeavesUntrackableIDs: ids beyond a dense index's capacity
// are not combined — their duplicate rows pass through unchanged, which
// receivers must tolerate by contract.
func TestCoalesceLeavesUntrackableIDs(t *testing.T) {
	for _, far := range []graph.VertexID{99, 1<<31 + 3} { // the second wraps a 32-bit int
		idx := NewCombineIndex(4)
		b := NewMessageBatch(1)
		b.AppendScalar(2, 1)
		b.AppendScalar(2, 1)   // trackable duplicate: combined
		b.AppendScalar(far, 1) // beyond capacity: untracked
		b.AppendScalar(far, 1)
		if removed := b.Coalesce(SumCombiner{}, idx); removed != 1 {
			t.Fatalf("removed %d rows, want 1 (only the trackable duplicate)", removed)
		}
		if b.Len() != 3 || b.Scalar(0) != 2 || b.Scalar(1) != 1 || b.Scalar(2) != 1 {
			t.Fatalf("coalesced batch = %v / %v", b.IDs, b.Vals)
		}
	}
}

// TestMinCombinerNaNIdentity: NaN acts as min's identity — it neither
// overwrites a real value nor survives one — so a combined row behaves
// exactly like the uncombined rows under a receiver's `v < cur` fold
// (which skips NaN).
func TestMinCombinerNaNIdentity(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		rows [][]float64
		want float64
	}{
		{[][]float64{{nan}, {3}}, 3},      // NaN first: real value must win
		{[][]float64{{3}, {nan}}, 3},      // NaN later: ignored
		{[][]float64{{nan}, {3}, {2}}, 2}, // and the min still folds through
	}
	for i, tc := range cases {
		b := NewMessageBatch(1)
		for _, r := range tc.rows {
			b.AppendRow(7, r)
		}
		b.Coalesce(MinCombiner{}, NewCombineIndex(16))
		if b.Len() != 1 || b.Scalar(0) != tc.want {
			t.Fatalf("case %d: combined to %v / %v, want single row %g", i, b.IDs, b.Vals, tc.want)
		}
	}
	// All-NaN rows stay NaN (the receiver skips it, same as uncombined).
	b := NewMessageBatch(1)
	b.AppendRow(7, []float64{nan})
	b.AppendRow(7, []float64{nan})
	b.Coalesce(MinCombiner{}, NewCombineIndex(16))
	if b.Len() != 1 || !math.IsNaN(b.Scalar(0)) {
		t.Fatalf("all-NaN rows combined to %v, want NaN", b.Vals)
	}
}
