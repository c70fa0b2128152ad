package transport

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ebv/internal/graph"
)

// mergeReference folds batches the way an uncombined receiver would scan
// them: rows concatenate in (source index, row index) order, the first row
// per vertex is the fold's accumulator, later rows fold left-to-right.
// Returns per-vertex rows plus the per-source surviving-row counts.
func mergeReference(batches []*MessageBatch, c Combiner, w int) (map[graph.VertexID][]float64, []int) {
	vals := make(map[graph.VertexID][]float64)
	appended := make([]int, len(batches))
	for src, b := range batches {
		if b == nil {
			continue
		}
		for i, id := range b.IDs {
			row := b.Vals[i*w : (i+1)*w]
			if acc, ok := vals[id]; ok {
				c.Combine(acc, row)
				continue
			}
			vals[id] = slices.Clone(row)
			appended[src]++
		}
	}
	return vals, appended
}

// assertMergeMatchesReference merges batches into a fresh inbox and checks
// the result is byte-identical (per vertex) to the uncombined fold order,
// sorted by id, with exact per-source accounting.
func assertMergeMatchesReference(t *testing.T, batches []*MessageBatch, c Combiner, w int) {
	t.Helper()
	wantVals, wantAppended := mergeReference(batches, c, w)
	inbox := NewMessageBatch(w)
	var s MergeScratch
	if err := inbox.MergeBatchesCombining(batches, c, &s); err != nil {
		t.Fatal(err)
	}
	if inbox.Len() != len(wantVals) {
		t.Fatalf("merged inbox has %d rows, want %d distinct vertices", inbox.Len(), len(wantVals))
	}
	if !slices.IsSorted(inbox.IDs) {
		t.Fatalf("merged inbox ids are not sorted: %v", inbox.IDs)
	}
	for i, id := range inbox.IDs {
		got := inbox.Vals[i*w : (i+1)*w]
		want, ok := wantVals[id]
		if !ok {
			t.Fatalf("merged inbox row %d has id %d the sources never sent", i, id)
		}
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("vertex %d col %d: merged %v, reference fold %v (not byte-identical)", id, j, got, want)
			}
		}
	}
	if !slices.Equal(s.Appended, wantAppended) {
		t.Fatalf("Appended = %v, want %v", s.Appended, wantAppended)
	}
}

// TestMergeBatchesCombiningFoldOrder: duplicates within one source, across
// sources, and tied head ids all fold in (source, row) order — the
// byte-identity contract — including a non-associative float reduction
// where any other fold order would produce different low bits.
func TestMergeBatchesCombiningFoldOrder(t *testing.T) {
	mk := func(rows ...[2]float64) *MessageBatch {
		b := NewMessageBatch(1)
		for _, r := range rows {
			b.AppendScalar(graph.VertexID(r[0]), r[1])
		}
		return b
	}
	// Values chosen so float summation order is observable: 1e16 + 1 + 1
	// differs bitwise from 1e16 + 2 when folded pairwise differently.
	batches := []*MessageBatch{
		mk([2]float64{5, 1e16}, [2]float64{2, 3}, [2]float64{5, 1}),
		nil,
		mk([2]float64{5, 1}, [2]float64{0, 7}, [2]float64{9, 0.5}),
		mk([2]float64{2, 4}, [2]float64{9, 0.25}),
	}
	assertMergeMatchesReference(t, batches, SumCombiner{}, 1)
}

// TestMergeBatchesCombiningUnsortedSources: sources that emit out of
// ascending id order take the sort-keys path and still reproduce the
// arrival fold order exactly.
func TestMergeBatchesCombiningUnsortedSources(t *testing.T) {
	mk := func(ids []graph.VertexID, vals []float64) *MessageBatch {
		b := NewMessageBatch(2)
		for i, id := range ids {
			b.AppendRow(id, []float64{vals[i], -vals[i]})
		}
		return b
	}
	batches := []*MessageBatch{
		mk([]graph.VertexID{9, 3, 9, 1, 3}, []float64{1, 2, 3, 4, 5}),
		mk([]graph.VertexID{4, 4, 2, 9}, []float64{6, 7, 8, 9}),
		NewMessageBatch(2), // empty: skipped
	}
	assertMergeMatchesReference(t, batches, MinCombiner{}, 2)
}

// TestMergeBatchesCombiningRandomized cross-checks the sorted-run merge
// against the uncombined fold reference over random batch shapes: mixed
// sorted/unsorted sources, heavy duplication, ids clustered to force ties.
func TestMergeBatchesCombiningRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		w := 1 + rng.Intn(3)
		batches := make([]*MessageBatch, 1+rng.Intn(5))
		for s := range batches {
			if rng.Intn(6) == 0 {
				continue // nil source
			}
			b := NewMessageBatch(w)
			n := rng.Intn(30)
			for i := 0; i < n; i++ {
				row := make([]float64, w)
				for j := range row {
					row[j] = rng.NormFloat64()
				}
				b.AppendRow(graph.VertexID(rng.Intn(12)), row)
			}
			if rng.Intn(2) == 0 && !idsAscending(b.IDs) {
				// Half the sources arrive pre-sorted, exercising the
				// in-place (no sort keys) consumption path.
				sorted := NewMessageBatch(w)
				order := make([]int, b.Len())
				for i := range order {
					order[i] = i
				}
				slices.SortStableFunc(order, func(a, c int) int { return int(b.IDs[a]) - int(b.IDs[c]) })
				for _, i := range order {
					sorted.AppendRow(b.IDs[i], b.Vals[i*w:(i+1)*w])
				}
				b = sorted
			}
			batches[s] = b
		}
		assertMergeMatchesReference(t, batches, SumCombiner{}, w)
	}
}

// TestMergeBatchesCombiningErrors: nil combiner, non-empty destination, and
// width-mismatched sources all fail loudly with the offending source named.
func TestMergeBatchesCombiningErrors(t *testing.T) {
	var s MergeScratch
	inbox := NewMessageBatch(1)
	if err := inbox.MergeBatchesCombining(nil, nil, &s); err == nil {
		t.Fatal("merge with a nil combiner succeeded")
	}
	inbox.AppendScalar(1, 1)
	if err := inbox.MergeBatchesCombining(nil, MinCombiner{}, &s); err == nil ||
		!strings.Contains(err.Error(), "non-empty") {
		t.Fatalf("merge into a non-empty batch: err = %v, want a non-empty error", err)
	}
	inbox = NewMessageBatch(2)
	wrong := NewMessageBatch(3)
	wrong.AppendRow(1, []float64{1, 2, 3})
	err := inbox.MergeBatchesCombining([]*MessageBatch{nil, wrong}, MinCombiner{}, &s)
	if err == nil || !strings.Contains(err.Error(), "source 1") {
		t.Fatalf("width-mismatched source: err = %v, want a loud error naming source 1", err)
	}
}

// TestMergeBatchesCombiningScratchReuse: one scratch carries across merges
// of different source counts and batch shapes without stale Appended
// entries or stale sort-key buffers leaking between rounds.
func TestMergeBatchesCombiningScratchReuse(t *testing.T) {
	var s MergeScratch
	for round, n := range []int{4, 2, 6} {
		batches := make([]*MessageBatch, n)
		for i := range batches {
			b := NewMessageBatch(1)
			b.AppendScalar(7, 1) // descending pair forces the sort-keys path
			b.AppendScalar(graph.VertexID(i), float64(round))
			batches[i] = b
		}
		wantVals, wantAppended := mergeReference(batches, MinCombiner{}, 1)
		inbox := NewMessageBatch(1)
		if err := inbox.MergeBatchesCombining(batches, MinCombiner{}, &s); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !slices.Equal(s.Appended, wantAppended) {
			t.Fatalf("round %d: Appended = %v, want %v", round, s.Appended, wantAppended)
		}
		if inbox.Len() != len(wantVals) {
			t.Fatalf("round %d: merged %d rows, want %d", round, inbox.Len(), len(wantVals))
		}
		for i, id := range inbox.IDs {
			if inbox.Scalar(i) != wantVals[id][0] {
				t.Fatalf("round %d: vertex %d = %g, want %g", round, id, inbox.Scalar(i), wantVals[id][0])
			}
		}
	}
}

// BenchmarkReceiverMerge compares the sorted-run combining merge against
// plain AppendBatch concatenation (the no-combiner baseline), over
// ascending unique-id sources — the replica-sync worst case where
// combining removes nothing and must not cost anything either.
func BenchmarkReceiverMerge(b *testing.B) {
	const sources, rows = 8, 4096
	batches := make([]*MessageBatch, sources)
	for s := range batches {
		bt := NewMessageBatch(1)
		for i := 0; i < rows; i++ {
			bt.AppendScalar(graph.VertexID(i*sources+s), float64(i))
		}
		batches[s] = bt
	}
	b.Run("append", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inbox := GetBatch(1)
			for _, bt := range batches {
				inbox.AppendBatch(bt)
			}
			RecycleBatch(inbox)
		}
	})
	b.Run("merge", func(b *testing.B) {
		var s MergeScratch
		for i := 0; i < b.N; i++ {
			inbox := GetBatch(1)
			if err := inbox.MergeBatchesCombining(batches, MinCombiner{}, &s); err != nil {
				b.Fatal(err)
			}
			RecycleBatch(inbox)
		}
	})
}
