package transport

import (
	"math"
	"testing"

	"ebv/internal/graph"
)

func TestMessageBatchAppendAccessors(t *testing.T) {
	b := NewMessageBatch(3)
	b.AppendScalar(7, 1.5)
	b.AppendRow(9, []float64{1, 2, 3})
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	if got := b.Row(0); got[0] != 1.5 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("AppendScalar row = %v (trailing columns must be zeroed)", got)
	}
	if got := b.Row(1); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("AppendRow row = %v", got)
	}
	if b.Scalar(1) != 1 {
		t.Fatalf("Scalar(1) = %g", b.Scalar(1))
	}
	if err := b.Check(3); err != nil {
		t.Fatal(err)
	}
	if err := b.Check(2); err == nil {
		t.Fatal("width mismatch accepted")
	}
	b2 := NewMessageBatch(3)
	b2.AppendBatch(b)
	b2.AppendBatch(b)
	if b2.Len() != 4 || b2.Scalar(2) != 1.5 {
		t.Fatalf("AppendBatch: len %d", b2.Len())
	}
	// A recycled-then-reused batch must not leak stale trailing columns
	// through AppendScalar.
	b.Reset()
	b.AppendScalar(1, 9)
	if got := b.Row(0); got[1] != 0 || got[2] != 0 {
		t.Fatalf("stale columns after Reset: %v", got)
	}
}

func TestMessageBatchWidthNormalized(t *testing.T) {
	if b := NewMessageBatch(0); b.Width != 1 {
		t.Fatalf("width %d", b.Width)
	}
	if b := GetBatch(-3); b.Width != 1 {
		t.Fatalf("pooled width %d", b.Width)
	}
	if err := (&MessageBatch{Width: 0, IDs: []graph.VertexID{1}}).Check(0); err == nil {
		t.Fatal("zero-width batch with contents accepted")
	}
}

func TestBatchPoolRecycleAndPoison(t *testing.T) {
	was := PoisonRecycledEnabled()
	defer SetPoisonRecycled(was)

	SetPoisonRecycled(true)
	b := GetBatch(2)
	b.AppendRow(5, []float64{1, 2})
	ids, vals := b.IDs, b.Vals // an illegally retained alias
	RecycleBatch(b)
	if ids[0] != PoisonID {
		t.Fatalf("retained id = %d, want the poison sentinel", ids[0])
	}
	for _, v := range vals {
		if !math.IsNaN(v) {
			t.Fatalf("retained value %g, want NaN", v)
		}
	}

	// Off: recycling must not scribble (the fast path).
	SetPoisonRecycled(false)
	b = GetBatch(1)
	b.AppendScalar(3, 4)
	ids = b.IDs
	RecycleBatch(b)
	if ids[0] != 3 {
		t.Fatalf("poison ran while disabled: id %d", ids[0])
	}

	// Fresh pooled batches always come back empty at the requested width.
	b = GetBatch(4)
	if b.Len() != 0 || b.Width != 4 {
		t.Fatalf("pooled batch: len %d width %d", b.Len(), b.Width)
	}
	RecycleBatch(nil) // nil-safe
}
