package core_test

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ebv/internal/core"
	"ebv/internal/gen"
	"ebv/internal/graph"
	"ebv/internal/partition"
)

func ctxTestGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: 20000, NumEdges: 150000, Eta: 2.2, Directed: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// countdownCtx is a context.Context whose Err flips to Canceled after n
// polls — a deterministic way to cancel "mid-loop" regardless of machine
// speed.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// assertCanceledPromptly runs fn and fails unless it returns ctx.Err()
// within the deadline (the satellite's "bounded wall-time" requirement).
func assertCanceledPromptly(t *testing.T, name string, fn func() (*partition.Assignment, error)) {
	t.Helper()
	type outcome struct {
		a   *partition.Assignment
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		a, err := fn()
		done <- outcome{a, err}
	}()
	select {
	case out := <-done:
		if !errors.Is(out.err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, out.err)
		}
		if out.a != nil {
			t.Fatalf("%s: returned a partial assignment alongside cancellation", name)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: did not honor cancellation within 30s", name)
	}
}

// TestPartitionCtxPreCanceled checks that every context-aware partitioner
// rejects an already-canceled context without doing the work. "Without the
// work" is judged by allocation, not by a timer: the first thing any of them
// builds is |E|-sized (the assignment, then the §IV-C edge order), so a call
// that allocates fewer than |E| bytes returned before the sort.
func TestPartitionCtxPreCanceled(t *testing.T) {
	g := ctxTestGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []partition.ContextPartitioner{
		core.New(),
		core.New(core.WithOrder(core.OrderSortedDesc)),
		&core.PartitionStream{},
		&core.PartitionStream{Window: 64},
		&core.ParallelEBV{Workers: 2},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a, err := p.PartitionCtx(ctx, g, 16)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", p.Name(), err)
		}
		if a != nil {
			t.Errorf("%s: got assignment despite canceled context", p.Name())
		}
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= uint64(g.NumEdges()) {
			t.Errorf("%s: pre-canceled call allocated %d bytes (|E| = %d): it built the edge order before polling ctx",
				p.Name(), bytes, g.NumEdges())
		}
	}
}

// TestEBVCancelMidPartition cancels from inside the growth-tracking
// callback, so cancellation deterministically lands mid-assignment-loop.
func TestEBVCancelMidPartition(t *testing.T) {
	g := ctxTestGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := core.New(core.WithGrowthTracking(4096, func(processed int, rf float64) {
		cancel()
	}))
	assertCanceledPromptly(t, "EBV", func() (*partition.Assignment, error) {
		return e.PartitionCtx(ctx, g, 16)
	})
}

// TestStreamingEBVCancelMidStream uses a countdown context so the
// cancellation lands mid-stream deterministically; the PartitionStream
// wrapper drives StreamingEBV, so this covers the streaming variant.
func TestStreamingEBVCancelMidStream(t *testing.T) {
	g := ctxTestGraph(t)
	for _, p := range []*core.PartitionStream{{}, {Window: 64}} {
		ctx := newCountdownCtx(3)
		assertCanceledPromptly(t, p.Name(), func() (*partition.Assignment, error) {
			return p.PartitionCtx(ctx, g, 16)
		})
	}
}

// TestParallelEBVCancelMidEpoch cancels after a few epoch barriers.
func TestParallelEBVCancelMidEpoch(t *testing.T) {
	g := ctxTestGraph(t)
	p := &core.ParallelEBV{Workers: 4}
	ctx := newCountdownCtx(3)
	assertCanceledPromptly(t, p.Name(), func() (*partition.Assignment, error) {
		return p.PartitionCtx(ctx, g, 16)
	})
}

// TestPartitionWithContextLegacyFallback checks the adapter path for a
// Partitioner that does NOT implement ContextPartitioner: a pre-canceled
// context short-circuits, an open one passes through untouched.
func TestPartitionWithContextLegacyFallback(t *testing.T) {
	g := ctxTestGraph(t)
	legacy := &partition.Random{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := partition.PartitionWithContext(ctx, legacy, g, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("legacy pre-canceled: err = %v, want context.Canceled", err)
	}
	a, err := partition.PartitionWithContext(context.Background(), legacy, g, 8)
	if err != nil {
		t.Fatalf("legacy open context: %v", err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(a.Parts) != g.NumEdges() {
		t.Fatalf("legacy assignment covers %d edges, want %d", len(a.Parts), g.NumEdges())
	}
}

// TestPartitionCtxMatchesPartition asserts the context plumbing did not
// change the algorithm: PartitionCtx with a background context must produce
// the identical assignment to the legacy Partition call.
func TestPartitionCtxMatchesPartition(t *testing.T) {
	g := ctxTestGraph(t)
	e := core.New()
	want, err := e.Partition(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.PartitionCtx(context.Background(), g, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != want.K || len(got.Parts) != len(want.Parts) {
		t.Fatalf("shape mismatch: got (k=%d, %d edges), want (k=%d, %d edges)",
			got.K, len(got.Parts), want.K, len(want.Parts))
	}
	for i := range want.Parts {
		if got.Parts[i] != want.Parts[i] {
			t.Fatalf("edge %d: PartitionCtx assigned %d, Partition assigned %d",
				i, got.Parts[i], want.Parts[i])
		}
	}
}
