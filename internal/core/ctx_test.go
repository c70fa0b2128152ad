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

// TestPartitionCtxPreCanceled checks that every EBV variant
// rejects an already-canceled context without doing the work. "Without the
// work" is judged by allocation, not by a timer: the first thing any of them
// builds is |E|-sized (the assignment, then the §IV-C edge order), so a call
// that allocates fewer than |E| bytes returned before the sort.
func TestPartitionCtxPreCanceled(t *testing.T) {
	g := ctxTestGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []partition.Partitioner{
		core.New(),
		core.New(core.WithOrder(core.OrderSortedDesc)),
		core.New(core.WithOrder(core.OrderAuto)),
		&core.PartitionStream{},
		&core.PartitionStream{Window: 64},
		&core.ParallelEBV{Workers: 2},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a, err := p.Partition(ctx, g, 16)
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
		return e.Partition(ctx, g, 16)
	})
}

// TestEBVLocalCancelMidPartition cancels Algorithm 1 over the local order
// the same way, and EBV-auto's ranges on the same road lattice after a few
// polls of a countdown context.
func TestEBVLocalCancelMidPartition(t *testing.T) {
	g, err := gen.Road(gen.RoadConfig{Width: 200, Height: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := core.New(core.WithOrder(core.OrderLocal), core.WithGrowthTracking(4096, func(int, float64) {
		cancel()
	}))
	assertCanceledPromptly(t, "EBV-local", func() (*partition.Assignment, error) {
		return e.Partition(ctx, g, 8)
	})
	assertCanceledPromptly(t, "EBV-auto", func() (*partition.Assignment, error) {
		return core.New(core.WithOrder(core.OrderAuto)).Partition(newCountdownCtx(3), g, 8)
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
			return p.Partition(ctx, g, 16)
		})
	}
}

// TestParallelEBVCancelMidEpoch cancels after a few epoch barriers.
func TestParallelEBVCancelMidEpoch(t *testing.T) {
	g := ctxTestGraph(t)
	p := &core.ParallelEBV{Workers: 4}
	ctx := newCountdownCtx(3)
	assertCanceledPromptly(t, p.Name(), func() (*partition.Assignment, error) {
		return p.Partition(ctx, g, 16)
	})
}

// TestPartitionWithContextGuards checks the entry-point adapter: a
// pre-canceled context short-circuits before the partitioner is called, an
// open one passes through untouched, and a nil one means Background.
func TestPartitionWithContextGuards(t *testing.T) {
	g := ctxTestGraph(t)
	p := &partition.Random{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := partition.PartitionWithContext(ctx, p, g, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled: err = %v, want context.Canceled", err)
	}
	for name, ctx := range map[string]context.Context{"open": t.Context(), "nil": nil} {
		a, err := partition.PartitionWithContext(ctx, p, g, 8)
		if err != nil {
			t.Fatalf("%s context: %v", name, err)
		}
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(a.Parts) != g.NumEdges() {
			t.Fatalf("%s context: assignment covers %d edges, want %d", name, len(a.Parts), g.NumEdges())
		}
	}
}
