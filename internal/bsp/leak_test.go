package bsp_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/core"
)

// TestRunLeaksNoGoroutines asserts that repeated engine runs do not leave
// worker or transport goroutines behind (the guide's "don't fire-and-forget
// goroutines" rule, checked empirically).
func TestRunLeaksNoGoroutines(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 4)
	// Warm up once so lazily-started runtime goroutines don't skew counts.
	if _, err := bsp.Run(t.Context(), subs, &apps.CC{}, bsp.Config{}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		if _, err := bsp.Run(t.Context(), subs, &apps.CC{}, bsp.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	// Allow stragglers to exit.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after 10 runs", before, runtime.NumGoroutine())
}

// TestCanceledRunLeaksNoGoroutines asserts that canceled runs tear the
// whole mesh down: every worker goroutine and the cancellation watcher
// must exit, run after run.
func TestCanceledRunLeaksNoGoroutines(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 4)
	// Warm up an uncanceled run first so lazy runtime goroutines settle.
	if _, err := bsp.Run(t.Context(), subs, &apps.CC{}, bsp.Config{}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := runAsync(ctx, subs, nil, &spinner{}, bsp.Config{MaxSteps: 1 << 30})
		time.Sleep(5 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("run %d: err = %v, want context.Canceled", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("run %d: cancellation did not terminate the run", i)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after 10 canceled runs", before, runtime.NumGoroutine())
}

// TestCanceledTCPRunTearsDownMesh cancels a run over the real TCP loopback
// mesh mid-superstep and asserts the whole mesh (worker goroutines, frame
// writers, connections) tears down without leaking goroutines — the
// Ctrl-C-mid-superstep scenario of cmd/ebv-run -transport tcp.
func TestCanceledTCPRunTearsDownMesh(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 4)
	runtime.GC()
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := runAsync(ctx, subs, tcpMesh(t, 4), &spinner{}, bsp.Config{MaxSteps: 1 << 30})
		time.Sleep(20 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("run %d: err = %v, want context.Canceled", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("run %d: canceled TCP run did not terminate", i)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after canceled TCP runs", before, runtime.NumGoroutine())
}
