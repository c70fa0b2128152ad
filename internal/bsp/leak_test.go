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

// goroutineGate counts the goroutines now and returns the check that, after
// the runs it names, the count settles back to at most two above that
// within 5 s, collecting garbage as it waits.
func goroutineGate(t *testing.T) (settled func(after string)) {
	runtime.GC()
	before := runtime.NumGoroutine()
	return func(after string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
			runtime.GC()
			if runtime.NumGoroutine() <= before+2 {
				return
			}
		}
		t.Fatalf("goroutines grew from %d to %d after %s", before, runtime.NumGoroutine(), after)
	}
}

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
	settled := goroutineGate(t)
	for i := 0; i < 10; i++ {
		if _, err := bsp.Run(t.Context(), subs, &apps.CC{}, bsp.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	// Allow stragglers to exit.
	settled("10 runs")
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
	settled := goroutineGate(t)
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
	settled("10 canceled runs")
}

// TestCanceledTCPRunTearsDownMesh cancels a run over the real TCP loopback
// mesh mid-superstep and asserts the whole mesh (worker goroutines, frame
// writers, connections) tears down without leaking goroutines — the
// Ctrl-C-mid-superstep scenario of cmd/ebv-run -transport tcp.
func TestCanceledTCPRunTearsDownMesh(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 4)
	settled := goroutineGate(t)
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
	settled("canceled TCP runs")
}
