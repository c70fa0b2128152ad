package bsp_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/transport"
)

// runAsync runs a one-job deployment over mesh (nil = in-memory) in a
// goroutine and returns the result channel, so tests can assert
// bounded-time termination.
func runAsync(ctx context.Context, subs []*bsp.Subgraph, mesh transport.Deployment, prog bsp.Program, cfg bsp.Config) chan error {
	done := make(chan error, 1)
	go func() {
		_, err := runOnMesh(ctx, subs, mesh, prog, cfg)
		done <- err
	}()
	return done
}

// TestRunPreCanceled: an already-canceled context fails fast without
// running a single superstep.
func TestRunPreCanceled(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := bsp.Run(ctx, subs, &apps.CC{}, bsp.Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("got a result despite canceled context")
	}
}

// TestRunCancelMidSuperstep cancels a run of a program that never
// quiesces (spinner) and requires Run to return ctx.Err() within a
// bounded wall time instead of spinning to the superstep cap.
func TestRunCancelMidSuperstep(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := runAsync(ctx, subs, nil, &spinner{}, bsp.Config{MaxSteps: 1 << 30})
	time.Sleep(50 * time.Millisecond) // let the workers spin a few supersteps
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not honor cancellation within 30s")
	}
}

// TestRunWorkerErrorReleasesBlockedPeers is the nastiest shape: a fault
// that does not close the job fails one worker mid-run, leaving the three
// survivors blocked in the collective exchange. The engine must release
// them itself (a failing worker cancels the run and closes the transports)
// and surface the root cause — no cancellation from the caller, no
// deadlock, no masking of the fault by the induced barrier errors.
func TestRunWorkerErrorReleasesBlockedPeers(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 4)
	// fail, not close: the seam itself releases nobody; only the engine's
	// own failure path can.
	f := &fault{kind: failExchange, worker: 2, step: 1}
	ctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
	defer cancel()
	_, err := runFault(ctx, t, "mem", subs, &apps.CC{}, bsp.Config{}, f)
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("worker error left peers deadlocked in the exchange")
	}
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want the injected fault as root cause", err)
	}
	if !f.fired.Load() {
		t.Fatal("fault never fired")
	}
}

// TestNewConfigOptions checks the functional-option constructor against
// the equivalent struct literal.
func TestNewConfigOptions(t *testing.T) {
	cfg := bsp.NewConfig(
		bsp.WithMaxSteps(42),
		bsp.WithValueWidth(3),
	)
	if cfg.MaxSteps != 42 || cfg.ValueWidth != 3 {
		t.Fatalf("NewConfig produced %+v", cfg)
	}
}

// TestRunWorkerCancel: a single-worker distributed run over a Mem
// transport honors cancellation mid-superstep.
func TestRunWorkerCancel(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 1)
	mem := memJob(t, 1)[0]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := bsp.RunWorker(ctx, subs[0], nil, &spinner{}, mem, bsp.Config{MaxSteps: 1 << 30})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunWorker did not honor cancellation")
	}
}
