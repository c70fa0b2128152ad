package bsp_test

import (
	"errors"
	"testing"
	"time"

	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/graph"
	"ebv/internal/transport"
)

// TestRunSurfacesTransportFault injects a transport failure mid-run and
// checks that Run returns a clean error instead of deadlocking or
// returning a partial result.
func TestRunSurfacesTransportFault(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 4)

	mesh := faultyMem(t, 4, &transport.FaultInjector{
		FailWorker:  2,
		FailStep:    1,
		CloseOnFail: true, // release the peers blocked at the barrier
	})

	done := make(chan error, 1)
	go func() {
		_, err := runOnMesh(t.Context(), subs, mesh, &apps.CC{}, bsp.Config{})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run succeeded despite injected fault")
		}
		if !errors.Is(err, transport.ErrInjected) && !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("err = %v, want ErrInjected or ErrClosed in chain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run deadlocked after injected fault")
	}
}

// TestRunMaxStepsCap ensures the safety cap trips instead of spinning
// forever on a program that never quiesces.
func TestRunMaxStepsCap(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 2)
	_, err := bsp.Run(t.Context(), subs, &spinner{}, bsp.Config{MaxSteps: 10})
	if !errors.Is(err, bsp.ErrMaxSteps) {
		t.Fatalf("err = %v, want ErrMaxSteps", err)
	}
}

// spinner is a program that stays active forever.
type spinner struct{}

func (*spinner) Name() string { return "spin" }

func (*spinner) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	return spinWorker{sub: sub, env: env}
}

type spinWorker struct {
	sub *bsp.Subgraph
	env bsp.Env
}

func (w spinWorker) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	return nil, true
}

func (w spinWorker) Values() *graph.ValueMatrix {
	return w.env.NewValues(w.sub.NumLocalVertices())
}

// TestFaultInjectorPassthrough checks the injector is transparent before
// the configured failure point.
func TestFaultInjectorPassthrough(t *testing.T) {
	fi := &transport.FaultInjector{Inner: memJob(t, 1)[0], FailWorker: 0, FailStep: 5}
	for step := 0; step < 5; step++ {
		if _, err := fi.Exchange(0, step, nil, false); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if fi.Fired() {
			t.Fatalf("fired early at step %d", step)
		}
	}
	if _, err := fi.Exchange(0, 5, nil, false); !errors.Is(err, transport.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if !fi.Fired() {
		t.Fatal("Fired() = false after injection")
	}
	// Fault fires once; subsequent calls pass through again.
	if _, err := fi.Exchange(0, 6, nil, false); err != nil {
		t.Fatalf("post-fire exchange: %v", err)
	}
	if fi.NumWorkers() != 1 {
		t.Fatalf("NumWorkers = %d", fi.NumWorkers())
	}
}
