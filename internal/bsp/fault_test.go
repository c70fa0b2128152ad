package bsp_test

import (
	"context"
	"errors"
	"strings"
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
// returning a partial result. Worker 2 closes the job as it fails, so its
// peers' exchanges fail too; the run names the fault, not what it induced,
// whatever the interleaving.
func TestRunSurfacesTransportFault(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 4)
	for range 200 {
		// close: release the peers blocked at the barrier.
		err := runClosingFault(t, subs, &apps.CC{}, bsp.Config{}, &fault{kind: closeJob, worker: 2, step: 1})
		if err == nil {
			t.Fatal("Run succeeded despite injected fault")
		}
		if !errors.Is(err, errInjected) || !strings.Contains(err.Error(), "worker 2") {
			t.Fatalf("err = %v, want the injected fault at worker 2 in chain", err)
		}
	}
}

// runClosingFault runs prog on the in-memory mesh with f fired into it and
// returns the run's error, failing the test if the run deadlocks, returns
// a partial result or never fires f.
func runClosingFault(t *testing.T, subs []*bsp.Subgraph, prog bsp.Program, cfg bsp.Config, f *fault) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
	defer cancel()
	res, err := runFault(ctx, t, "mem", subs, prog, cfg, f)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		t.Fatalf("run deadlocked after the injected %v", f)
	case res != nil:
		t.Fatal("got a result despite the injected fault")
	case !f.fired.Load():
		t.Fatal("fault never fired")
	}
	return err
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
