package bsp_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ebv/internal/apps"
	"ebv/internal/bsp"
	"ebv/internal/core"
	"ebv/internal/graph"
	"ebv/internal/transport"
)

// tcpMesh returns a fresh loopback TCP mesh sized to k.
func tcpMesh(t *testing.T, k int) transport.Deployment {
	t.Helper()
	mesh, err := transport.NewTCPMeshDeployment(t.Context(), k)
	if err != nil {
		t.Fatal(err)
	}
	return mesh
}

// meshByName maps a subtest's transport name to its mesh: "tcp" is a fresh
// loopback mesh, anything else the in-memory default (nil).
func meshByName(t *testing.T, name string, k int) transport.Deployment {
	if name == "tcp" {
		return tcpMesh(t, k)
	}
	return nil
}

// runOnMesh serves prog as the only job of a deployment over mesh (nil =
// in-memory, i.e. bsp.Run) — how a caller with a custom transport mesh
// reaches the engine. The deployment owns and closes the mesh.
func runOnMesh(ctx context.Context, subs []*bsp.Subgraph, mesh transport.Deployment, prog bsp.Program, cfg bsp.Config) (*bsp.Result, error) {
	d, err := bsp.NewDeployment(subs, mesh)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return d.Run(ctx, prog, cfg)
}

// memJob opens one width-1 job on a fresh in-memory deployment for k
// workers and returns its transports; the deployment closes with the test.
func memJob(t *testing.T, k int) []transport.Transport {
	t.Helper()
	mem, err := transport.NewMemDeployment(k)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mem.Close() })
	trs, err := mem.OpenJob(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return trs
}

// TestMemTCPEquivalenceMultiWidth is the transport-equivalence invariant
// on the batch path: the same program over the same subgraphs must produce
// a byte-identical ValueMatrix on the in-memory router and the TCP mesh,
// for scalar and vector widths alike.
func TestMemTCPEquivalenceMultiWidth(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	const k = 3
	subs := buildSubs(t, g, core.New(), k)
	for _, width := range []int{1, 3, 8} {
		prog := &apps.Aggregate{Layers: 2}
		memRes, err := bsp.Run(t.Context(), subs, prog, bsp.Config{ValueWidth: width})
		if err != nil {
			t.Fatalf("width %d mem: %v", width, err)
		}
		tcpRes, err := runOnMesh(t.Context(), subs, tcpMesh(t, k), prog, bsp.Config{ValueWidth: width})
		if err != nil {
			t.Fatalf("width %d tcp: %v", width, err)
		}
		if !memRes.Values.EqualValues(tcpRes.Values) {
			t.Fatalf("width %d: mem and TCP value matrices differ", width)
		}
		if memRes.TotalMessages() != tcpRes.TotalMessages() {
			t.Fatalf("width %d: message counts differ: %d vs %d",
				width, memRes.TotalMessages(), tcpRes.TotalMessages())
		}
		// And both match the sequential oracle per vertex, per column.
		want := apps.SequentialAggregate(g, 2, width, nil)
		for v := 0; v < g.NumVertices(); v++ {
			row, ok := tcpRes.Row(graph.VertexID(v))
			if !ok {
				continue
			}
			for j, got := range row {
				if math.Abs(got-want.At(v, j)) > 1e-9 {
					t.Fatalf("width %d: h(%d)[%d] = %g, want %g",
						width, v, j, got, want.At(v, j))
				}
			}
		}
	}
}

// TestFaultMidExchangeBatchPath injects a fault into a vector-width run
// several supersteps in — feature batches are in flight on every link —
// and requires a clean error naming the faulted worker, no deadlock and no
// partial result.
func TestFaultMidExchangeBatchPath(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 4)
	for range 200 {
		err := runClosingFault(t, subs, &apps.Aggregate{Layers: 5}, bsp.Config{ValueWidth: 4},
			&fault{kind: closeJob, worker: 2, step: 2})
		if err == nil {
			t.Fatal("run succeeded despite injected fault")
		}
		if !errors.Is(err, errInjected) || !strings.Contains(err.Error(), "worker 2") {
			t.Fatalf("err = %v, want the injected fault at worker 2 in chain", err)
		}
	}
}

// retainer is a deliberately buggy program: it holds on to the inbox batch
// across supersteps, violating the "in is only valid during the call"
// contract. Under the poison debug mode the engine must make that bug
// fail deterministically (the retained values read back NaN).
type retainer struct {
	sawPoison chan bool
}

func (*retainer) Name() string { return "retainer" }

func (r *retainer) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	return &retainWorker{sub: sub, env: env, sawPoison: r.sawPoison}
}

type retainWorker struct {
	sub       *bsp.Subgraph
	env       bsp.Env
	retained  *transport.MessageBatch
	sawPoison chan bool
}

func (w *retainWorker) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	switch step {
	case 0:
		// Send ourselves a message so step 1's inbox is non-empty.
		out := make([]*transport.MessageBatch, w.sub.NumWorkers)
		b := w.env.NewBatch()
		b.AppendScalar(w.sub.GlobalIDs[0], 42)
		out[w.sub.Part] = b
		return out, true
	case 1:
		w.retained = in // the bug: keeping the batch past the call
		return nil, true
	default:
		poisoned := w.retained.Len() == 0 // recycled batches are reset
		if !poisoned && len(w.retained.Vals) > 0 {
			poisoned = math.IsNaN(w.retained.Vals[0])
		}
		if w.retained.Len() > 0 && w.retained.IDs[0] == transport.PoisonID {
			poisoned = true
		}
		w.sawPoison <- poisoned
		return nil, false
	}
}

func (w *retainWorker) Values() *graph.ValueMatrix {
	return w.env.NewValues(w.sub.NumLocalVertices())
}

// TestPoisonModeCatchesRetainedInbox enables the poison debug mode and
// checks that a program retaining its inbox observes scribbled (or reset)
// contents instead of silently-stale values.
func TestPoisonModeCatchesRetainedInbox(t *testing.T) {
	was := transport.PoisonRecycledEnabled()
	transport.SetPoisonRecycled(true)
	defer transport.SetPoisonRecycled(was)

	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 1)
	prog := &retainer{sawPoison: make(chan bool, 1)}
	if _, err := bsp.Run(t.Context(), subs, prog, bsp.Config{}); err != nil {
		t.Fatal(err)
	}
	select {
	case poisoned := <-prog.sawPoison:
		if !poisoned {
			t.Fatal("retained inbox survived recycling un-poisoned: retention bugs would corrupt silently")
		}
	default:
		t.Fatal("retainer never reported")
	}
}

// badBatchProg has worker 1 hand the engine a malformed outbox batch for
// worker 2 at superstep 2 — the misbehaving-program shape that must surface
// as an error from Run naming the worker, step and destination, not a
// deadlock of the peers blocked in the barrier.
type badBatchProg struct {
	batch func(sub *bsp.Subgraph) *transport.MessageBatch
}

func (*badBatchProg) Name() string { return "bad-batch" }

func (p *badBatchProg) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	return badBatchWorker{prog: p, sub: sub, env: env}
}

type badBatchWorker struct {
	prog *badBatchProg
	sub  *bsp.Subgraph
	env  bsp.Env
}

func (w badBatchWorker) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	out := make([]*transport.MessageBatch, w.sub.NumWorkers)
	if w.sub.Part == 1 && step == 2 {
		out[2] = w.prog.batch(w.sub)
	}
	return out, true
}

func (w badBatchWorker) Values() *graph.ValueMatrix {
	return w.env.NewValues(w.sub.NumLocalVertices())
}

// runBadBatch runs prog on four workers and returns Run's error, failing
// the test if Run deadlocks instead.
func runBadBatch(t *testing.T, prog *badBatchProg) error {
	t.Helper()
	subs := buildSubs(t, testGraphs(t)["powerlaw"], core.New(), 4)
	done := make(chan error, 1)
	go func() {
		_, err := bsp.Run(t.Context(), subs, prog, bsp.Config{})
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("Run deadlocked on a malformed outbox batch")
		return nil
	}
}

// badWidthProg sends a width-3 batch into a width-1 run.
func badWidthProg() *badBatchProg {
	return &badBatchProg{batch: func(sub *bsp.Subgraph) *transport.MessageBatch {
		b := transport.GetBatch(3)
		b.AppendScalar(sub.GlobalIDs[0], 1)
		return b
	}}
}

// TestBadBatchWidthErrorsInsteadOfDeadlocking: a worker rejected for a
// malformed outbox must release its peers from the collective exchange
// and Run must report the width mismatch.
func TestBadBatchWidthErrorsInsteadOfDeadlocking(t *testing.T) {
	if err := runBadBatch(t, badWidthProg()); err == nil || !strings.Contains(err.Error(), "width") {
		t.Fatalf("err = %v, want a width-mismatch diagnostic", err)
	}
}

// TestOutboxIDBeyondGraphRefused: a batch whose last id is not a vertex id
// would be taken for the engine's vote on arrival, so the sender refuses it.
func TestOutboxIDBeyondGraphRefused(t *testing.T) {
	err := runBadBatch(t, &badBatchProg{batch: func(sub *bsp.Subgraph) *transport.MessageBatch {
		b := transport.GetBatch(1)
		b.AppendScalar(sub.GlobalIDs[0], 1)
		b.AppendScalar(graph.VertexID(sub.NumGlobalVertices), 1)
		return b
	}})
	if err == nil || !strings.Contains(err.Error(), "worker 1: superstep 2 outbox 2: last id") {
		t.Fatalf("err = %v, want one naming worker 1, superstep 2 and outbox 2", err)
	}
}

// pastLastWorker returns an outbox two slots longer than the worker count
// at step 0: one row to the next worker, a vote, and in slot k either a
// row (rowPastK) or an empty batch, with slot k+1 nil. Step 1 checks that
// the row and every vote arrived, counting misses in missed.
type pastLastWorker struct {
	rowPastK bool
	missed   atomic.Int32
}

func (*pastLastWorker) Name() string { return "past-last-worker" }

func (p *pastLastWorker) NewWorker(sub *bsp.Subgraph, env bsp.Env) bsp.WorkerProgram {
	return pastLastWorkerWorker{prog: p, sub: sub, env: env}
}

type pastLastWorkerWorker struct {
	prog *pastLastWorker
	sub  *bsp.Subgraph
	env  bsp.Env
}

func (w pastLastWorkerWorker) Superstep(step int, in *transport.MessageBatch) ([]*transport.MessageBatch, bool) {
	k := w.sub.NumWorkers
	if step > 0 {
		if m, _, ok := w.env.Reduced(); in.Len() != 1 || !ok || m != 0 {
			w.prog.missed.Add(1)
		}
		return nil, false
	}
	out := make([]*transport.MessageBatch, k+2)
	next := (w.sub.Part + 1) % k
	out[next] = w.env.NewBatch()
	out[next].AppendScalar(w.sub.GlobalIDs[0], 1)
	out[k] = w.env.NewBatch()
	if w.prog.rowPastK {
		out[k].AppendScalar(w.sub.GlobalIDs[0], 1)
	}
	w.env.Reduce(float64(w.sub.Part), false)
	return out, false
}

func (w pastLastWorkerWorker) Values() *graph.ValueMatrix {
	return w.env.NewValues(w.sub.NumLocalVertices())
}

// TestOutboxPastLastWorkerRefused: a row in an outbox slot past the last
// worker has no destination, so the sender refuses it instead of counting
// it as sent while the exchange drops it; empty or nil slots there are
// dropped, and the vote never lands in them. On Mem and on TCP.
func TestOutboxPastLastWorkerRefused(t *testing.T) {
	const k = 3
	subs := buildSubs(t, testGraphs(t)["powerlaw"], core.New(), k)
	for _, trName := range []string{"mem", "tcp"} {
		t.Run(trName, func(t *testing.T) {
			_, err := runOnMesh(t.Context(), subs, meshByName(t, trName, k), &pastLastWorker{rowPastK: true}, bsp.Config{})
			if err == nil || !strings.Contains(err.Error(), "superstep 0 outbox 3: no worker 3 (k = 3)") {
				t.Fatalf("err = %v, want superstep 0 outbox 3 refused", err)
			}

			prog := &pastLastWorker{}
			res, err := runOnMesh(t.Context(), subs, meshByName(t, trName, k), prog, bsp.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if c := res.MessageCounts(); c != (bsp.MessageCounts{Emitted: k, Wire: k, Delivered: k}) {
				t.Fatalf("counts %+v, want %d rows sent and delivered", c, k)
			}
			if n := prog.missed.Load(); n != 0 {
				t.Fatalf("%d workers missed their row or the vote", n)
			}
		})
	}
}

// TestRunRejectsOverwideValueWidth: widths above the transport cap fail
// identically on every transport, at configuration time.
func TestRunRejectsOverwideValueWidth(t *testing.T) {
	g := testGraphs(t)["powerlaw"]
	subs := buildSubs(t, g, core.New(), 2)
	_, err := bsp.Run(t.Context(), subs, &apps.CC{}, bsp.Config{ValueWidth: transport.MaxValueWidth + 1})
	if err == nil || !strings.Contains(err.Error(), "transport cap") {
		t.Fatalf("err = %v, want the transport-cap diagnostic", err)
	}
}
